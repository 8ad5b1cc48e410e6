"""REDISTRIBUTE: global sort, parallel-edge elimination, rebuild (Section IV-C).

The relabelled edges are sorted lexicographically with the configured
distributed sorter (dispatching per Section VI-C), after which parallel
edges are consecutive and all but the lightest of each ``(u, v)`` group are
dropped.  Groups can straddle PE boundaries after the sort; a constant-size
allgather of boundary keys fixes those cases.  Finally the distributed graph
data structure is re-established "using an allgather-operation on the first
edge on each PE".
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import Edges
from ..kernels import RaggedArrays
from ..simmpi.machine import Machine
from ..sorting.api import sort_rows
from .state import MSTRun


def dedup_sorted_parts(parts: List[np.ndarray]) -> List[np.ndarray]:
    """Per PE, keep the first (= lightest) edge of every consecutive
    ``(u, v)`` group -- one flat pass over all parts.

    The segment-change guard keeps boundary-straddling groups intact on both
    sides (the boundary copies are dropped later by
    :func:`_drop_boundary_duplicates`).
    """
    r = RaggedArrays.from_arrays(parts)
    flat = r.flat
    if len(flat) <= 1:
        return list(parts)
    seg = r.segment_ids()
    same = ((flat[1:, 0] == flat[:-1, 0]) & (flat[1:, 1] == flat[:-1, 1])
            & (seg[1:] == seg[:-1]))
    keep = np.concatenate(([True], ~same))
    kept = flat[keep]
    counts = np.bincount(seg[keep], minlength=r.n_segments)
    koff = np.zeros(r.n_segments + 1, dtype=np.int64)
    np.cumsum(counts, out=koff[1:])
    return [kept[koff[i]:koff[i + 1]] for i in range(r.n_segments)]


def _drop_boundary_duplicates(run: MSTRun, parts: List[np.ndarray]
                              ) -> List[np.ndarray]:
    """Remove leading edges duplicating the previous PE's last (u, v) group.

    After the global sort the lightest copy of a group that spans a boundary
    sits on the earlier PE, so later PEs drop their leading run of the same
    (u, v).  One allgather of per-PE last keys suffices.
    """
    p = len(parts)
    last_keys = []
    for part in parts:
        if len(part):
            last_keys.append(np.array([1, part[-1, 0], part[-1, 1]],
                                      dtype=np.int64))
        else:
            last_keys.append(np.array([0, 0, 0], dtype=np.int64))
    gathered = np.stack(run.comm.allgather(last_keys))
    out: List[np.ndarray] = []
    prev_u = prev_v = None
    for i in range(p):
        part = parts[i]
        if prev_u is not None and len(part):
            drop = (part[:, 0] == prev_u) & (part[:, 1] == prev_v)
            # Only the *leading run* may duplicate across the boundary.
            run_end = int(np.argmin(drop)) if not drop.all() else len(part)
            part = part[run_end:]
        out.append(part)
        if gathered[i, 0] == 1:
            prev_u, prev_v = int(gathered[i, 1]), int(gathered[i, 2])
    return out


def redistribute(
    run: MSTRun,
    machine: Machine,
    relabelled: List[Edges],
    check: bool = False,
) -> DistGraph:
    """Sort, deduplicate and rebuild the distributed graph structure."""
    mats = [e.as_matrix() for e in relabelled]
    sorted_parts = sort_rows(run.comm, mats, n_key_cols=3,
                             method=run.cfg.sorter, rebalance=True)
    deduped = dedup_sorted_parts(sorted_parts)
    machine.charge_scan(np.array([len(x) for x in sorted_parts]))
    deduped = _drop_boundary_duplicates(run, deduped)
    parts = [Edges.from_matrix(x) for x in deduped]
    graph = DistGraph(machine, parts, check=check)
    if machine.sanitizer is not None:
        # Invariant 3: the rebuilt structure must be globally lex-sorted
        # with agreeing replicated metadata after *every* redistribute.
        machine.sanitizer.check_redistributed(graph)
    return graph
