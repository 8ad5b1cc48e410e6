"""REDISTRIBUTE: global sort, parallel-edge elimination, rebuild (Section IV-C).

The relabelled edges are sorted lexicographically with the configured
distributed sorter (dispatching per Section VI-C), after which parallel
edges are consecutive and all but the lightest of each ``(u, v)`` group are
dropped.  Groups can straddle PE boundaries after the sort; a constant-size
allgather of every PE's last ``(u, v)`` lets each PE drop its leading copy
of its predecessor's group.  Finally the distributed graph data structure
is re-established "using an allgather-operation on the first edge on each
PE".

On the host the edges are one ``[u, v, w, id]`` block: the dedup is one
adjacent compare of the ``(u, v)`` prefix over the whole sorted block, and
the rebuilt parts are views of the deduplicated block.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import Edges
from ..kernels import RaggedArrays
from ..simmpi.alltoall import split_rows
from ..simmpi.machine import Machine
from ..sorting.api import sort_rows
from .state import MSTRun


def redistribute(
    run: MSTRun,
    machine: Machine,
    relabelled: List[Edges],
    check: bool = False,
) -> DistGraph:
    """Sort, deduplicate and rebuild the distributed graph structure."""
    p = machine.n_procs
    cols = [np.concatenate([getattr(e, c) for e in relabelled])
            for c in ("u", "v", "w", "id")]
    lens = np.fromiter(map(len, relabelled), dtype=np.int64, count=p)
    block = split_rows(np.stack(cols, axis=1),
                       np.concatenate(([0], np.cumsum(lens))))
    sorted_parts = sort_rows(run.comm, block, n_key_cols=3,
                             method=run.cfg.sorter, rebalance=True)
    packed = RaggedArrays.from_arrays(sorted_parts)
    rows, off = packed.flat, packed.offsets

    # The first (= lightest) edge of every (u, v) group survives.
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:, 0] != rows[:-1, 0]) | (rows[1:, 1] != rows[:-1, 1])
    machine.charge_scan(packed.lengths)
    # Boundary groups: every PE learns its predecessors' last (u, v).
    last = np.zeros((p, 3), dtype=np.int64)
    full = packed.lengths > 0
    last[full, 0] = 1
    last[full, 1:] = rows[off[1:][full] - 1, :2]
    run.comm.allgather(last)

    kept = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    kept_off = kept[off]
    edges = np.ascontiguousarray(np.compress(keep, rows, axis=0).T)
    parts = [Edges(*edges[:, a:b])
             for a, b in zip(kept_off[:-1].tolist(), kept_off[1:].tolist())]
    graph = DistGraph(machine, parts, check=check)
    if machine.sanitizer is not None:
        # Invariant 3: the rebuilt structure must be globally lex-sorted
        # with agreeing replicated metadata after *every* redistribute.
        machine.sanitizer.check_redistributed(graph)
    return graph
