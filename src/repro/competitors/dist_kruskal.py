"""Distributed Kruskal with replicated vertices (Loncar et al. [24] style).

The paper's related work covers the pre-framework generation of distributed
MST codes: "Loncar et al. propose distributed variants of the Kruskal and
Jarnik-Prim algorithm that also rely on replicated vertices" (Section III).
These algorithms assume every PE can hold the entire vertex set and follow a
merge-tree structure:

1. every PE sorts its edge block by weight and runs *local* Kruskal over a
   union-find on the replicated vertex set, keeping only its local MSF
   candidates (at most n-1 edges survive per PE);
2. PEs then pair up along a binomial merge tree: the receiver merges the two
   candidate forests with another Kruskal pass; after ``log p`` levels one
   PE holds the global MSF.

Properties reproduced (and why the paper's algorithms beat it):

* **replicated vertices**: per-PE memory is Ω(n) regardless of p -- the
  same constraint as Dehne & Götz's m/n > p assumption -- so weak scaling
  walks into the machine's memory limit (simulated OOM);
* **sequential merge bottleneck**: the final merge levels run on ever-fewer
  PEs over up to n-1 edges each, capping strong scaling at a serial term
  (Amdahl) -- visible directly in the per-PE clocks;
* correctness is exact (verified against sequential Kruskal like every
  other algorithm here).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..dgraph.dist_graph import DistGraph, split_edges
from ..dgraph.edges import Edges, tie_key
from ..kernels import segmented_lexsort, segmented_unique
from ..simmpi.alltoall import route_rows
from ..core.boruvka import InputSnapshot, MSTResult, mst_output
from ..core.config import BoruvkaConfig
from ..core.rounds import UnsupportedFaultSchedule
from ..core.state import MSTRun
from ..seq.union_find import UnionFind


def dist_kruskal(
    graph: DistGraph,
    cfg: Optional[BoruvkaConfig] = None,
) -> MSTResult:
    """Compute the MSF with the replicated-vertex merge-tree Kruskal."""
    machine = graph.machine
    # The merge tree is not a checkpointable round loop (senders destroy
    # their forests as they ship them), so fail-stop schedules cannot be
    # recovered -- refuse them up front instead of silently not recovering
    # (the same contract the RoundScheduler enforces for round bodies
    # without a CheckpointableState).
    fi = machine.faults
    if fi is not None and fi.protects_rounds:
        raise UnsupportedFaultSchedule(
            f"fault schedule {fi.schedule!r} can fail-stop PEs but "
            "dist-kruskal's merge tree does not support checkpoint/replay; "
            "run it without pe_fail events")
    p = machine.n_procs
    cfg = cfg or BoruvkaConfig(alltoall="direct")
    run = MSTRun(machine, cfg)
    comm = run.comm
    snapshot = InputSnapshot.take(graph)

    # Replicated vertex set: dense remap of all labels (one allgather).
    vlabels, touched = replicated_vertices(graph, comm)
    n = len(vlabels)
    if n == 0:
        return mst_output(run, snapshot, "dist-kruskal", 0)
    sizes = np.diff(graph.offsets)
    # Ω(n) replicated state per PE -- the memory wall of this approach.
    machine.check_memory(n * 8.0 * 2 + sizes * 32.0)

    # ---- Level 0: local Kruskal on every PE's block. ----
    with machine.phase("dk_local"):
        forests = _local_forests(graph, vlabels, touched)
        machine.charge_sort(np.maximum(sizes, 1))
        machine.charge_scan(sizes)

    # ---- Binomial merge tree. ----
    active = list(range(p))
    level = 0
    while len(active) > 1:
        level += 1
        if level > 64:
            raise RuntimeError("merge tree failed to terminate")
        receivers = active[0::2]
        senders = active[1::2]
        rows = [np.empty((0, Edges.N_COLS), dtype=np.int64)] * p
        dests = [np.empty(0, dtype=np.int64)] * p
        for s, r in zip(senders, receivers):
            rows[s] = forests[s].as_matrix()
            dests[s] = np.full(len(forests[s]), r, dtype=np.int64)
            forests[s] = Edges.empty()
        recv, _, _ = route_rows(comm, rows, dests, method=cfg.alltoall)
        with machine.phase("dk_merge"):
            merged_rows = np.zeros(p, dtype=np.int64)
            for r in receivers:
                if len(recv[r]):
                    merged = Edges.concat([forests[r],
                                           Edges.from_matrix(recv[r])])
                    forests[r] = _local_kruskal(merged, n)
                    merged_rows[r] = len(merged)
            machine.charge_sort(merged_rows)
            machine.check_memory(np.where(merged_rows > 0,
                                          n * 16.0 + merged_rows * 32.0, 0))
        active = receivers

    final = forests[active[0]]
    run.record_mst(active[0], final.id, final.w)
    return mst_output(run, snapshot, "dist-kruskal", level)


def replicated_vertices(graph: DistGraph, comm):
    """The replicated sorted vertex set, and the per-PE labels it was
    gathered from.

    Each PE's distinct endpoint labels are one
    :func:`~repro.kernels.segmented_unique` of the block's ``[u; v]`` keyed
    by PE, returned as ``(labels, label offsets, inverse)``; one allgatherv
    of them replicates the set.
    """
    e, pes = graph.edges, graph.row_pes()
    touched = segmented_unique(np.concatenate([e.u, e.v]),
                               np.concatenate([pes, pes]), comm.size)
    labels, offsets, _ = touched
    return (np.unique(comm.allgatherv(np.split(labels, offsets[1:-1]))),
            touched)


def _local_forests(graph: DistGraph, vlabels: np.ndarray,
                   touched) -> List[Edges]:
    """Level 0: every PE's Kruskal over its own block, in one pass.

    One union-find runs over (PE, vertex) keys, dense-ranked over the
    vertices each PE touches, so no two PEs' forests meet; the edges go
    through it in weight order within each PE.  Returns every PE's
    surviving edges with dense endpoints (ranks in ``vlabels``), as views
    of one block.
    """
    e, pes = graph.edges, graph.row_pes()
    labels, offsets, inverse = touched
    key = offsets[np.concatenate([pes, pes])] + inverse
    du = np.searchsorted(vlabels, e.u)
    dv = np.searchsorted(vlabels, e.v)
    order = segmented_lexsort(tie_key(du, dv, e.w)[::-1], pes)
    m = len(e)
    rows = order[UnionFind(len(labels)).union_edges(key[:m][order],
                                                    key[m:][order])]
    forest_offsets = np.zeros(len(graph.offsets), dtype=np.int64)
    np.cumsum(np.bincount(pes[rows], minlength=len(forest_offsets) - 1),
              out=forest_offsets[1:])
    return split_edges(Edges(du[rows], dv[rows], e.w[rows], e.id[rows]),
                       forest_offsets)


def _local_kruskal(dense: Edges, n: int) -> Edges:
    """Kruskal over the replicated dense vertex set; returns the surviving
    edges (endpoints stay dense, original ids and weights ride along)."""
    order = dense.weight_order()
    keep = UnionFind(n).union_edges(dense.u[order], dense.v[order])
    return dense.take(order[keep])
