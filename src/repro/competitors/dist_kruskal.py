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

from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import Edges
from ..simmpi.alltoall import route_rows
from ..core.boruvka import InputSnapshot, MSTResult, redistribute_mst
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
    local_vids = [np.unique(np.concatenate([part.u, part.v]))
                  if len(part) else np.empty(0, dtype=np.int64)
                  for part in graph.parts]
    vlabels = np.unique(comm.allgatherv(local_vids))
    n = len(vlabels)
    if n == 0:
        return _result(machine, run, snapshot, comm, level=0)
    # Ω(n) replicated state per PE -- the memory wall of this approach.
    machine.check_memory(np.full(
        p, n * 8.0 * 2 + np.array([len(q) for q in graph.parts]) * 32.0))

    # ---- Level 0: local Kruskal on every PE's block. ----
    forests: List[Edges] = []
    with machine.phase("dk_local"):
        for i in range(p):
            part = graph.parts[i]
            forests.append(_local_kruskal(part, vlabels, n))
            machine.charge_sort(np.array([max(len(part), 1)]),
                                ranks=np.array([i]))
            machine.charge_scan(np.array([len(part)]), ranks=np.array([i]))

    # ---- Binomial merge tree. ----
    active = list(range(p))
    level = 0
    while len(active) > 1:
        level += 1
        if level > 64:
            raise RuntimeError("merge tree failed to terminate")
        receivers = active[0::2]
        senders = active[1::2]
        rows, dests = [], []
        for i in range(p):
            if i in senders:
                recv_pe = receivers[senders.index(i)]
                rows.append(forests[i].as_matrix())
                dests.append(np.full(len(forests[i]), recv_pe,
                                     dtype=np.int64))
                forests[i] = Edges.empty()
            else:
                rows.append(np.empty((0, Edges.N_COLS), dtype=np.int64))
                dests.append(np.empty(0, dtype=np.int64))
        recv, _, _ = route_rows(comm, rows, dests, method=cfg.alltoall)
        with machine.phase("dk_merge"):
            for r in receivers:
                if len(recv[r]) == 0:
                    continue
                merged = Edges.concat([forests[r],
                                       Edges.from_matrix(recv[r])])
                forests[r] = _local_kruskal(merged, vlabels, n,
                                            already_dense=True)
                machine.charge_sort(np.array([max(len(merged), 1)]),
                                    ranks=np.array([r]))
                machine.check_memory(_mem_vector(p, r, n, len(merged)))
        active = receivers

    root = active[0]
    final = forests[root]
    run.record_mst(root, final.id, final.w)
    return _result(machine, run, snapshot, comm, level)


def _mem_vector(p: int, pe: int, n: int, edges: int) -> np.ndarray:
    out = np.zeros(p)
    out[pe] = n * 16.0 + edges * 32.0
    return out


def _local_kruskal(part: Edges, vlabels: np.ndarray, n: int,
                   already_dense: bool = False) -> Edges:
    """Kruskal over the replicated dense vertex set; returns surviving edges.

    The returned forest keeps *dense* endpoints so merge levels can union
    directly; original ids/weights ride along for the final output.
    """
    if len(part) == 0:
        return Edges.empty()
    if already_dense:
        du, dv = part.u, part.v
    else:
        du = np.searchsorted(vlabels, part.u)
        dv = np.searchsorted(vlabels, part.v)
    dense = Edges(du, dv, part.w, part.id)
    order = dense.weight_order()
    keep = UnionFind(n).union_edges(du[order], dv[order])
    return dense.take(order[keep])


def _result(machine, run, snapshot, comm, level) -> MSTResult:
    with machine.phase("mst_output"):
        msf_parts = redistribute_mst(run, snapshot)
    weights = [int(part.w.sum()) for part in msf_parts]
    total = int(comm.allreduce(weights))
    return MSTResult(
        msf_parts=msf_parts,
        total_weight=total,
        elapsed=machine.elapsed(),
        phase_times=dict(machine.phase_times),
        rounds=level,
        algorithm="dist-kruskal",
        stats={"bytes_communicated": machine.bytes_communicated,
               "n_collectives": machine.n_collectives},
    )
