"""Distributed Jarník-Prim with replicated vertices (Loncar et al. [24]).

The second of the two algorithms the paper's related work cites from [24]:
the tree grows one vertex per round, with the machine's only parallelism in
the candidate-minimum search.

Each PE holds its edge block; the in-tree flags are replicated.  Per round
every PE scans its block for the lightest edge leaving the tree, an
allreduce (lexicographic-minimum operator) picks the global winner, and all
PEs add its endpoint.  Components are processed one after another (the
original targets connected graphs; the forest extension restarts from the
smallest unvisited vertex).

The structural weaknesses this faithfully reproduces:

* **Theta(n) rounds** with a collective each -- the latency term
  ``alpha * n * log p`` dwarfs everything at scale, so the algorithm only
  makes sense on very small machines (the paper: "an evaluation on up to
  16 cores");
* **replicated vertex state**: Omega(n) memory per PE;
* per-round *full block scans* unless the per-PE candidate heaps are
  maintained -- we keep the simple scan variant of [24].
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import lightest_per_group, tie_key
from ..kernels import segment_ids
from ..core.base_case import INF, _row_min
from ..core.boruvka import InputSnapshot, MSTResult, redistribute_mst
from ..core.config import BoruvkaConfig
from ..core.rounds import RoundBody, RoundScheduler, RoundStats
from ..core.state import MSTRun


class PrimRoundBody(RoundBody):
    """One tree-growth step: block scans plus the winner allreduce.

    The pre-scheduler driver nested a per-component ``while True`` inside
    the start-vertex sweep; here the sweep is flattened into the prologue
    (the in-tree flags are replicated and the restart search is pure host
    logic, so advancing to the next component issues no collectives) and
    each candidate allreduce is one scheduler round.  The round that
    discovers a finished component (all-infinite candidates) scanned every
    block and ran the collective, so it counts -- the same convention as
    Awerbuch-Shiloach's detection iteration.

    Fail-stop recovery snapshots the replicated in-tree flag vector (one
    copy per PE -- the state really is replicated) plus, via the restore
    closure, the host-side sweep cursor and in-component flag.
    """

    label = "dist_prim"
    divergence_error = "distributed Prim failed to terminate"

    def __init__(self, graph: DistGraph, run: MSTRun,
                 eu: np.ndarray, ev: np.ndarray, n: int):
        self.graph = graph
        self.run = run
        self.machine = graph.machine
        # The graph's block with dense endpoints; ``pe`` is each row's PE.
        self.pe = segment_ids(graph.offsets)
        self.eu, self.ev = eu, ev
        self.w, self.id = graph.edges.w, graph.edges.id
        self.n = n
        self.in_tree = np.zeros(n, dtype=bool)  # replicated
        self.cursor = 0          # next start-vertex candidate to try
        self.in_component = False
        self.total_edges = len(self.eu)

    def prologue(self, round_no: int) -> Optional[RoundStats]:
        """Advance the component sweep; done when every vertex is visited."""
        if not self.in_component:
            while self.cursor < self.n and self.in_tree[self.cursor]:
                self.cursor += 1
            if self.cursor >= self.n:
                return None
            self.in_tree[self.cursor] = True
            self.in_component = True
        # Replicated flags are host-visible: the stats cost no collectives.
        return RoundStats(self.n - int(self.in_tree.sum()), self.total_edges)

    def round(self, round_no: int) -> bool:
        """Scan every block, allreduce the winner, grow the tree by one."""
        machine, run = self.machine, self.run
        p = machine.n_procs
        in_tree, eu, ev = self.in_tree, self.eu, self.ev
        machine.charge_scan(np.diff(self.graph.offsets), ranks=np.arange(p))
        # Each PE's best frontier-crossing edge: a (w, cu, cv, id, endpoint)
        # row, (INF, 0, 0, 0, 0) for a PE without one.
        idx = np.flatnonzero(in_tree[eu] & ~in_tree[ev])
        pes, pick = lightest_per_group(self.pe[idx], eu[idx], ev[idx],
                                       self.w[idx], p)
        k = idx[pick]
        w, cu, cv = tie_key(eu[k], ev[k], self.w[k])
        cand = np.zeros((p, 1, 5), dtype=np.int64)
        cand[:, 0, 0] = INF
        cand[pes, 0, 0] = w
        cand[pes, 0, 1] = cu
        cand[pes, 0, 2] = cv
        cand[pes, 0, 3] = self.id[k]
        cand[pes, 0, 4] = ev[k]
        best = run.comm.allreduce(list(cand), op=_row_min)[0]
        if best[0] >= INF:
            self.in_component = False  # component finished
            return False
        w, _, _, eid, endpoint = best
        in_tree[endpoint] = True
        run.record_mst(0, np.array([eid]), np.array([w]))
        return False  # convergence is the prologue's sweep exhausting

    # -- CheckpointableState ------------------------------------------
    def checkpoint_state(self) -> "PrimRoundBody":
        """The replicated in-tree flags (plus host cursor) are replayable."""
        return self

    def take(self, run: MSTRun):
        """Buddy-replicate the in-tree flags; closure keeps the cursor."""
        from ..faults.recovery import ArrayCheckpoint

        cursor, in_component = self.cursor, self.in_component

        def reinstate(blocks):
            self.in_tree = blocks[0][0]
            self.cursor = cursor
            self.in_component = in_component

        p = self.machine.n_procs
        return ArrayCheckpoint.take(run, [[self.in_tree] for _ in range(p)],
                                    reinstate)


def dist_prim(
    graph: DistGraph,
    cfg: Optional[BoruvkaConfig] = None,
) -> MSTResult:
    """Compute the MSF with the replicated-vertex distributed Prim."""
    machine = graph.machine
    p = machine.n_procs
    cfg = cfg or BoruvkaConfig(alltoall="direct")
    run = MSTRun(machine, cfg)
    comm = run.comm
    snapshot = InputSnapshot.take(graph)

    # Replicated dense vertex set.
    local_vids = [np.unique(np.concatenate([q.u, q.v])) if len(q)
                  else np.empty(0, dtype=np.int64) for q in graph.parts]
    vlabels = np.unique(comm.allgatherv(local_vids))
    n = len(vlabels)
    if n == 0:
        return _result(machine, run, snapshot, comm)
    machine.check_memory(np.full(p, n * 1.0 + np.diff(graph.offsets) * 32.0))
    e = graph.edges
    body = PrimRoundBody(graph, run, np.searchsorted(vlabels, e.u),
                         np.searchsorted(vlabels, e.v), n)
    RoundScheduler(run, 4 * n).run_rounds(body)
    return _result(machine, run, snapshot, comm)


def _result(machine, run, snapshot, comm) -> MSTResult:
    with machine.phase("mst_output"):
        msf_parts = redistribute_mst(run, snapshot)
    weights = [int(part.w.sum()) for part in msf_parts]
    total = int(comm.allreduce(weights))
    return MSTResult(
        msf_parts=msf_parts,
        total_weight=total,
        elapsed=machine.elapsed(),
        phase_times=dict(machine.phase_times),
        rounds=run.rounds,
        algorithm="dist-prim",
        stats={"bytes_communicated": machine.bytes_communicated,
               "n_collectives": machine.n_collectives},
    )
