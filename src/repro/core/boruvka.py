"""Distributed Borůvka-MST (Algorithm 1) -- the paper's core contribution.

Drives the round structure of Section IV:

1. LOCALPREPROCESSING contracts provably-local MST edges (Section IV-A);
2. while the global vertex count exceeds the base-case threshold:
   MINEDGES -> CONTRACTCOMPONENTS -> EXCHANGELABELS -> RELABEL ->
   REDISTRIBUTE;
3. BASECASE finishes on a replicated vertex set (Section IV-D);
4. REDISTRIBUTEMST sends every identified MST edge (by id) back to its
   original home PE, which looks up the original endpoints in its initial
   edge block (Section VI-C, :class:`InputSnapshot`).

Each step runs inside a machine phase block, which is what the Fig. 6
breakdown reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..dgraph.dist_graph import DistGraph, ids_are_positions, split_edges
from ..dgraph.edges import Edges
from ..kernels import RaggedArrays, route_plan
# ``route_rows`` stays importable from here: perfbench's span rebinding is
# tested through this module's binding of it.
from ..simmpi.alltoall import SendBlock, account, route_rows  # noqa: F401
from .base_case import base_case
from .config import BoruvkaConfig
from .contraction import contract_components
from .labels import exchange_labels, relabel
from .local_preprocessing import local_preprocessing
from .minedges import min_edges
from .redistribute import redistribute
from .rounds import RoundBody, RoundScheduler, RoundStats
from .state import MSTRun


@dataclass
class InputSnapshot:
    """The initial edge block and its offsets, for the MST output's lookups.

    The paper keeps a varint-compressed copy and decodes it twice (Section
    VI-C); :func:`redistribute_mst` charges both decodes.  The host holds
    the block by reference instead: the caller keeps the input graph alive
    for the whole run and nothing writes ``u``/``v``/``w`` in place.  Edge
    ids are positions in the block, so PE ``i`` is the home of the ids in
    ``offsets[i]:offsets[i + 1]``.
    """

    edges: Edges
    offsets: np.ndarray

    @classmethod
    def take(cls, graph: DistGraph) -> "InputSnapshot":
        """Reference the input block after checking its ids are positions."""
        if not ids_are_positions(graph.edges.id):
            raise ValueError(
                "edge ids must form contiguous per-PE ranges "
                "(use DistGraph.from_global_edges or a generator)"
            )
        return cls(graph.edges, graph.offsets)


@dataclass
class MSTResult:
    """Outcome of one distributed MSF computation."""

    #: Per-PE MSF edges with original endpoints (sorted by edge id).
    msf_parts: List[Edges]
    #: Total MSF weight (replicated scalar).
    total_weight: int
    #: Simulated makespan in seconds (max over PE clocks).
    elapsed: float
    #: Per-phase simulated seconds (max over PEs).
    phase_times: Dict[str, float]
    #: Number of distributed Borůvka rounds executed.
    rounds: int
    #: Algorithm label for reporting.
    algorithm: str = "boruvka"
    #: Extra diagnostics (bytes communicated, collective count, ...).
    stats: Dict = field(default_factory=dict)

    def msf_edges(self) -> Edges:
        """All MSF edges assembled into one sequence (for verification)."""
        return Edges.concat(self.msf_parts)


def global_vertex_count(graph: DistGraph, run: MSTRun) -> int:
    """Global count of distinct source vertices (one allreduce)."""
    counts = graph.local_vertex_counts()
    total = run.comm.allreduce([int(c) for c in counts])
    return int(total - graph.shared_first.sum())


class BoruvkaRoundBody(RoundBody):
    """One distributed Borůvka round (MINEDGES ... REDISTRIBUTE).

    Also the reference :class:`~repro.core.rounds.CheckpointableState`
    implementation: ``take`` snapshots the current graph through
    :class:`~repro.faults.recovery.RoundCheckpoint` (buddy-replicated
    edge blocks + MST-record lengths + RNG streams), and a restore swaps
    the rebuilt graph back in for the replay.
    """

    label = "boruvka"
    divergence_error = "distributed Borůvka exceeded max_rounds"

    def __init__(self, graph: DistGraph, run: MSTRun):
        self.graph = graph
        self.run = run
        machine = graph.machine
        cfg = run.cfg
        # "By choosing the size threshold >= p, we take into account that
        # up to p-1 shared vertices are not contracted in our distributed
        # Borůvka rounds" (Section IV) -- below p the loop could stall on a
        # remainder of shared vertices, so p is enforced as a floor.
        self.threshold = max(cfg.base_case_factor * machine.n_procs,
                             cfg.base_case_min, machine.n_procs)

    def prologue(self, round_no: int) -> Optional[RoundStats]:
        """Base-case threshold check (the two termination collectives)."""
        n_edges = self.graph.global_edge_count()
        if n_edges == 0:
            return None
        n_vertices = global_vertex_count(self.graph, self.run)
        if n_vertices <= self.threshold:
            return None
        return RoundStats(n_vertices, n_edges)

    def round(self, round_no: int) -> bool:
        """MINEDGES -> CONTRACT -> EXCHANGE -> RELABEL -> REDISTRIBUTE."""
        graph, run = self.graph, self.run
        machine = graph.machine
        with machine.phase("min_edges"):
            chosen = min_edges(graph)
        with machine.phase("contraction"):
            labels = contract_components(graph, chosen, run)
        state = (graph, chosen.vids, labels, chosen.voff)
        with machine.phase("label_exchange"):
            push = exchange_labels(*state, run)
        with machine.phase("relabel"):
            relabelled = relabel(*state, push, run)
        del chosen, state, push
        with machine.phase("redistribute"):
            self.graph = redistribute(run, machine, *relabelled)
        return False  # convergence is the prologue's threshold check

    # -- CheckpointableState ------------------------------------------
    def checkpoint_state(self) -> "BoruvkaRoundBody":
        """Borůvka rounds are always replayable: the body is its state."""
        return self

    def take(self, run: MSTRun) -> "_GraphRestore":
        """Buddy-replicate the current edge partition (RoundCheckpoint)."""
        from ..faults.recovery import RoundCheckpoint

        return _GraphRestore(self, RoundCheckpoint.take(self.graph, run))


class _GraphRestore:
    """Checkpoint handle swapping the restored graph into the body."""

    def __init__(self, body: BoruvkaRoundBody, ckpt):
        self.body = body
        self.ckpt = ckpt

    def restore(self, run: MSTRun, failed: np.ndarray) -> None:
        """Swap the rebuilt post-recovery graph back into the body."""
        self.body.graph = self.ckpt.restore(run, failed)


def boruvka_rounds(graph: DistGraph, run: MSTRun) -> DistGraph:
    """The distributed Borůvka main loop (without preprocessing/base case).

    A thin wrapper driving :class:`BoruvkaRoundBody` through the unified
    :class:`~repro.core.rounds.RoundScheduler`, which owns the round
    lifecycle: observability hooks, sanitizer checkpoints, fault brackets
    and round counting.  When a fault injector with fail-stop events is
    attached (``machine.faults``, see docs/faults.md), every round is
    bracketed by a :class:`~repro.faults.RoundCheckpoint`: the round input
    is replicated to buddy PEs before the round, a failure heartbeat is
    polled at the round barrier, and on a fail-stop the checkpoint is
    restored and the round replayed -- with the RNG streams rolled back,
    so the replay recomputes exactly the same contraction (the
    bit-identical-MST recovery invariant).  Replays do not consume
    ``max_rounds`` budget; they are bounded by the schedule's
    ``max_replays`` instead.
    """
    body = BoruvkaRoundBody(graph, run)
    RoundScheduler(run, run.cfg.max_rounds).run_rounds(body)
    return body.graph


def redistribute_mst(run: MSTRun, snapshot: InputSnapshot) -> List[Edges]:
    """REDISTRIBUTEMST: send (id, w) records home; look up original endpoints.

    The exchange is charged from its (PE, home) count matrix; the host
    reads every endpoint with one gather at the ids.  Returns every PE's
    MSF edges, sorted by id, as views of one block.
    """
    machine = run.machine
    p = machine.n_procs
    recs = RaggedArrays.from_arrays([run.collected(i) for i in range(p)])
    rec = recs.flat
    ids = rec[:, 0]
    home = np.searchsorted(snapshot.offsets, ids, side="right") - 1
    order, counts = route_plan(recs.segment_ids(), home, p, p)
    account(run.comm, run.cfg.alltoall, rec, counts,
            lambda: SendBlock(rec, order))
    # Paper accounting: the compressed copy is decoded twice.
    machine.charge_scan(2 * np.diff(snapshot.offsets), ranks=np.arange(p))
    by_id = np.argsort(ids, kind="stable")
    ids = ids[by_id]
    src = snapshot.edges
    w = src.w[ids]
    if not np.array_equal(w, rec[by_id, 1]):
        raise RuntimeError("MST edge weight mismatch during output")
    msf = Edges(src.u[ids].astype(np.int64, copy=False),
                src.v[ids].astype(np.int64, copy=False), w, ids)
    return split_edges(msf, np.searchsorted(ids, snapshot.offsets))


def distributed_boruvka(
    graph: DistGraph,
    cfg: Optional[BoruvkaConfig] = None,
) -> MSTResult:
    """Run Algorithm 1 end to end on a distributed graph.

    The input graph object is consumed (parts are re-distributed).  Returns
    the per-PE MSF with original endpoints, total weight and timings.
    """
    machine = graph.machine
    cfg = cfg or BoruvkaConfig()
    run = MSTRun(machine, cfg)
    snapshot = InputSnapshot.take(graph)

    if cfg.local_preprocessing:
        with machine.phase("local_preprocessing"):
            graph = local_preprocessing(graph, run)
    graph = boruvka_rounds(graph, run)
    with machine.phase("base_case"):
        base_case(graph, run)
    return mst_output(run, snapshot, "boruvka", run.rounds)


def mst_output(run: MSTRun, snapshot: InputSnapshot, algorithm: str,
               rounds: int) -> MSTResult:
    """Every MSF driver's tail: REDISTRIBUTEMST (phase ``mst_output``), the
    total-weight allreduce and the result record."""
    machine = run.machine
    with machine.phase("mst_output"):
        msf_parts = redistribute_mst(run, snapshot)
    total = int(run.comm.allreduce([int(part.w.sum())
                                    for part in msf_parts]))
    return MSTResult(
        msf_parts=msf_parts,
        total_weight=total,
        elapsed=machine.elapsed(),
        phase_times=dict(machine.phase_times),
        rounds=rounds,
        algorithm=algorithm,
        stats={
            "bytes_communicated": machine.bytes_communicated,
            "n_collectives": machine.n_collectives,
        },
    )
