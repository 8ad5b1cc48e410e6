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

from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import Edges
from ..simmpi.alltoall import route_rows
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
    """Every PE's initial edge block, for the MST output's id lookups.

    The paper keeps a varint-compressed copy and decodes it twice (Section
    VI-C); :func:`redistribute_mst` charges both decodes.  The host holds
    the parts by reference instead: the caller keeps the input graph alive
    for the whole run and nothing writes ``u``/``v``/``w`` in place.
    """

    parts: List[Edges]
    id_starts: np.ndarray  # global id range starts per PE (+ total sentinel)

    @classmethod
    def take(cls, graph: DistGraph) -> "InputSnapshot":
        """Reference every PE's initial edge block and record id ranges."""
        starts = []
        next_start = 0
        for part in graph.parts:
            starts.append(next_start)
            if len(part):
                ids = part.id
                if not (ids.min() == next_start
                        and ids.max() == next_start + len(ids) - 1):
                    raise ValueError(
                        "edge ids must form contiguous per-PE ranges "
                        "(use DistGraph.from_global_edges or a generator)"
                    )
                next_start += len(ids)
        starts.append(next_start)
        return cls(list(graph.parts), np.asarray(starts, dtype=np.int64))


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
        vids = [c.vids for c in chosen]
        with machine.phase("label_exchange"):
            push = exchange_labels(graph, vids, labels, run)
        with machine.phase("relabel"):
            relabelled = relabel(graph, vids, labels, push, run)
        del push  # it holds the round's flat columns
        with machine.phase("redistribute"):
            self.graph = redistribute(run, machine, relabelled)
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
    """REDISTRIBUTEMST: route (id, w) records home; decode original endpoints."""
    machine = run.machine
    p = machine.n_procs
    rows, dests = [], []
    for i in range(p):
        rec = run.collected(i)
        rows.append(rec)
        dests.append(
            np.searchsorted(snapshot.id_starts, rec[:, 0], side="right") - 1
        )
    recv, _, _ = route_rows(run.comm, rows, dests, method=run.cfg.alltoall)
    out: List[Edges] = []
    for i in range(p):
        rec = recv[i]
        part = snapshot.parts[i]
        # Paper accounting: the compressed copy is decoded twice.
        machine.charge_scan(np.array([2 * len(part)]), ranks=np.array([i]))
        if len(rec) == 0:
            out.append(Edges.empty())
            continue
        ids = rec[:, 0]
        local_pos = ids - snapshot.id_starts[i]
        w = part.w[local_pos]
        if not np.array_equal(w, rec[:, 1]):
            raise RuntimeError("MST edge weight mismatch during output")
        order = np.argsort(ids, kind="stable")
        at = local_pos[order]
        out.append(Edges(part.u[at].astype(np.int64, copy=False),
                         part.v[at].astype(np.int64, copy=False),
                         w[order], ids[order]))
    return out


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
    with machine.phase("mst_output"):
        msf_parts = redistribute_mst(run, snapshot)
    weights = [int(part.w.sum()) for part in msf_parts]
    total = int(run.comm.allreduce(weights))
    return MSTResult(
        msf_parts=msf_parts,
        total_weight=total,
        elapsed=machine.elapsed(),
        phase_times=dict(machine.phase_times),
        rounds=run.rounds,
        algorithm="boruvka",
        stats={
            "bytes_communicated": machine.bytes_communicated,
            "n_collectives": machine.n_collectives,
        },
    )
