"""Round-granularity checkpoint/restart for the round scheduler.

When a schedule can fail-stop PEs (``pe_fail`` / ``pe_fail@``), the
unified round loop in :class:`repro.core.rounds.RoundScheduler` brackets
every round of every round-looped driver (Borůvka, Filter-Borůvka's
kernel phase, and the competitors; see docs/rounds.md):

1. before the round, :meth:`RoundCheckpoint.take` snapshots the round's
   input -- each PE's edge block is copied locally and replicated to a
   buddy PE (rank+1 mod p), together with the per-PE MST-record lengths
   and the machine's RNG-stream states.  The copy scan and the buddy
   point-to-point transfers are charged through the cost model and fed to
   the comm trace / sanitizer shadow / metrics like any other exchange;
2. the round runs normally;
3. at the round barrier the injector's heartbeat
   (:meth:`~repro.faults.injector.FaultInjector.poll_pe_failures`) reports
   fail-stopped PEs.  If any: :meth:`RoundCheckpoint.restore` charges the
   detection timeout, re-fetches the failed PEs' partitions from their
   buddies (a replacement PE takes over the failed rank's slot -- the
   simulation keeps the rank numbering), restores the RNG streams,
   truncates the MST records back to the checkpoint, and rebuilds the
   :class:`~repro.dgraph.dist_graph.DistGraph` (whose constructor
   re-issues the metadata allgather -- honest re-communication cost).
   The driver then replays the round.

Because the RNG streams are restored and the injector draws from its own
stream, a replayed round recomputes *exactly* the same edges, labels and
MST records as the failed attempt -- only the clocks differ.  Duplicate
label-sink reports from the replay are value-idempotent (the same
(vertex, root) assignments are applied twice), so Filter-Borůvka's P
array is also bit-identical after recovery.

:class:`RoundCheckpoint` is the Borůvka-shaped instance (edge-block
partitions).  :class:`ArrayCheckpoint` generalises the same protocol to
arbitrary per-PE array state -- Awerbuch-Shiloach's parent-pointer
blocks, MND-MST's subgraphs + contraction maps, distributed Prim's
replicated in-tree flags -- which is what lets the scheduler offer
fail-stop recovery to every round-looped competitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from ..dgraph.edges import Edges
from ..kernels.dtypes import logical_nbytes

#: Bytes per checkpointed edge row: (u, v, w, id) int64 quadruples.
_EDGE_ROW_BYTES = 32.0


@dataclass
class RoundCheckpoint:
    """Snapshot of one Borůvka round's input, replicated to buddy PEs."""

    round_no: int
    edges: Edges
    offsets: np.ndarray
    mst_lens: List[int]
    rng_state: Dict[int, dict]

    @classmethod
    def take(cls, graph, run) -> "RoundCheckpoint":
        """Checkpoint the round input and charge its simulated cost.

        Each PE copies its block (a linear scan over the four edge
        columns) and ships it to buddy ``(rank+1) % p`` -- one
        point-to-point message each way per PE, bulk-synchronous like
        every other exchange in the simulator.
        """
        from ..simmpi.alltoall import _record_trace

        machine = graph.machine
        p = machine.n_procs
        sizes = np.diff(graph.offsets).astype(np.float64)
        send_bytes = sizes * _EDGE_ROW_BYTES
        recv_bytes = send_bytes[(np.arange(p) - 1) % p]
        cm = machine.cost
        cost = (cm.c_scan * 4.0 * sizes / cm.effective_threads(machine.threads)
                + cm.p2p(send_bytes) + cm.p2p(recv_bytes))
        counts = np.zeros((p, p), dtype=np.int64)
        counts[np.arange(p), (np.arange(p) + 1) % p] = sizes.astype(np.int64)
        machine.bytes_communicated += float(send_bytes.sum())
        _record_trace(run.comm, counts, _EDGE_ROW_BYTES,
                      op="faults/checkpoint")
        run.comm._sync_and_charge(cost, op="faults/checkpoint",
                                  nbytes=float(send_bytes.sum()))
        return cls(
            round_no=run.rounds,
            edges=graph.edges.copy(),
            offsets=graph.offsets,
            mst_lens=[len(lst) for lst in run.mst_ids],
            rng_state=machine.rng_snapshot(),
        )

    def restore(self, run, failed: np.ndarray):
        """Roll the run back to this checkpoint after ``failed`` PEs died.

        Returns the rebuilt :class:`~repro.dgraph.dist_graph.DistGraph`.
        Recovery cost charged: the detection timeout on every PE, the
        buddy-to-replacement re-fetch of each failed partition, and the
        re-adoption scan on the replacement -- plus the metadata allgather
        the graph constructor issues.
        """
        from ..dgraph.dist_graph import DistGraph
        from ..obs.hooks import observe_recovery
        from ..simmpi.alltoall import _record_trace

        machine = run.machine
        fi = machine.faults
        p = machine.n_procs
        sizes = np.diff(self.offsets).astype(np.float64)
        refetch = np.zeros(p, dtype=np.float64)
        refetch[failed] = sizes[failed] * _EDGE_ROW_BYTES
        buddies = (failed + 1) % p
        sent = np.zeros(p, dtype=np.float64)
        np.add.at(sent, buddies, refetch[failed])
        cm = machine.cost
        readopt = (refetch > 0) * cm.c_scan * 4.0 * sizes
        cost = (fi.schedule.timeout + cm.c_call
                + cm.p2p(sent) + cm.p2p(refetch)
                + readopt / cm.effective_threads(machine.threads))
        counts = np.zeros((p, p), dtype=np.int64)
        counts[buddies, failed] = sizes[failed].astype(np.int64)
        machine.bytes_communicated += float(refetch.sum())
        _record_trace(run.comm, counts, _EDGE_ROW_BYTES, op="faults/refetch")
        run.comm._sync_and_charge(cost, op="faults/refetch",
                                  nbytes=float(refetch.sum()))
        machine.rng_restore(self.rng_state)
        for i, n in enumerate(self.mst_lens):
            del run.mst_ids[i][n:]
        observe_recovery(machine, self.round_no,
                         [int(pe) for pe in np.atleast_1d(failed)])
        # Fresh copies again: the same checkpoint must survive a second
        # restore if the replay fails too.
        return DistGraph(machine, self.edges.copy(), self.offsets,
                         check=False)


@dataclass
class ArrayCheckpoint:
    """Buddy-replicated snapshot of arbitrary per-PE array state.

    The generic sibling of :class:`RoundCheckpoint` for drivers whose
    round state is not an edge partition: ``blocks[i]`` is the list of
    arrays constituting PE ``i``'s round input (parent-pointer vectors,
    contraction maps, replicated flags...).  Checkpoint and restore charge
    the same cost shape as the Borůvka checkpoint -- one linear copy scan
    per PE plus the buddy ``(rank+1) % p`` point-to-point each way, and on
    restore the detection timeout plus the buddy-to-replacement re-fetch
    -- except sized by the arrays' logical bytes
    (:func:`~repro.kernels.dtypes.logical_nbytes`: 8 per integer element
    whatever the storage width, bools 1) instead of the fixed 32-byte edge
    row, so the clock never depends on the host storage dtype.

    ``on_restore`` receives fresh copies of the snapshotted blocks and
    reinstates them (plus any host-side scalars the closure captured) into
    the driver; it may be invoked repeatedly, so implementations must not
    consume the copies they are handed destructively across calls.
    """

    round_no: int
    blocks: List[List[np.ndarray]]
    mst_lens: List[int]
    rng_state: Dict[int, dict]
    on_restore: Callable[[List[List[np.ndarray]]], None]

    @classmethod
    def take(cls, run, blocks: List[List[np.ndarray]],
             on_restore: Callable[[List[List[np.ndarray]]], None]
             ) -> "ArrayCheckpoint":
        """Snapshot per-PE array state and charge its simulated cost."""
        from ..simmpi.alltoall import _record_trace

        machine = run.machine
        p = machine.n_procs
        elems = np.array([sum(len(a) for a in blk) for blk in blocks],
                         dtype=np.float64)
        send_bytes = np.array([float(sum(logical_nbytes(a) for a in blk))
                               for blk in blocks])
        recv_bytes = send_bytes[(np.arange(p) - 1) % p]
        cm = machine.cost
        cost = (cm.c_scan * elems / cm.effective_threads(machine.threads)
                + cm.p2p(send_bytes) + cm.p2p(recv_bytes))
        counts = np.zeros((p, p), dtype=np.int64)
        counts[np.arange(p), (np.arange(p) + 1) % p] = \
            send_bytes.astype(np.int64)
        machine.bytes_communicated += float(send_bytes.sum())
        _record_trace(run.comm, counts, 1.0, op="faults/checkpoint")
        run.comm._sync_and_charge(cost, op="faults/checkpoint",
                                  nbytes=float(send_bytes.sum()))
        return cls(
            round_no=run.rounds,
            blocks=[[np.array(a, copy=True) for a in blk]
                    for blk in blocks],
            mst_lens=[len(lst) for lst in run.mst_ids],
            rng_state=machine.rng_snapshot(),
            on_restore=on_restore,
        )

    def restore(self, run, failed: np.ndarray) -> None:
        """Roll the driver back to this checkpoint after ``failed`` died."""
        from ..obs.hooks import observe_recovery
        from ..simmpi.alltoall import _record_trace

        machine = run.machine
        fi = machine.faults
        p = machine.n_procs
        sizes = np.array([float(sum(logical_nbytes(a) for a in blk))
                          for blk in self.blocks])
        elems = np.array([sum(len(a) for a in blk) for blk in self.blocks],
                         dtype=np.float64)
        refetch = np.zeros(p, dtype=np.float64)
        refetch[failed] = sizes[failed]
        buddies = (failed + 1) % p
        sent = np.zeros(p, dtype=np.float64)
        np.add.at(sent, buddies, refetch[failed])
        cm = machine.cost
        readopt = (refetch > 0) * cm.c_scan * elems
        cost = (fi.schedule.timeout + cm.c_call
                + cm.p2p(sent) + cm.p2p(refetch)
                + readopt / cm.effective_threads(machine.threads))
        counts = np.zeros((p, p), dtype=np.int64)
        counts[buddies, failed] = sizes[failed].astype(np.int64)
        machine.bytes_communicated += float(refetch.sum())
        _record_trace(run.comm, counts, 1.0, op="faults/refetch")
        run.comm._sync_and_charge(cost, op="faults/refetch",
                                  nbytes=float(refetch.sum()))
        machine.rng_restore(self.rng_state)
        for i, n in enumerate(self.mst_lens):
            del run.mst_ids[i][n:]
        observe_recovery(machine, self.round_no,
                         [int(pe) for pe in np.atleast_1d(failed)])
        # Fresh copies: the same checkpoint must survive a second restore
        # if the replay fails too.
        self.on_restore([[np.array(a, copy=True) for a in blk]
                         for blk in self.blocks])
