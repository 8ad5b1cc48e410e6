"""The unified round scheduler: one fault-tolerant, observable round loop.

Every distributed algorithm in this package -- Algorithm 1's Borůvka loop,
Filter-Borůvka's kernel phase, and the round-looped competitor
reimplementations (sparseMatrix/Awerbuch-Shiloach, MND-MST, distributed
Jarník-Prim) -- shares the same synchronous skeleton: check for
termination, run one bulk-synchronous round of phases, detect faults at
the round barrier, count the round, and guard against divergence.
:class:`RoundScheduler` owns that skeleton exactly once, so the cross-
cutting concerns stay written in one place:

* **observability** -- the :func:`~repro.obs.hooks.observe_round_start` /
  :func:`~repro.obs.hooks.observe_round_end` bracket;
* **sanitizer checkpoints** -- per-round clock-monotonicity assertions via
  :meth:`~repro.simmpi.machine.Machine.checkpoint`;
* **fault brackets** -- when the machine's fault schedule can fail-stop
  PEs, every round is bracketed by a checkpoint taken through the body's
  :class:`CheckpointableState`, a failure heartbeat is polled at the round
  barrier, and on a fail-stop the checkpoint is restored and the round
  replayed with the replay budget enforced (see docs/faults.md);
* **round counting** -- the canonical zero-based round ids
  (``run.rounds``) every driver reports, and the per-invocation
  ``max_rounds`` divergence guard (replays never consume it).

Drivers are reduced to a :class:`RoundBody`: a termination pre-check
(:meth:`RoundBody.prologue`), one round of work (:meth:`RoundBody.round`),
and -- if the driver supports fail-stop recovery -- a
:meth:`RoundBody.checkpoint_state` returning the driver's
:class:`CheckpointableState`.  See docs/rounds.md for the lifecycle
diagram and how incremental replay / wave scheduling plug in.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Protocol, runtime_checkable

import numpy as np

from ..obs.hooks import observe_round_end, observe_round_start
from .state import MSTRun


class RoundStats(NamedTuple):
    """Host-known size of the problem entering one round.

    Fed to :func:`~repro.obs.hooks.observe_round_start`; the values must be
    numbers the driver already computed for its own control flow --
    recomputing them for observability would issue extra collectives and
    break the tracing-invisibility invariant.
    """

    #: Vertices (or active entities: PEs for MND-MST's merge hierarchy).
    vertices: int
    #: Directed edges still in play.
    edges: int


class RoundCheckpointHandle(Protocol):
    """One taken checkpoint, restorable after a fail-stop.

    Returned by :meth:`CheckpointableState.take`; must survive repeated
    :meth:`restore` calls (a replay can fail again and restore twice).
    """

    def restore(self, run: MSTRun, failed: np.ndarray) -> None:
        """Roll the driver's state back; charge honest recovery cost.

        ``failed`` holds the fail-stopped PE ranks.  Implementations charge
        the detection timeout, the buddy-to-replacement re-fetch and any
        re-adoption work through the cost model, restore the machine RNG
        streams and truncate the MST records -- see
        :class:`repro.faults.recovery.RoundCheckpoint` for the reference
        implementation.
        """


@runtime_checkable
class CheckpointableState(Protocol):
    """What a fail-stop replay must be able to snapshot and restore.

    A driver that supports round-granularity recovery exposes one of
    these from :meth:`RoundBody.checkpoint_state`.  ``take`` snapshots
    everything a replayed round reads -- the per-PE partition state, the
    MST-record lengths and the machine RNG streams -- replicates it to
    buddy PEs and charges the copy + transfer cost; the returned handle's
    ``restore`` undoes the failed round.  Drivers whose state cannot be
    replayed return ``None`` from :meth:`RoundBody.checkpoint_state`
    instead, and the scheduler refuses fail-stop schedules up front
    (no silent no-op recovery).
    """

    def take(self, run: MSTRun) -> RoundCheckpointHandle:
        """Snapshot the round input; charge its simulated cost."""


class RoundBody:
    """One driver's per-round work, scheduled by :class:`RoundScheduler`.

    Subclasses implement the three hooks below; the scheduler owns
    everything else (observability, fault brackets, counting, divergence).
    """

    #: Sanitizer-checkpoint label prefix (``{label}_round_{round_no}``).
    label: str = "round"
    #: Error message raised when ``max_rounds`` is exhausted.
    divergence_error: str = "round loop exceeded max_rounds"

    def prologue(self, round_no: int) -> Optional[RoundStats]:
        """Pre-round termination check.

        Returns ``None`` when the loop is done *before* doing any round
        work (Borůvka's threshold check), else the :class:`RoundStats`
        entering the round.  Any collectives needed for the decision are
        issued here, every round -- including before a replayed round, so
        a replay re-communicates exactly like the original attempt.
        """
        raise NotImplementedError

    def round(self, round_no: int) -> bool:
        """Execute one round; return True when it detected convergence.

        A ``True`` return still counts the round (the work and its
        collectives happened; this is the canonical convention satellite
        drivers like Awerbuch-Shiloach's detection iteration follow).
        """
        raise NotImplementedError

    def checkpoint_state(self) -> Optional[CheckpointableState]:
        """The driver's replay snapshot source, or ``None`` if unsupported.

        Only consulted when the machine's fault schedule can fail-stop
        PEs.  Returning ``None`` makes the scheduler raise
        :class:`UnsupportedFaultSchedule` instead of silently running a
        schedule it cannot recover from.
        """
        return None


class UnsupportedFaultSchedule(RuntimeError):
    """A fail-stop schedule was attached to a driver that cannot replay."""


class RoundScheduler:
    """Drives a :class:`RoundBody` through the unified round lifecycle.

    One scheduler instance corresponds to one loop invocation: its
    ``max_rounds`` budget is per-invocation (Filter-Borůvka's kernel phase
    constructs a fresh scheduler per recursion base case while the
    canonical round ids in ``run.rounds`` keep counting across them).

    Per round, in order:

    1. ``body.prologue`` -- termination pre-check (may issue collectives);
    2. fault checkpoint via ``body.checkpoint_state().take`` (only when
       the schedule can fail-stop PEs), under the ``fault_checkpoint``
       phase;
    3. ``observe_round_start`` -- observability;
    4. ``body.round`` -- the driver's phases;
    5. heartbeat poll at the round barrier; on fail-stop: enforce the
       replay budget, restore under the ``fault_recovery`` phase, and
       replay from step 1 without consuming ``max_rounds``;
    6. sanitizer checkpoint, ``observe_round_end``, round count.
    """

    def __init__(self, run: MSTRun, max_rounds: int):
        self.run = run
        self.machine = run.machine
        self.max_rounds = max_rounds

    def run_rounds(self, body: RoundBody) -> int:
        """Run ``body`` to convergence; returns the number of rounds.

        Raises ``RuntimeError(body.divergence_error)`` when ``max_rounds``
        productive (non-replayed) rounds pass without convergence, and
        :class:`UnsupportedFaultSchedule` when a fail-stop schedule is
        attached but the body cannot checkpoint.
        """
        machine = self.machine
        run = self.run
        fi = machine.faults
        protect = fi is not None and fi.protects_rounds
        state = body.checkpoint_state() if protect else None
        if protect and state is None:
            raise UnsupportedFaultSchedule(
                f"fault schedule {fi.schedule!r} can fail-stop PEs but the "
                f"{body.label!r} round body does not support "
                f"checkpoint/replay; run it without pe_fail events")
        rounds_done = 0
        while rounds_done < self.max_rounds:
            stats = body.prologue(run.rounds)
            if stats is None:
                return rounds_done
            ckpt = None
            if state is not None:
                with machine.phase("fault_checkpoint"):
                    ckpt = state.take(run)
            # Both stats were needed for control flow anyway; the hooks
            # reuse them so tracing never issues extra collectives.
            observe_round_start(machine, run.rounds, stats.vertices,
                                stats.edges, label=body.label)
            converged = body.round(run.rounds)
            if ckpt is not None:
                failed = fi.poll_pe_failures(run.rounds)
                if len(failed):
                    fi.count_replay(run.rounds)
                    with machine.phase("fault_recovery"):
                        ckpt.restore(run, failed)
                    continue
            machine.checkpoint(f"{body.label}_round_{run.rounds}")
            observe_round_end(machine, run.rounds, label=body.label)
            run.rounds += 1
            rounds_done += 1
            if converged:
                return rounds_done
        raise RuntimeError(body.divergence_error)
