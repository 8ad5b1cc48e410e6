"""The fault injector: consults a schedule at the machine's choke points.

A :class:`FaultInjector` is attached to a machine as ``machine.faults``
(mirroring ``machine.sanitizer`` / ``machine.events``) and is consulted at
exactly three well-defined points:

``on_collective``
    inside :meth:`Comm._sync_and_charge`, the single choke point every
    collective and all-to-all charges through.  Injects message drops
    (detected by timeout; the operation is retried with exponential
    backoff, each attempt re-charged) and straggler / slow-link slowdowns
    (the drawn ranks' costs are multiplied, so degraded runs produce
    honest alpha+beta*l times).  Returns the adjusted per-rank cost.

``on_exchange``
    in the all-to-all implementations, once per hop, *before* the hop is
    charged.  Adds the checksum-pass overhead for every communicated byte
    and occasionally corrupts one received payload: the hop hands over the
    per-rank payload sizes and a materialiser, a victim is drawn from the
    non-empty ranks, a bit is flipped in a *copy* of its (real) payload,
    the checksum mismatch is verified (genuine detection, see
    :mod:`repro.faults.checksum`), the retransmission is charged, and the
    clean data is delivered -- so the data path of a recovered run stays
    bit-identical to the fault-free run.

``poll_pe_failures``
    at the end of every Borůvka round (heartbeat semantics: fail-stop is
    detected when a PE misses the round barrier).  Returns the PEs that
    failed this round; the driver restores the last round checkpoint and
    replays (see :mod:`repro.faults.recovery`).

All randomness comes from one dedicated RNG stream seeded by the
schedule's seed -- never from the machine's per-PE streams -- so fault
timing never perturbs algorithmic random choices, and a surviving run's
MST is bit-identical to the fault-free run's.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..obs.hooks import observe_fault
from .checksum import buffer_checksum, flip_bit
from .schedule import FaultSchedule


class UnrecoverableFault(RuntimeError):
    """A fault exceeded the configured recovery budget (retries/replays)."""


class FaultInjector:
    """Seed-driven fault injection + recovery accounting for one machine."""

    def __init__(self, machine, schedule: FaultSchedule):
        self.machine = machine
        self.schedule = schedule
        #: Injected/recovered event counts by fault kind (CLI summary).
        self.counts: Dict[str, int] = {}
        self._slow = None
        if schedule.slow_links:
            bad = [pe for pe in schedule.slow_links if pe >= machine.n_procs]
            if bad:
                raise ValueError(
                    f"fault spec: slow_link PE {bad[0]} out of range "
                    f"(machine has {machine.n_procs} PEs)")
            self._slow = np.ones(machine.n_procs, dtype=np.float64)
            for pe, factor in schedule.slow_links.items():
                self._slow[pe] = factor
        self.reset()

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether this injector can produce any fault event at all.

        An inactive injector must be arithmetically invisible: every hook
        returns its cost argument unchanged and draws nothing, which is
        what makes an empty ``REPRO_FAULTS`` schedule bit-identical to no
        fault subsystem (the empty-schedule identity invariant).
        """
        return self.schedule.injects_anything

    @property
    def protects_rounds(self) -> bool:
        """Whether the Borůvka drivers must checkpoint rounds."""
        return self.schedule.protects_rounds

    def reset(self) -> None:
        """Re-arm the injector for a bit-identical rerun (Machine.reset)."""
        self.rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.schedule.seed,
                                   spawn_key=(0xFA117,))
        )
        self.counts.clear()
        self._pending_one_shot = list(self.schedule.pe_fail_at)
        self._replays: Dict[int, int] = {}

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # ------------------------------------------------------------------
    # Hook 1: every collective charge (Comm._sync_and_charge).
    # ------------------------------------------------------------------
    def on_collective(self, op: str, ranks: np.ndarray, per_rank_cost,
                      nbytes: float):
        """Adjust one collective's per-rank cost for injected comm faults.

        Called before the sanitizer validates the charge, so the adjusted
        cost still has to satisfy every cost-accounting invariant (finite,
        strictly positive for all participants) -- slowdowns multiply and
        retries add, so it does by construction.
        """
        sched = self.schedule
        cost = per_rank_cost
        if self._slow is not None:
            cost = np.asarray(cost, dtype=np.float64) * self._slow[ranks]
            # Counted (once per operation touching a slow PE) but not traced:
            # a permanent link degradation on every collective would bury
            # the sporadic fault instants in the exported timeline.
            if (self._slow[ranks] > 1.0).any():
                self._count("slow_link")
        if sched.straggle > 0.0:
            hits = self.rng.random(len(ranks)) < sched.straggle
            if hits.any():
                cost = np.asarray(cost, dtype=np.float64) * np.where(
                    hits, sched.straggle_factor, 1.0)
                self._count("straggle", int(hits.sum()))
                for r in ranks[hits]:
                    observe_fault(self.machine, "straggle", op, rank=int(r))
        if sched.msg_drop > 0.0:
            # Timeout/retry with exponential backoff: every failed attempt
            # costs a full (slowed-down) operation plus the detection
            # timeout, doubled per attempt; all participants wait (the
            # operation is bulk-synchronous, so the retry is too).
            attempt = 0
            while self.rng.random() < sched.msg_drop:
                attempt += 1
                if attempt > sched.retries:
                    raise UnrecoverableFault(
                        f"{op}: message dropped {attempt} times "
                        f"(retries={sched.retries})")
                cost = cost + self.machine.cost.retry(cost, sched.timeout,
                                                      attempt)
                self._count("msg_drop")
                observe_fault(self.machine, "msg_drop",
                              f"{op} attempt {attempt}")
            if attempt:
                self._count("msg_drop_recovered", attempt)
        return cost

    # ------------------------------------------------------------------
    # Hook 2: every all-to-all hop, before it is charged.
    # ------------------------------------------------------------------
    def on_exchange(self, comm, op: str, held_sizes, materialise,
                    row_bytes: float, bytes_out, bytes_in, cost):
        """Checksum overhead + payload corruption for one exchange hop.

        ``cost`` is the hop's per-rank cost array; returns it adjusted.
        ``held_sizes[j]`` is the number of payload elements rank ``j``
        holds after the hop and ``materialise(j)`` builds that payload:
        the all-to-alls account their intermediate hops without moving
        data, so only the one victim of a drawn corruption event is ever
        materialised.  Its bytes are real -- the corrupted copy exists
        only long enough to be detected and discarded.
        """
        sched = self.schedule
        if sched.corrupt <= 0.0:
            return cost
        cm = self.machine.cost
        # Checksum accounting: one linear pass over the payload on the
        # sending side and one on the receiving side of every hop.
        cost = (np.asarray(cost, dtype=np.float64)
                + cm.c_scan * (np.asarray(bytes_out, dtype=np.float64)
                               + np.asarray(bytes_in, dtype=np.float64)))
        if self.rng.random() < sched.corrupt:
            victims = np.flatnonzero(np.asarray(held_sizes) > 0)
            if len(victims):
                j = int(victims[int(self.rng.integers(len(victims)))])
                buf = np.atleast_1d(materialise(j))
                if buf.size != held_sizes[j]:
                    raise RuntimeError(
                        f"{op}: rank {j} holds {buf.size} payload elements "
                        f"but {int(held_sizes[j])} were accounted")
                pos = int(self.rng.integers(buf.size))
                bit = int(self.rng.integers(64))
                clean_sum = buffer_checksum(buf)
                corrupted = flip_bit(buf, pos, bit)
                if buffer_checksum(corrupted) == clean_sum:
                    raise AssertionError(
                        "checksum failed to detect a single-bit flip")
                self._count("corrupt")
                self._count("corrupt_detected")
                observe_fault(self.machine, "corrupt",
                              f"{op} -> rank {j} (bit {bit} of row "
                              f"{pos // max(1, int(row_bytes) // 8)})",
                              rank=int(comm.ranks[j]))
                # Detection timeout + retransmission of the victim's whole
                # incoming payload; bulk-synchronous, so everyone waits.
                resend = cm.p2p(float(np.asarray(bytes_in).reshape(-1)[j]))
                cost = cost + (sched.timeout + resend)
        return cost

    # ------------------------------------------------------------------
    # Hook 3: fail-stop heartbeat at Borůvka round boundaries.
    # ------------------------------------------------------------------
    def poll_pe_failures(self, round_no: int) -> np.ndarray:
        """PEs that fail-stopped during round ``round_no`` (may be empty).

        One-shot ``pe_fail@ROUND:PE`` events fire exactly once (they are
        consumed here, so the replayed round does not re-fail
        deterministically); the ``pe_fail`` rate draws fresh per poll, so
        a replay can fail again -- bounded by the ``max_replays`` budget
        enforced in :meth:`count_replay`.
        """
        failed = [pe for r, pe in self._pending_one_shot if r == round_no]
        self._pending_one_shot = [
            (r, pe) for r, pe in self._pending_one_shot if r != round_no]
        if self.schedule.pe_fail > 0.0:
            draws = self.rng.random(self.machine.n_procs) < self.schedule.pe_fail
            failed.extend(int(pe) for pe in np.flatnonzero(draws))
        if not failed:
            return np.empty(0, dtype=np.int64)
        out = np.unique(np.asarray(failed, dtype=np.int64))
        bad = out[out >= self.machine.n_procs]
        if len(bad):
            raise ValueError(
                f"fault spec: pe_fail@ names PE {int(bad[0])} but the "
                f"machine has {self.machine.n_procs} PEs")
        self._count("pe_fail", len(out))
        for pe in out:
            observe_fault(self.machine, "pe_fail", f"round {round_no}",
                          rank=int(pe))
        return out

    def count_replay(self, round_no: int) -> None:
        """Enforce the per-round replay budget; called once per replay."""
        n = self._replays.get(round_no, 0) + 1
        self._replays[round_no] = n
        if n > self.schedule.max_replays:
            raise UnrecoverableFault(
                f"round {round_no} replayed {n} times "
                f"(max_replays={self.schedule.max_replays})")
        self._count("round_replay")

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Injected/recovered event counts (stable key order)."""
        return dict(sorted(self.counts.items()))
