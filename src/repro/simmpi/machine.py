"""The simulated distributed-memory machine.

A :class:`Machine` models ``n_procs`` MPI processes, each with ``threads``
OpenMP threads (so ``cores = n_procs * threads``).  The *unit of distribution*
is the MPI process -- exactly as in the paper, where the graph is
1D-partitioned over MPI processes and threads only accelerate local work.

Simulation semantics
--------------------
* Each process ("PE" throughout, matching the paper's terminology) owns local
  numpy state managed by the algorithms, never touched directly by other PEs.
* Every data movement between PEs goes through :mod:`repro.simmpi.collectives`
  or :mod:`repro.simmpi.alltoall`, which really move the data between per-PE
  buffers *and* charge simulated time to per-PE clocks using the
  :class:`~repro.simmpi.costmodel.CostModel`.
* Local computation is charged explicitly via :meth:`Machine.charge`.

The machine also provides:

* **Phase timers** (:meth:`phase`) that attribute elapsed simulated time to
  named algorithm phases -- the data behind the paper's Fig. 6 breakdown.
* **Memory accounting** (:meth:`check_memory`): when a per-PE memory limit is
  configured, exceeding it raises :class:`SimulatedOutOfMemory`.  The paper's
  competitors crash / cannot process some configurations for exactly this
  reason (Section VII), and the benchmark harness reproduces that behaviour.
* **Per-PE deterministic RNGs** (:meth:`pe_integers`) so simulated runs are
  exactly reproducible.  The ``p`` streams live in one
  :class:`~repro.simmpi.streams.PEStreams` (numpy's PCG64 over limb arrays),
  so a draw for every PE of a level is one call.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, Optional

import numpy as np

from .costmodel import CostModel
from .streams import PEStreams


def simsan_env_enabled() -> bool:
    """Whether the ``REPRO_SIMSAN`` environment variable requests simsan."""
    value = os.environ.get("REPRO_SIMSAN", "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


#: Environment variables that used to pick an execution path or a storage
#: width.  A set value must not silently run the one path that is left.
RETIRED_ENV = ("REPRO_ENGINE", "REPRO_KERNELS", "REPRO_DTYPES")


def reject_retired_env() -> None:
    """Raise ``ValueError`` for a set, non-empty retired variable."""
    for name in RETIRED_ENV:
        if os.environ.get(name, "").strip():
            raise ValueError(
                f"{name} is retired and selects nothing: there is one "
                f"execution path and one dtype policy; the per-PE reference "
                f"loops and the wide-dtype mode now live under tests/ as "
                f"oracles (docs/kernels.md) -- unset {name}")


def trace_events_env_enabled() -> bool:
    """Whether the ``REPRO_TRACE`` environment variable requests tracing."""
    from ..obs.tracer import trace_env_enabled

    return trace_env_enabled()


class SimulatedOutOfMemory(RuntimeError):
    """Raised when a PE would exceed its configured memory limit.

    Mirrors the crashes / out-of-memory failures the paper reports for the
    competitor codes on large configurations (Section VII-A/B).
    """

    def __init__(self, pe: int, requested_bytes: float, limit_bytes: float):
        self.pe = pe
        self.requested_bytes = requested_bytes
        self.limit_bytes = limit_bytes
        super().__init__(
            f"PE {pe} requested {requested_bytes / 1e6:.1f} MB "
            f"(limit {limit_bytes / 1e6:.1f} MB)"
        )


class Machine:
    """A simulated distributed-memory machine with per-PE clocks.

    Parameters
    ----------
    n_procs:
        Number of MPI processes (PEs).  Local graph data is partitioned over
        these.
    threads:
        OpenMP threads per process.  ``cores = n_procs * threads``.  Threads
        accelerate local computation per the cost model's thread model but do
        not change the distribution.
    cost:
        Machine constants; defaults to :class:`CostModel`'s calibration.
    memory_limit_bytes:
        Optional per-PE memory budget.  ``None`` disables accounting.
    seed:
        Base seed for the per-PE RNG streams (:meth:`pe_integers`).
    trace:
        Record a per-pair communication matrix (see repro.simmpi.trace).
    sanitize:
        Attach the runtime invariant checker (see repro.simmpi.sanitizer).
        ``None`` (the default) defers to the ``REPRO_SIMSAN`` environment
        variable; pass ``True``/``False`` to force it on/off.
    trace_events:
        Attach the structured event tracer and metrics registry (see
        repro.obs and docs/observability.md).  ``None`` (the default)
        defers to the ``REPRO_TRACE`` environment variable; pass
        ``True``/``False`` to force it on/off.  Tracing never perturbs
        simulated time: clocks, cost charging, RNG streams and sanitizer
        behaviour are bit-for-bit identical with tracing on and off.
    faults:
        Attach the fault-injection and recovery subsystem (see
        repro.faults and docs/faults.md).  ``None`` (the default) defers
        to the ``REPRO_FAULTS`` environment variable; pass a spec string
        (e.g. ``"seed=7,pe_fail=0.05"``), a parsed
        :class:`~repro.faults.FaultSchedule`, or ``False`` to force it
        off.  With no subsystem attached -- or an attached one whose
        schedule injects nothing -- simulated times are bit-for-bit
        identical to a machine without the knob.
    """

    def __init__(
        self,
        n_procs: int,
        threads: int = 1,
        cost: Optional[CostModel] = None,
        memory_limit_bytes: Optional[float] = None,
        seed: int = 0,
        trace: bool = False,
        sanitize: Optional[bool] = None,
        trace_events: Optional[bool] = None,
        faults=None,
    ):
        if n_procs < 1:
            raise ValueError(f"n_procs must be >= 1, got {n_procs}")
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        reject_retired_env()
        self.n_procs = int(n_procs)
        self.threads = int(threads)
        self.cost = cost if cost is not None else CostModel()
        self.memory_limit_bytes = memory_limit_bytes
        self.seed = int(seed)
        #: Per-PE simulated clocks in seconds.
        self.clock = np.zeros(self.n_procs, dtype=np.float64)
        #: Accumulated simulated seconds per named phase (max over PEs of the
        #: per-PE deltas accumulated while the phase was active).
        self.phase_times: Dict[str, float] = {}
        #: Per-PE accumulated phase times (phase -> array of length n_procs).
        self.phase_times_per_pe: Dict[str, np.ndarray] = {}
        self._phase_stack: list[tuple[str, np.ndarray]] = []
        #: Total bytes moved between PEs (diagnostic).
        self.bytes_communicated = 0.0
        #: Total number of collective operations issued (diagnostic).
        self.n_collectives = 0
        self._streams = PEStreams(self.n_procs, self.seed)
        #: Optional per-pair communication trace (see repro.simmpi.trace).
        if trace:
            from .trace import CommTrace

            self.trace: Optional["CommTrace"] = CommTrace(self.n_procs)
        else:
            self.trace = None
        if sanitize is None:
            sanitize = simsan_env_enabled()
        if sanitize:
            from .sanitizer import Sanitizer

            self.sanitizer: Optional["Sanitizer"] = Sanitizer(self)
        else:
            self.sanitizer = None
        if trace_events is None:
            trace_events = trace_events_env_enabled()
        if trace_events:
            from ..kernels.engine import set_kernel_sink
            from ..obs import EventTracer, MetricsRegistry

            #: Structured event ring buffer (None when tracing is off).
            self.events: Optional["EventTracer"] = EventTracer(self.n_procs)
            #: Metrics registry (None when tracing is off).
            self.metrics: Optional["MetricsRegistry"] = MetricsRegistry()
            # Ring-buffer overwrites surface as a trace/dropped_events
            # counter so truncation is visible in metrics exports too.
            self.events.attach_metrics(self.metrics)
            # Segmented kernels report invocation counts / host time to the
            # most recently created traced machine (docs/observability.md).
            set_kernel_sink(self.metrics)
        else:
            self.events = None
            self.metrics = None
        from ..kernels.pool import BufferPool, set_active_pool

        #: Per-machine scratch-buffer arena for the batched kernels
        #: (docs/kernels.md): kernels driven by the most recently created
        #: machine recycle this machine's blocks, and the whole arena dies
        #: with the machine instead of accreting in a process-global pool.
        self.pool = BufferPool()
        if self.metrics is not None:
            self.pool.attach_sink(self.metrics)
        set_active_pool(self.pool)
        if faults is None:
            from ..faults.schedule import faults_env_spec

            faults = faults_env_spec()
        if faults is None or faults is False:
            #: Fault injector (None when the fault subsystem is off).
            self.faults = None
        else:
            from ..faults import FaultInjector, FaultSchedule

            if isinstance(faults, str):
                faults = FaultSchedule.parse(faults)
            elif not isinstance(faults, FaultSchedule):
                raise TypeError(
                    f"faults= takes a spec string, a FaultSchedule or "
                    f"False, got {faults!r}")
            self.faults = FaultInjector(self, faults)

    @property
    def faulting(self) -> bool:
        """Whether the fault-injection subsystem is attached."""
        return self.faults is not None

    @property
    def sanitizing(self) -> bool:
        """Whether the runtime invariant checker is attached."""
        return self.sanitizer is not None

    @property
    def tracing(self) -> bool:
        """Whether the structured event tracer is attached."""
        return self.events is not None

    def on_pe(self, rank: int):
        """Context manager executing the block as PE ``rank``.

        Under the sanitizer, PE ``rank``'s registered arrays become
        writeable for the duration and writes to any *other* PE's arrays
        raise :class:`~repro.simmpi.sanitizer.DistributionViolation`.
        Without the sanitizer this is a no-op context.
        """
        if self.sanitizer is None:
            return nullcontext()
        return self.sanitizer.on_pe(rank)

    def checkpoint(self, label: str = "") -> None:
        """Sanitizer checkpoint: assert per-PE clock monotonicity here."""
        if self.sanitizer is not None:
            self.sanitizer.checkpoint(label)

    def record_comm(self, counts_matrix: np.ndarray, row_bytes: float) -> None:
        """Record one exchange's per-pair volume when tracing is enabled."""
        if self.trace is not None:
            self.trace.record(np.asarray(counts_matrix, dtype=np.float64)
                              * row_bytes)

    # ------------------------------------------------------------------
    # Basic properties.
    # ------------------------------------------------------------------
    @property
    def cores(self) -> int:
        """Total hardware cores modelled (processes x threads)."""
        return self.n_procs * self.threads

    def elapsed(self) -> float:
        """Simulated makespan so far: the maximum over all PE clocks."""
        return float(self.clock.max())

    def reset(self) -> None:
        """Zero all clocks, phase timers, diagnostics and RNG streams.

        After a reset the machine reproduces a run bit-for-bit: the per-PE
        streams restart from the original seed.
        """
        self.clock[:] = 0.0
        self.phase_times.clear()
        self.phase_times_per_pe.clear()
        self._phase_stack.clear()
        self.bytes_communicated = 0.0
        self.n_collectives = 0
        self._streams.clear()
        self.pool.clear()
        if self.trace is not None:
            self.trace.reset()
        if self.sanitizer is not None:
            self.sanitizer.reset()
        if self.events is not None:
            self.events.reset()
        if self.metrics is not None:
            self.metrics.reset()
        if self.faults is not None:
            self.faults.reset()

    def pe_integers(self, ranks, high, size) -> np.ndarray:
        """``integers(0, high[i], size[i])`` from PE ``ranks[i]``'s stream,
        for every listed PE at once, concatenated in list order.

        Bit for bit what PE ``r``'s ``np.random.default_rng(SeedSequence(
        entropy=seed, spawn_key=(r,)))`` would return and leave behind
        (:mod:`repro.simmpi.streams`); ``high`` may not exceed ``2^32``.
        """
        return self._streams.integers(ranks, high, size)

    def rng_snapshot(self) -> Dict[int, dict]:
        """numpy-format states of every per-PE stream drawn from so far.

        The round checkpoints of the fault-recovery subsystem capture this
        so a replayed round draws exactly what the failed attempt drew
        (pivot selection, sample sort) -- the property that makes a
        recovered run's MST bit-identical to the fault-free run's.
        """
        return self._streams.snapshot()

    def rng_restore(self, snapshot: Dict[int, dict]) -> None:
        """Reset the per-PE RNG streams to a :meth:`rng_snapshot`.

        Streams not present in the snapshot restart from their seeded
        origin -- exactly their state at snapshot time.
        """
        self._streams.restore(snapshot)

    # ------------------------------------------------------------------
    # Time accounting.
    # ------------------------------------------------------------------
    def charge(self, seconds, ranks: Optional[np.ndarray] = None) -> None:
        """Advance clocks by ``seconds`` (scalar or per-rank array).

        ``ranks`` restricts the charge to a PE subset (used by sub-group
        collectives); by default all PEs are charged.
        """
        if self.sanitizer is not None:
            self.sanitizer.on_charge(seconds, ranks)
        if ranks is None:
            self.clock += seconds
        else:
            self.clock[ranks] += seconds

    def charge_scan(self, elements, ranks: Optional[np.ndarray] = None) -> None:
        """Charge a thread-parallel linear pass of ``elements`` per PE."""
        elements = np.asarray(elements, dtype=np.float64)
        self.charge(self.cost.c_scan * elements
                    / self.cost.effective_threads(self.threads), ranks)

    def charge_sort(self, elements, ranks: Optional[np.ndarray] = None) -> None:
        """Charge a thread-parallel local sort of ``elements`` per PE."""
        elements = np.asarray(elements, dtype=np.float64)
        levels = np.log2(np.maximum(elements, 2.0))
        self.charge(self.cost.c_sort * elements * levels
                    / self.cost.effective_threads(self.threads), ranks)

    def charge_hash(self, operations, ranks: Optional[np.ndarray] = None) -> None:
        """Charge thread-parallel hash-table operations per PE."""
        operations = np.asarray(operations, dtype=np.float64)
        self.charge(self.cost.c_hash * operations
                    / self.cost.effective_threads(self.threads), ranks)

    def barrier(self, ranks: Optional[np.ndarray] = None) -> None:
        """Synchronise clocks of ``ranks`` (default: all) to their maximum."""
        if ranks is None:
            self.clock[:] = self.clock.max() + self.cost.collective_tree(
                self.n_procs, 0
            )
        else:
            size = len(ranks)
            self.clock[ranks] = self.clock[ranks].max() + self.cost.collective_tree(
                size, 0
            )

    # ------------------------------------------------------------------
    # Phase timers (Fig. 6 data).
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute simulated time spent inside the block to phase ``name``.

        Nested phases attribute time to the innermost phase only, mirroring
        the exclusive phase accounting of the paper's Fig. 6.
        """
        # Freeze outer phase: record its partial delta before switching.
        if self._phase_stack:
            outer_name, outer_start = self._phase_stack[-1]
            self._accumulate(outer_name, self.clock - outer_start)
        self._phase_stack.append((name, self.clock.copy()))
        if self.events is not None:
            self.events.push_phase(name, self.clock)
        try:
            yield
        finally:
            _, start = self._phase_stack.pop()
            self._accumulate(name, self.clock - start)
            if self._phase_stack:
                # Restart outer phase's window from now.
                outer_name, _ = self._phase_stack[-1]
                self._phase_stack[-1] = (outer_name, self.clock.copy())
            if self.events is not None:
                self.events.pop_phase(name, self.clock)

    @contextmanager
    def span(self, name: str, cat: str = "span") -> Iterator[None]:
        """Trace a per-PE span over the block without phase accounting.

        Sub-phase instrumentation (sorting dispatch, kernel batches):
        opens one span per PE at its current clock on entry and closes it
        on exit.  A no-op when event tracing is off -- in particular it
        never touches clocks or phase timers.
        """
        ev = self.events
        if ev is None:
            yield
            return
        ev.begin_ranks(name, self.clock, cat=cat)
        try:
            yield
        finally:
            ev.end_ranks(name, self.clock, cat=cat)

    def _accumulate(self, name: str, delta: np.ndarray) -> None:
        per_pe = self.phase_times_per_pe.setdefault(
            name, np.zeros(self.n_procs, dtype=np.float64)
        )
        per_pe += delta
        self.phase_times[name] = float(per_pe.max())

    # ------------------------------------------------------------------
    # Memory accounting.
    # ------------------------------------------------------------------
    def check_memory(self, per_pe_bytes) -> None:
        """Raise :class:`SimulatedOutOfMemory` if any PE exceeds the limit.

        ``per_pe_bytes`` is a scalar or an array of length ``n_procs`` giving
        the current (or about-to-be-allocated) resident bytes per PE.
        """
        if self.memory_limit_bytes is None:
            return
        per_pe_bytes = np.atleast_1d(np.asarray(per_pe_bytes, dtype=np.float64))
        worst = int(np.argmax(per_pe_bytes))
        if per_pe_bytes[worst] > self.memory_limit_bytes:
            raise SimulatedOutOfMemory(
                worst, float(per_pe_bytes[worst]), float(self.memory_limit_bytes)
            )

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the buffer pool's parked blocks.

        The pool is the only host resource a machine holds.  A closed
        machine remains usable: the pool refills on the next use.
        """
        self.pool.clear()

    def __enter__(self) -> "Machine":
        """Context-manager entry: the machine itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Machine(n_procs={self.n_procs}, threads={self.threads}, "
            f"cores={self.cores}, elapsed={self.elapsed():.6f}s)"
        )
