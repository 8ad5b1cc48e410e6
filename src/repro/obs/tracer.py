"""Structured event tracing for the simulated machine.

The tracer records *spans* (begin/end pairs) and *instant* events keyed by
``(phase, round, rank, collective)`` into a bounded ring buffer.  Every
event carries **two clocks**:

* the **simulated** per-PE clock (seconds on the cost-model clocks -- the
  quantity the paper's figures are plotted in), and
* the **host wall clock** (``time.perf_counter`` relative to tracer
  creation -- what the simulator actually costs us).

Events are plain tuples (see :data:`FIELDS`) so recording is a list append:
with tracing disabled the machine holds no tracer at all and every
instrumentation site reduces to one ``is None`` check, which is what makes
the observation layer safe to leave compiled into every hot path.

The hard invariant of the observability subsystem (see
``docs/observability.md``): recording events never touches the machine's
clocks, RNG streams, cost charging or sanitizer state.  Tracing on, off or
unset must leave every simulated quantity bit-for-bit identical.
"""

from __future__ import annotations

import os
import time
from typing import Iterator, List, Optional, Tuple

import numpy as np

#: Field layout of one event tuple.
FIELDS = ("ph", "name", "cat", "rank", "ts_sim", "ts_wall", "round", "phase",
          "value")

#: Default ring-buffer capacity (events); override with ``REPRO_TRACE_CAP``.
DEFAULT_CAPACITY = 1 << 18


def trace_env_enabled() -> bool:
    """Whether the ``REPRO_TRACE`` environment variable requests tracing.

    Mirrors the ``REPRO_SIMSAN`` convention: any value other than the empty
    string, ``0``, ``false``, ``no`` or ``off`` enables event tracing on
    machines created without an explicit ``trace_events=`` argument.
    """
    value = os.environ.get("REPRO_TRACE", "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


def env_capacity(default: int = DEFAULT_CAPACITY) -> int:
    """Ring-buffer capacity from ``REPRO_TRACE_CAP`` (default 2^18 events)."""
    return int(os.environ.get("REPRO_TRACE_CAP", default))


class EventTracer:
    """Bounded ring buffer of structured machine events.

    Parameters
    ----------
    n_procs:
        Number of simulated PEs; every event's ``rank`` must be below it
        (rank ``-1`` denotes machine-global events).
    capacity:
        Maximum number of retained events.  When the buffer is full the
        *oldest* events are overwritten (ring semantics) and
        :attr:`dropped` counts the overwrites, so exporters can flag
        truncated traces instead of silently presenting them as complete.
    """

    def __init__(self, n_procs: int, capacity: Optional[int] = None):
        if capacity is None:
            capacity = env_capacity()
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.n_procs = int(n_procs)
        self.capacity = int(capacity)
        self._buf: List[Tuple] = []
        self._next = 0  # write cursor once the buffer is full
        #: Events overwritten because the ring filled up.
        self.dropped = 0
        self._metrics = None
        self._drop_counter = None
        #: Current algorithm round (set by the drivers; -1 = outside rounds).
        self.round = -1
        #: Innermost active machine phase name (maintained by Machine.phase).
        self.phase: Optional[str] = None
        self._phase_stack: List[str] = []
        self._t0_wall = time.perf_counter()

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def _emit(self, ph: str, name: str, cat: str, rank: int,
              ts_sim: float, ts_wall: float, value: Optional[float] = None
              ) -> None:
        ev = (ph, name, cat, int(rank), float(ts_sim), ts_wall,
              self.round, self.phase, value)
        if len(self._buf) < self.capacity:
            self._buf.append(ev)
        else:
            self._buf[self._next] = ev
            self._next = (self._next + 1) % self.capacity
            self.dropped += 1
            if self._metrics is not None:
                if self._drop_counter is None:
                    self._drop_counter = self._metrics.counter(
                        "trace/dropped_events")
                self._drop_counter.inc()

    def attach_metrics(self, registry) -> None:
        """Mirror ring-buffer drops into a ``trace/dropped_events`` counter.

        The counter is created lazily on the first drop, so complete traces
        export no spurious zero-valued counter; a truncated run's metrics
        dump then carries the loss alongside the trace's own ``dropped``
        field, and table exporters can warn on it.
        """
        self._metrics = registry
        self._drop_counter = None

    def wall(self) -> float:
        """Host seconds since the tracer was created."""
        return time.perf_counter() - self._t0_wall

    def begin(self, name: str, rank: int, ts_sim: float,
              cat: str = "span") -> None:
        """Open a span on one PE's timeline at simulated time ``ts_sim``."""
        self._emit("B", name, cat, rank, ts_sim, self.wall())

    def end(self, name: str, rank: int, ts_sim: float,
            cat: str = "span") -> None:
        """Close the innermost span named ``name`` on one PE's timeline."""
        self._emit("E", name, cat, rank, ts_sim, self.wall())

    def instant(self, name: str, rank: int, ts_sim: float,
                cat: str = "mark") -> None:
        """Record a zero-duration marker on one PE's timeline."""
        self._emit("i", name, cat, rank, ts_sim, self.wall())

    def counter(self, name: str, value: float, ts_sim: float) -> None:
        """Record a machine-global counter sample (Perfetto counter track).

        Counter events ride on rank ``-1`` (the machine-global pseudo
        thread) and are rendered by trace viewers as value-over-time tracks
        -- e.g. surviving vertices per Borůvka round.
        """
        self._emit("C", name, "counter", -1, ts_sim, self.wall(),
                   float(value))

    # ------------------------------------------------------------------
    # Group helpers used by the machine and collectives.
    # ------------------------------------------------------------------
    def begin_ranks(self, name: str, clocks: np.ndarray,
                    ranks: Optional[np.ndarray] = None,
                    cat: str = "span") -> None:
        """Open one span per participating PE at its own clock value."""
        wall = self.wall()
        if ranks is None:
            for r in range(len(clocks)):
                self._emit("B", name, cat, r, float(clocks[r]), wall)
        else:
            for r in ranks:
                self._emit("B", name, cat, int(r), float(clocks[r]), wall)

    def end_ranks(self, name: str, clocks: np.ndarray,
                  ranks: Optional[np.ndarray] = None,
                  cat: str = "span") -> None:
        """Close one span per participating PE at its own clock value."""
        wall = self.wall()
        if ranks is None:
            for r in range(len(clocks)):
                self._emit("E", name, cat, r, float(clocks[r]), wall)
        else:
            for r in ranks:
                self._emit("E", name, cat, int(r), float(clocks[r]), wall)

    def push_phase(self, name: str, clocks: np.ndarray) -> None:
        """Enter a machine phase: open per-PE spans and update the label."""
        self.begin_ranks(name, clocks, cat="phase")
        self._phase_stack.append(name)
        self.phase = name

    def pop_phase(self, name: str, clocks: np.ndarray) -> None:
        """Leave a machine phase: close per-PE spans and restore the label."""
        self.end_ranks(name, clocks, cat="phase")
        if self._phase_stack and self._phase_stack[-1] == name:
            self._phase_stack.pop()
        self.phase = self._phase_stack[-1] if self._phase_stack else None

    def set_round(self, round_no: int) -> None:
        """Tag subsequent events with an algorithm round number."""
        self.round = int(round_no)

    # ------------------------------------------------------------------
    # Access.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buf)

    def events(self) -> Iterator[Tuple]:
        """Retained events in chronological (recording) order."""
        if len(self._buf) < self.capacity or self._next == 0:
            yield from self._buf
        else:
            yield from self._buf[self._next:]
            yield from self._buf[:self._next]

    def reset(self) -> None:
        """Forget all events and labels (mirrors ``Machine.reset``)."""
        self._buf.clear()
        self._next = 0
        self.dropped = 0
        self._drop_counter = None
        self.round = -1
        self.phase = None
        self._phase_stack.clear()
        self._t0_wall = time.perf_counter()
