"""The kernel metrics sink: where the machine-less segmented kernels report
their invocation counts and host time (docs/observability.md)."""

from __future__ import annotations

#: Metrics registry receiving kernel invocation counts/host time, or None.
_KERNEL_SINK = None


def set_kernel_sink(registry) -> None:
    """Attach a :class:`~repro.obs.metrics.MetricsRegistry` as kernel sink.

    The segmented kernels are module-level functions with no machine handle,
    so per-kernel stats (invocation counts and host wall time) flow through
    this process-global sink instead.  A traced ``Machine`` installs its
    registry on construction; when several traced machines coexist the
    last-created one wins, which is fine for the intended single-run
    profiling workflow.  Pass ``None`` to detach.
    """
    global _KERNEL_SINK
    _KERNEL_SINK = registry


def kernel_sink():
    """The currently attached kernel metrics sink (or ``None``)."""
    return _KERNEL_SINK


def record_kernel(name: str, host_seconds: float) -> None:
    """Record one kernel invocation into the attached sink, if any."""
    sink = _KERNEL_SINK
    if sink is not None:
        sink.counter(f"kernel/{name}/calls").inc()
        sink.counter(f"kernel/{name}/host_seconds").inc(host_seconds)
