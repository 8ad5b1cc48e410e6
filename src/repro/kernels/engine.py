"""Execution-path selection: two paths, one selector (docs/kernels.md).

Every rewritten hot path exists twice: ``batched`` (the default, and the
production path) runs all PEs' data through the flat segmented kernels of
this package in single numpy passes; ``inprocess`` runs the original per-PE
reference loops, which the differential tests use as their oracle.  The two
are bit-identical in every simulated quantity.  One validated name picks
the path for a machine: ``Machine(engine=...)``, else ``REPRO_ENGINE``,
else ``batched``; ``machine.engine`` is that name.
"""

from __future__ import annotations

import os
from typing import Optional

#: Engine names accepted by ``REPRO_ENGINE`` and ``Machine(engine=...)``.
ENGINE_NAMES = ("inprocess", "batched")


def resolve_engine(spec: Optional[str] = None) -> str:
    """The validated engine name for ``spec`` (``None``: the environment).

    Raises ``ValueError`` for a name outside :data:`ENGINE_NAMES` and for a
    *set* ``REPRO_KERNELS`` -- the retired spelling of this choice, which
    must not silently select the default path.
    """
    if os.environ.get("REPRO_KERNELS", "").strip():
        raise ValueError(
            "REPRO_KERNELS is retired; set REPRO_ENGINE=inprocess|batched "
            "instead (loop -> inprocess)")
    source = "engine"
    if spec is None:
        source = "REPRO_ENGINE"
        spec = os.environ.get("REPRO_ENGINE", "").strip() or "batched"
    name = str(spec).strip().lower()
    if name not in ENGINE_NAMES:
        raise ValueError(
            f"{source} must be one of {ENGINE_NAMES}, got {spec!r}")
    return name


def batched_for(machine) -> bool:
    """Whether dispatch sites should take the batched path for ``machine``.

    ``machine.engine`` is the name resolved at construction; objects
    without one (plain test doubles) resolve the environment default.
    """
    engine = getattr(machine, "engine", None)
    if engine is None:
        engine = resolve_engine()
    return engine == "batched"


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
