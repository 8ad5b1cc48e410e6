"""Exporters: Chrome/Perfetto trace JSON, metrics dump, progress table.

Three views of one traced run:

``chrome_trace`` / ``write_chrome_trace``
    The Chrome trace-event JSON format (the ``traceEvents`` array flavour),
    loadable directly in ``ui.perfetto.dev`` or ``chrome://tracing``.  Each
    simulated PE becomes one pseudo-thread of a single process, so a 64-PE
    run opens as 64 parallel timelines; the event timestamps are the
    *simulated* per-PE clocks in microseconds, and the host wall clock of
    every event travels in its ``args`` for wall-vs-simulated triage.

``metrics_to_dict`` / ``write_metrics``
    JSON dump of the metrics registry: counters, gauges, histograms,
    per-round series and per-PE accumulators.

``progress_table``
    ASCII per-round table (vertices/edges surviving, bytes moved, clock
    skew, send imbalance) -- the quick-look companion to the paper's
    Section VII round-shrinkage discussion.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path
from typing import Dict, List, Optional

from .metrics import MetricsRegistry
from .tracer import EventTracer
from .validate import SCHEMA_VERSION

#: pid used for the single simulated-machine process in exported traces.
TRACE_PID = 1
#: tid offset: PE ``r`` maps to tid ``r + 1`` (tid 0 is the machine-global
#: pseudo-thread that carries counter samples and machine-wide marks).
TID_BASE = 1


def _event_json(ev, deterministic: bool = False) -> Dict:
    """One tracer tuple -> one Chrome trace-event object."""
    ph, name, cat, rank, ts_sim, ts_wall, round_, phase, value = ev
    out: Dict = {
        "ph": ph,
        "name": name,
        "cat": cat,
        "pid": TRACE_PID,
        "tid": TID_BASE + rank if rank >= 0 else 0,
        "ts": ts_sim * 1e6,  # simulated seconds -> trace microseconds
    }
    args: Dict = {} if deterministic else {"wall_s": round(ts_wall, 9)}
    if round_ >= 0:
        args["round"] = round_
    if phase is not None and cat != "phase":
        args["phase"] = phase
    if ph == "C":
        args = {name: value}
    elif ph == "i":
        out["s"] = "t"  # instant scope: thread
    out["args"] = args
    return out


def chrome_trace(tracer: EventTracer,
                 metadata: Optional[Dict] = None,
                 deterministic: bool = False) -> Dict:
    """Render a tracer's ring buffer as a Chrome trace-event JSON object.

    The returned dict has a ``traceEvents`` array (metadata events naming
    the process and one thread per PE, then the recorded events in
    chronological order) plus ``otherData`` carrying machine facts and the
    ring-buffer drop count.

    ``deterministic=True`` omits the per-event host wall clock, leaving only
    simulated quantities: two runs of the same seeded workload then export
    byte-identical traces regardless of host load, and identical to the
    per-PE oracle's (the differential tests rely on this; see
    docs/kernels.md).
    """
    events: List[Dict] = [{
        "ph": "M", "name": "process_name", "pid": TRACE_PID, "tid": 0,
        "args": {"name": f"simulated machine (p={tracer.n_procs})"},
    }, {
        "ph": "M", "name": "thread_name", "pid": TRACE_PID, "tid": 0,
        "args": {"name": "machine"},
    }]
    for r in range(tracer.n_procs):
        events.append({
            "ph": "M", "name": "thread_name", "pid": TRACE_PID,
            "tid": TID_BASE + r, "args": {"name": f"PE {r}"},
        })
        events.append({
            "ph": "M", "name": "thread_sort_index", "pid": TRACE_PID,
            "tid": TID_BASE + r, "args": {"sort_index": r},
        })
    events.extend(_event_json(ev, deterministic) for ev in tracer.events())
    if tracer.dropped:
        warnings.warn(
            f"trace ring buffer dropped {tracer.dropped} events (capacity "
            f"{tracer.capacity}); the exported trace is truncated -- raise "
            f"REPRO_TRACE_CAP to keep the full stream", stacklevel=2)
    other = {
        "schema_version": SCHEMA_VERSION,
        "n_procs": tracer.n_procs,
        "n_events": len(tracer),
        "dropped_events": tracer.dropped,
        "time_unit": "simulated microseconds",
    }
    if metadata:
        other.update(metadata)
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": other}


def write_chrome_trace(tracer: EventTracer, path,
                       metadata: Optional[Dict] = None,
                       deterministic: bool = False) -> Path:
    """Write :func:`chrome_trace` output as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(chrome_trace(tracer, metadata, deterministic)) + "\n")
    return path


# ----------------------------------------------------------------------
# Metrics dump.
# ----------------------------------------------------------------------
def _finite(x: float):
    """JSON-safe float: infinities from empty histograms become None."""
    return x if math.isfinite(x) else None


def metrics_to_dict(registry: MetricsRegistry,
                    deterministic: bool = False) -> Dict:
    """Serialise a metrics registry into plain JSON-ready structures.

    ``deterministic=True`` drops the host-wall-clock counters
    (``kernel/*/host_seconds``): everything remaining is a pure function of
    the simulated run, so same-seed runs serialise byte-identically
    (docs/kernels.md).
    """
    counters = sorted(registry.counters().items())
    if deterministic:
        counters = [(k, c) for k, c in counters
                    if not k.endswith("/host_seconds")]
    return {
        "schema_version": SCHEMA_VERSION,
        "counters": {k: c.value for k, c in counters},
        "gauges": {k: {"value": g.value, "max": g.max}
                   for k, g in sorted(registry.gauges().items())},
        "histograms": {
            k: {"count": h.count, "sum": h.total, "mean": h.mean,
                "min": _finite(h.min), "max": _finite(h.max),
                "buckets_pow2": {str(b): n
                                 for b, n in sorted(h.buckets.items())}}
            for k, h in sorted(registry.histograms().items())
        },
        "series": {k: [[step, value] for step, value in s.points]
                   for k, s in sorted(registry.all_series().items())},
        "per_pe": {k: list(p.values)
                   for k, p in sorted(registry.pe_counters().items())},
    }


def write_metrics(registry: MetricsRegistry, path,
                  metadata: Optional[Dict] = None,
                  deterministic: bool = False) -> Path:
    """Write the metrics dump as indented JSON; returns the path."""
    payload = metrics_to_dict(registry, deterministic)
    if metadata:
        payload["metadata"] = metadata
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# ASCII per-round progress table.
# ----------------------------------------------------------------------
#: Round-series names rendered by :func:`progress_table`, with headers.
ROUND_COLUMNS = (
    ("round/vertices", "vertices"),
    ("round/edges", "edges"),
    ("round/bytes", "bytes"),
    ("round/clock_skew_s", "skew [s]"),
    ("round/send_imbalance", "imbal"),
)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.3g}"


def kernel_pool_table(registry: MetricsRegistry, top: int = 10) -> str:
    """ASCII summary of kernel host time and buffer-pool reuse counters.

    One row per instrumented kernel (``kernel/*`` counters, descending
    host seconds, top ``top``), followed by a one-line pool summary from
    the ``pool/*`` counters.  Returns a short notice when the run recorded
    neither (untraced machines attach no sink).
    """
    counters = registry.counters()
    names = sorted({name.split("/")[1] for name in counters
                    if name.startswith("kernel/")})
    lines = []
    if names:
        stats = [(n, counters[f"kernel/{n}/calls"].value,
                  counters[f"kernel/{n}/host_seconds"].value)
                 for n in names]
        stats.sort(key=lambda s: -s[2])
        w = max(len(n) for n, _, _ in stats[:top])
        lines.append(f"{'kernel'.ljust(w)}  {'calls':>8}  {'host [s]':>9}")
        lines.append(f"{'-' * w}  {'-' * 8}  {'-' * 9}")
        for name, calls, secs in stats[:top]:
            lines.append(f"{name.ljust(w)}  {int(calls):>8}  {secs:>9.4f}")
    pool_keys = ("pool/hits", "pool/misses", "pool/bytes_reused")
    if any(k in counters for k in pool_keys):
        hits = int(counters["pool/hits"].value) if "pool/hits" in counters \
            else 0
        misses = int(counters["pool/misses"].value) \
            if "pool/misses" in counters else 0
        reused = counters["pool/bytes_reused"].value \
            if "pool/bytes_reused" in counters else 0.0
        total = hits + misses
        rate = 100.0 * hits / total if total else 0.0
        lines.append(f"buffer pool: {hits} hits / {misses} misses "
                     f"({rate:.0f}% reuse, {reused / 2**20:.1f} MiB "
                     f"served from pool)")
    dropped = _dropped_events(registry)
    if dropped:
        lines.append(_truncation_warning(dropped))
    return "\n".join(lines) if lines else \
        "(no kernel/pool counters recorded)"


def _dropped_events(registry: MetricsRegistry) -> int:
    """Ring-buffer drops mirrored into the ``trace/dropped_events`` counter."""
    counter = registry.counters().get("trace/dropped_events")
    return int(counter.value) if counter is not None else 0


def _truncation_warning(dropped: int) -> str:
    """One-line truncated-trace warning shown in table exports."""
    return (f"WARNING: trace ring buffer dropped {dropped} events -- "
            f"per-round data above is incomplete (raise REPRO_TRACE_CAP)")


def progress_table(registry: MetricsRegistry) -> str:
    """ASCII table of the per-round series (one row per algorithm round).

    Columns are the canonical ``round/*`` series recorded by the algorithm
    drivers; rounds missing a sample show ``-``.  Returns a short notice
    when no round series were recorded (e.g. the run never entered the
    Borůvka main loop).
    """
    series = registry.all_series()
    present = [(name, hdr) for name, hdr in ROUND_COLUMNS if name in series]
    if not present:
        return "(no per-round series recorded)"
    dropped = _dropped_events(registry)
    steps = sorted({step for name, _ in present
                    for step, _ in series[name].points})
    by_col = {name: dict(series[name].points) for name, _ in present}
    rows = [["round"] + [hdr for _, hdr in present]]
    for step in steps:
        rows.append([str(step)]
                    + [_fmt(by_col[name].get(step)) for name, _ in present])
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = []
    for idx, r in enumerate(rows):
        lines.append("  ".join(cell.rjust(widths[c])
                               for c, cell in enumerate(r)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    if dropped:
        lines.append(_truncation_warning(dropped))
    return "\n".join(lines)
