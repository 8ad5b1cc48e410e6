"""Shared infrastructure for the per-figure/table benchmarks.

Every benchmark regenerates one table or figure of the paper (see the
per-experiment index in DESIGN.md): it runs the corresponding sweep on the
simulated machine, prints the paper-shaped series, writes the report to
``benchmarks/results/`` and asserts the qualitative *shape* claims the paper
makes (who wins, where crossovers fall).  Absolute numbers are simulated
seconds, not SuperMUC-NG seconds.

Scale knobs (environment):

``REPRO_MAX_CORES``  top of the core sweeps (default 64; the paper uses 2^16)
``REPRO_SCALE``      per-core workload multiplier (default 1)
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

from repro.analysis import env_max_cores, env_scale
from repro.graphgen import gen_family, gen_realworld, load_npz, save_npz

RESULTS_DIR = Path(__file__).parent / "results"
CACHE_DIR = RESULTS_DIR / "cache"

#: Default per-core workload: 2^8 vertices / 2^12 directed-edge halves per
#: core -- the paper's 2^17 / 2^21 scaled down by 2^9 (ratio m/n = 16 kept).
PER_CORE_VERTICES = 256 * env_scale()
PER_CORE_EDGES = 4096 * env_scale()
#: Denser variant mirroring the paper's 2^23-edges-per-core runs (m/n = 64).
PER_CORE_EDGES_DENSE = 16384 * env_scale()

MAX_CORES = env_max_cores(64)


def core_sweep(lo: int = 4, hi: int | None = None, step: int = 4) -> list[int]:
    """Geometric core counts ``lo, lo*step, ...`` up to ``hi``.

    ``hi`` defaults to the ``REPRO_MAX_CORES`` ceiling and is always included
    as the final point when the geometric series does not land on it.  The
    default ``step`` of 4 matches the paper's sweeps (every other power of
    two); pass ``step=2`` for a full powers-of-two sweep.
    """
    hi = hi or MAX_CORES
    out, c = [], lo
    while c <= hi:
        out.append(c)
        c *= step
    if out and out[-1] < hi:
        out.append(hi)
    return out


def competitor_memory_limit(per_core_edges: int) -> float:
    """Per-core memory budget that reproduces the competitors' crash regime.

    Scaled analogue of the 2 GB/core of SuperMUC-NG against the paper's
    2^21-edges-per-core workloads: eight input blocks of headroom plus
    slack, so codes whose footprint grows with the *global* problem size on
    some PE (MND-MST's leader accumulation) or super-linearly in p
    (sparseMatrix's tensor buffers) hit it as the weak-scaling sweep grows,
    while block-proportional codes never do.
    """
    return 8.0 * (2 * per_core_edges * 32.0) + 65536.0


#: In-process graph cache: sweeps re-request the same instance once per
#: algorithm/thread configuration, so keep the last few decoded graphs
#: around instead of re-reading (and re-inflating) the npz every time.
#: LRU with a deliberately small capacity -- a sweep touches one family's
#: handful of sizes at a time, and keeping every previous family resident
#: costs tens of MB of peak RSS for no reuse.
_GRAPH_MEMO: dict = {}
_GRAPH_MEMO_MAX = 3


def cached_graph(kind: str, **kwargs):
    """Generate (or load from the on-disk cache) one benchmark instance."""
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    key = hashlib.sha1(
        json.dumps({"kind": kind, **kwargs}, sort_keys=True).encode()
    ).hexdigest()[:16]
    if key in _GRAPH_MEMO:
        g = _GRAPH_MEMO.pop(key)
        _GRAPH_MEMO[key] = g  # LRU: re-insert as most recently used
        return g
    # Evict *before* acquiring the new graph: popping on insert would keep
    # the displaced (possibly largest-size) instance alive while the new one
    # is generated or inflated, doubling the transient graph footprint.
    while len(_GRAPH_MEMO) >= _GRAPH_MEMO_MAX:
        _GRAPH_MEMO.pop(next(iter(_GRAPH_MEMO)))
    path = CACHE_DIR / f"{kind.replace('/', '_')}-{key}.npz"
    if path.exists():
        try:
            return _memo_graph(key, load_npz(path))
        except Exception:
            # Unreadable cache entry (truncated / corrupted): regenerate.
            path.unlink(missing_ok=True)
    if kind == "family":
        g = gen_family(kwargs["family"], kwargs["n"], kwargs["m"],
                       seed=kwargs.get("seed", 0))
    elif kind == "realworld":
        g = gen_realworld(kwargs["name"], n=kwargs.get("n"),
                          seed=kwargs.get("seed", 0))
    else:
        raise ValueError(kind)
    save_npz(g, path)
    return _memo_graph(key, g)


def _memo_graph(key, g):
    _GRAPH_MEMO[key] = g
    return g


def peak_rss_bytes() -> int | None:
    """Peak RSS of this process in bytes (see repro.obs.ledger)."""
    from repro.obs.ledger import peak_rss_bytes as _peak

    return _peak()


def report(name: str, text: str) -> None:
    """Print a bench report and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


class BenchRecorder:
    """Wall-clock + simulated-makespan record of one benchmark run.

    Collects ``(label, simulated_seconds)`` pairs during the sweep and, on
    :meth:`write`, persists ``benchmarks/results/BENCH_<name>.json`` with the
    total wall-clock of the measured block, the simulated series, and the
    environment knobs that shaped the run.  Wall-clock depends on the
    host; the simulated series must not.
    """

    def __init__(self, name: str):
        self.name = name
        self.wall_seconds = 0.0
        self.peak_rss_bytes: int | None = None
        self.simulated: list[dict] = []
        #: Extra payload sections (e.g. ``serving``); sticky across
        #: writes so the context manager's final write keeps them.
        self.extra: dict = {}

    def add(self, label: str, simulated_seconds: float, **extra) -> None:
        """Record one configuration's simulated makespan.

        Non-finite values (crashed/oom runs) are stored as ``null`` so the
        JSON stays strictly parseable.
        """
        val = float(simulated_seconds)
        self.simulated.append(
            {"label": label,
             "simulated_seconds": val if val == val and abs(val) != float("inf") else None,
             **extra}
        )

    def write(self, **extra) -> Path:
        """Persist the JSON record and return its path.

        Also appends a matching row to the run ledger when one is active
        (``REPRO_LEDGER`` or ``REPRO_TRACE_DIR`` set; repro.obs.ledger).
        """
        from repro.obs import SCHEMA_VERSION
        from repro.obs.ledger import append_record, ledger_path, make_record

        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        self.extra.update(extra)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "peak_rss_bytes": self.peak_rss_bytes,
            "max_cores": MAX_CORES,
            "scale": env_scale(),
            "simulated": self.simulated,
            **self.extra,
        }
        path = RESULTS_DIR / f"BENCH_{self.name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        if ledger_path() is not None:
            append_record(make_record(
                "benchmark", self.name,
                config={"max_cores": payload["max_cores"],
                        "scale": payload["scale"]},
                simulated=self.simulated,
                wall_seconds=self.wall_seconds))
        return path


def record_experiments(rec: BenchRecorder, results, prefix: str = "") -> None:
    """Add every :class:`ExperimentResult`'s simulated makespan to ``rec``."""
    for r in results:
        rec.add(f"{prefix}{r.algorithm}/p{r.cores}", r.elapsed,
                status=r.status)


@contextmanager
def bench_recorder(name: str):
    """Time a benchmark's measured block and write its ``BENCH_*.json``.

    When event tracing is requested (``REPRO_TRACE=1``) and no explicit
    ``REPRO_TRACE_DIR`` is set, traced sweeps drop their Chrome-trace and
    metrics artifacts under ``benchmarks/results/traces/<name>/`` (the
    directory CI's trace-smoke job validates and uploads).

    Usage::

        with bench_recorder("fig3_weak_scaling") as rec:
            ...  # run sweep, rec.add(label, simulated_seconds) per point
    """
    from repro.obs import trace_env_enabled

    rec = BenchRecorder(name)
    pushed_trace_dir = False
    if trace_env_enabled() and not os.environ.get("REPRO_TRACE_DIR"):
        os.environ["REPRO_TRACE_DIR"] = str(RESULTS_DIR / "traces" / name)
        pushed_trace_dir = True
    t0 = time.perf_counter()
    try:
        yield rec
    finally:
        rec.wall_seconds = time.perf_counter() - t0
        rec.peak_rss_bytes = peak_rss_bytes()
        rec.write()
        if pushed_trace_dir:
            del os.environ["REPRO_TRACE_DIR"]
