"""Microbenchmark of the segmented kernels and the buffer pool.

Times the hot kernels of :mod:`repro.kernels.segmented` in isolation --
through the same ``record_kernel``/``kernel_sink`` hooks a traced machine
uses -- on identical workloads in the two dtype layouts of the adaptive
narrowing policy (``uint32`` vs ``int64``).  The per-kernel host seconds
quantify the memory-bandwidth effect of the policy directly, without the
simulator around it; the pool leg measures the scratch-arena hit rate on
the packed-key path.  Kernels that choose an arm from their input are timed
on both sides of the choice: ``segmented_lookup`` on dense ids (the
direct-address table) and on sparse ids (the search), ``route_plan`` with
at most 2^16 (segment, destination) slots (a 16-bit radix sort) and above,
``group_argmin`` on minimum-edge-selection-shaped rows (the scatter) and on
a few rows over many group ids (the sort).  ``compact[mask]`` /
``compact[index]`` time one compaction of four parallel columns by a 50 %
random mask: four boolean gathers, against one ``flatnonzero`` plus four
integer gathers (docs/kernels.md, "Select by index, not by mask").

Host seconds land in the ``BENCH_kernel_micro.json`` extras (they are
machine-dependent); the ``simulated_seconds`` of every entry is a constant
0.0 so the record stays bit-for-bit comparable across machines.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dgraph.edges import tie_key
from repro.kernels.engine import set_kernel_sink
from repro.kernels.pool import BufferPool, active_pool, set_active_pool
from repro.kernels.segmented import (
    group_argmin,
    packed_lexsort,
    route_plan,
    segmented_lexsort,
    segmented_lookup,
    segmented_searchsorted,
    segmented_unique,
)
from repro.obs import MetricsRegistry

from _common import bench_recorder, report

#: Elements per workload (edge-scale: the fig3 sweep's largest part sizes).
N = 1 << 18
#: Simulated-PE segments the workloads split into.
SEGMENTS = 64
#: Value bound: everything fits uint32 so both layouts hold the same values.
BOUND = 1 << 20


def _workload(dtype, seed: int = 7):
    """Deterministic kernel inputs in the requested storage dtype."""
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, BOUND, N).astype(dtype)
    keys2 = rng.integers(0, BOUND, N).astype(dtype)
    seg = np.repeat(np.arange(SEGMENTS, dtype=np.int64), N // SEGMENTS)
    off = np.arange(SEGMENTS + 1, dtype=np.int64) * (N // SEGMENTS)
    hay = np.sort(vals.reshape(SEGMENTS, -1), axis=1).ravel()
    return vals, keys2, seg, off, hay


def _recorded(fn) -> dict:
    """Run ``fn`` under a kernel sink; returns name -> (calls, host_s)."""
    registry = MetricsRegistry()
    set_kernel_sink(registry)
    try:
        fn()
    finally:
        set_kernel_sink(None)
    counters = registry.counters()
    names = sorted({k.split("/")[1] for k in counters
                    if k.startswith("kernel/")})
    return {n: (int(counters[f"kernel/{n}/calls"].value),
                counters[f"kernel/{n}/host_seconds"].value)
            for n in names}


def _lookup_workload(dtype, id_range: int, seed: int = 7):
    """``N // 16`` distinct ids out of ``id_range``, block-partitioned over
    the segments like a vertex list, and ``N`` needles over the same range:
    dense (``id_range`` = the id count) or sparse (2^30)."""
    rng = np.random.default_rng(seed)
    h = N // 16
    ids = np.sort(rng.choice(id_range, h, replace=False)).astype(dtype)
    off = np.arange(SEGMENTS + 1, dtype=np.int64) * (h // SEGMENTS)
    needles = rng.integers(0, id_range, N).astype(dtype)
    seg = rng.integers(0, SEGMENTS, N)
    return ids, off, needles, seg


def _argmin_workload(dtype, rows: int, n_groups: int, seed: int = 7):
    """``rows`` edges in sorted source groups among ``n_groups`` ids, keyed
    by the tie order: dense groups (every vertex a group, 16 edges each, as
    in MINEDGES) or a few rows over many ids."""
    rng = np.random.default_rng(seed)
    group = np.sort(rng.integers(0, n_groups, rows)).astype(dtype)
    other = rng.integers(0, min(n_groups, N // 16), rows).astype(dtype)
    w = rng.integers(1, 255, rows).astype(dtype)
    return group, tie_key(group, other, w), n_groups


def _compact(dtype, seed: int = 7) -> dict:
    """Host seconds of one four-column compaction, by mask and by index."""
    rng = np.random.default_rng(seed)
    cols = [rng.integers(0, BOUND, N).astype(dtype) for _ in range(4)]
    mask = rng.random(N) < 0.5
    t0 = time.perf_counter()
    by_mask = [c[mask] for c in cols]
    t1 = time.perf_counter()
    pos = np.flatnonzero(mask)
    by_index = [c[pos] for c in cols]
    t2 = time.perf_counter()
    assert all(np.array_equal(a, b) for a, b in zip(by_mask, by_index))
    return {"compact[mask]": (1, t1 - t0), "compact[index]": (1, t2 - t1)}


def _run_kernels(dtype) -> dict:
    """One pass over the kernel suite; returns name -> (calls, host_s)."""
    vals, keys2, seg, off, hay = _workload(dtype)

    def suite():
        packed_lexsort((keys2, vals))
        segmented_lexsort((vals, keys2), seg)
        segmented_unique(vals, seg, SEGMENTS)
        segmented_searchsorted(hay, off, vals, seg)

    out = _recorded(suite)
    # Input-selected arms, one record each.
    for side, id_range in (("dense", N // 16), ("sparse", 1 << 30)):
        args = _lookup_workload(dtype, id_range)
        out[f"segmented_lookup[{side}]"] = _recorded(
            lambda: segmented_lookup(*args))["segmented_lookup"]
    rng = np.random.default_rng(11)
    for size in (SEGMENTS, 8 * SEGMENTS):  # 2^12 and 2^18 slots
        src = rng.integers(0, size, N).astype(dtype)
        dest = rng.integers(0, size, N).astype(dtype)
        out[f"route_plan[{size}x{size}]"] = _recorded(
            lambda: route_plan(src, dest, size, size))["route_plan"]
    for arm, rows, n_groups in (("scatter", N, N // 16),
                                ("sort", N // 128, 1 << 20)):
        args = _argmin_workload(dtype, rows, n_groups)
        out[f"group_argmin[{arm}]"] = _recorded(
            lambda: group_argmin(*args))["group_argmin"]
    out.update(_compact(dtype))
    return out


def _run_pool() -> dict:
    """Pool hit-rate leg: repeated pooled scratch cycles at one size class."""
    pool = BufferPool(max_bytes=32 << 20)
    prev = active_pool()
    set_active_pool(pool)
    try:
        for _ in range(16):
            block = active_pool().take(N, np.int64)
            block[:] = 0
            active_pool().give(block)
    finally:
        set_active_pool(prev)
    return pool.stats()


def _sweep():
    out = {}
    for label, dtype in (("narrow", np.uint32), ("wide", np.int64)):
        _run_kernels(dtype)  # warm-up: allocator, caches, imports
        out[label] = _run_kernels(dtype)
    out["pool"] = _run_pool()
    return out


def test_kernel_micro(benchmark):
    with bench_recorder("kernel_micro") as rec:
        results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
        for layout in ("narrow", "wide"):
            for name, (calls, host) in results[layout].items():
                rec.add(f"{name}/{layout}", 0.0, calls=calls,
                        host_seconds=host)
        pool = results["pool"]
        rec.add("pool/reuse", 0.0, **pool)

    kernels = sorted(results["wide"])
    lines = [f"Segmented kernels on {N} elements / {SEGMENTS} segments, "
             f"host seconds by storage dtype",
             f"{'kernel':>24s} {'uint32':>10s} {'int64':>10s} {'ratio':>7s}"]
    for name in kernels:
        hn = results["narrow"][name][1]
        hw = results["wide"][name][1]
        ratio = hw / hn if hn else float("nan")
        lines.append(f"{name:>24s} {hn:10.4f} {hw:10.4f} {ratio:7.2f}")
    pool = results["pool"]
    total = pool["hits"] + pool["misses"]
    lines.append(f"\nbuffer pool: {pool['hits']}/{total} takes served from "
                 f"the free lists ({pool['bytes_reused'] >> 20} MiB reused)")
    report("kernel_micro", "\n".join(lines))

    # The suite must have exercised every kernel in both layouts ...
    assert set(results["narrow"]) == set(results["wide"])
    assert {"packed_lexsort", "segmented_lexsort",
            "segmented_unique", "segmented_searchsorted",
            "segmented_lookup[dense]", "segmented_lookup[sparse]",
            "group_argmin[scatter]", "group_argmin[sort]",
            "compact[mask]", "compact[index]",
            f"route_plan[{SEGMENTS}x{SEGMENTS}]",
            f"route_plan[{8 * SEGMENTS}x{8 * SEGMENTS}]"} <= set(kernels)
    # ... and steady-state pooled scratch must be (nearly) all hits.
    assert pool["hits"] >= 14
