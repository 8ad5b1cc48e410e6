"""Boundary tests for the dtype-narrowing policy and the buffer pool.

Covers the two pieces of :mod:`repro.kernels` that PR 7's hot-path rewiring
leans on (docs/kernels.md):

* :mod:`repro.kernels.dtypes` -- the uint32/int64 decision at the exact
  ``2**32`` boundary, the wide mode the differential harness switches
  to (``dtypes.NARROWING = False``), payload narrowing, and the logical-bytes accounting that keeps simulated costs
  dtype-independent;
* ``packed_lexsort`` permutation dtype and the packed-capacity overflow
  boundary (the ``np.lexsort`` fallback at capacity ``>= 2**62``);
* :class:`repro.kernels.pool.BufferPool` -- hit/miss accounting, the
  parked-bytes budget, foreign-array rejection and active-pool swapping.
"""

import numpy as np
import pytest

from repro.kernels import dtypes, packed_lexsort
from repro.kernels.dtypes import (
    UINT32_MAX,
    index_dtype,
    logical_itemsize,
    logical_nbytes,
    narrow,
    widen,
)
from repro.kernels.pool import BufferPool, active_pool, set_active_pool


class TestDtypePolicy:
    def test_index_dtype_boundary(self):
        assert index_dtype(0) == np.uint32
        assert index_dtype(UINT32_MAX) == np.uint32
        assert index_dtype(UINT32_MAX + 1) == np.int64
        # Negative bound means "no elements": narrow is safe.
        assert index_dtype(-1) == np.uint32

    def test_index_dtype_wide_mode(self, monkeypatch):
        monkeypatch.setattr(dtypes, "NARROWING", False)
        assert index_dtype(0) == np.int64
        assert index_dtype(UINT32_MAX) == np.int64

    def test_narrow_boundary_values(self):
        a = np.array([0, UINT32_MAX], dtype=np.int64)
        assert narrow(a).dtype == np.uint32
        over = np.array([0, UINT32_MAX + 1], dtype=np.int64)
        assert narrow(over).dtype == np.int64
        neg = np.array([-1, 5], dtype=np.int64)
        assert narrow(neg).dtype == np.int64
        # Caller-supplied bound skips the scans but must still gate.
        assert narrow(a, max_value=UINT32_MAX).dtype == np.uint32
        assert narrow(over, max_value=UINT32_MAX + 1).dtype == np.int64
        # Non-integer arrays never narrow.
        f = np.array([1.0, 2.0])
        assert narrow(f).dtype == np.float64

    def test_narrow_wide_mode_widens(self, monkeypatch):
        monkeypatch.setattr(dtypes, "NARROWING", False)
        a = np.array([1, 2], dtype=np.uint32)
        assert narrow(a).dtype == np.int64
        assert widen(a).dtype == np.int64

    def test_logical_bytes_dtype_independent(self):
        """The simulated machine charges 8 bytes/element either way."""
        wide = np.arange(10, dtype=np.int64)
        thin = wide.astype(np.uint32)
        assert logical_nbytes(wide) == logical_nbytes(thin) == 80
        assert logical_itemsize(np.uint32) == logical_itemsize(np.int64) == 8
        # Non-integer payloads keep their true width.
        assert logical_nbytes(np.zeros(3, dtype=np.float64)) == 24
        assert logical_itemsize(np.float64) == 8


class TestPackedLexsortDtypes:
    def test_perm_dtype_narrow(self):
        rng = np.random.default_rng(3)
        cols = (rng.integers(0, 50, 1000), rng.integers(0, 50, 1000))
        perm = packed_lexsort(cols)
        assert perm.dtype == np.uint32
        np.testing.assert_array_equal(perm, np.lexsort(cols))

    def test_perm_dtype_wide(self, monkeypatch):
        monkeypatch.setattr(dtypes, "NARROWING", False)
        rng = np.random.default_rng(3)
        cols = (rng.integers(0, 50, 100), rng.integers(0, 50, 100))
        perm = packed_lexsort(cols)
        assert perm.dtype == np.int64
        np.testing.assert_array_equal(perm, np.lexsort(cols))

    @pytest.mark.parametrize("col_bound", [
        # Capacity = product of (max+1) per column plus the tie-break range.
        # Just under the 2**62 packed-capacity guard: packed path.
        2**30 - 1,
        # Straddles it: np.lexsort fallback.  Both must match np.lexsort.
        2**31,
    ])
    def test_overflow_boundary_matches_lexsort(self, col_bound):
        rng = np.random.default_rng(11)
        n = 512
        lo = rng.integers(0, 1000, n).astype(np.int64)
        hi = rng.integers(0, 5, n).astype(np.int64)
        # Pin the extremes so the capacity computation sees the bound.
        lo[0], lo[1] = 0, col_bound
        hi[0], hi[1] = 0, col_bound
        perm = packed_lexsort((lo, hi))
        ref = np.lexsort((lo, hi))
        # Permutations may differ on ties; the sorted keys must not.
        np.testing.assert_array_equal(hi[perm], hi[ref])
        np.testing.assert_array_equal(lo[perm], lo[ref])
        # And packed_lexsort must remain a stable sort like np.lexsort.
        np.testing.assert_array_equal(perm, ref)


class TestBufferPool:
    def test_hit_miss_accounting(self):
        pool = BufferPool(max_bytes=1 << 20)
        a = pool.take(100, np.int64)
        assert a.shape == (100,) and a.dtype == np.int64
        assert pool.misses == 1 and pool.hits == 0
        pool.give(a)
        assert pool.held_bytes > 0
        b = pool.take(100, np.int64)
        assert pool.hits == 1
        # Same size class (128-capacity block) serves nearby sizes too.
        pool.give(b)
        c = pool.take(120, np.int64)
        assert pool.hits == 2
        pool.give(c)
        stats = pool.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["bytes_reused"] == (100 + 120) * 8

    def test_dtype_keys_are_distinct(self):
        pool = BufferPool(max_bytes=1 << 20)
        a = pool.take(64, np.int64)
        pool.give(a)
        b = pool.take(64, np.uint32)
        assert pool.hits == 0 and pool.misses == 2
        pool.give(b)

    def test_budget_refusal(self):
        pool = BufferPool(max_bytes=128)
        small = pool.take(8, np.int64)  # 16-element block: fits the budget
        big = pool.take(1024, np.int64)
        pool.give(small)
        assert pool.held_bytes == 128
        pool.give(big)  # over budget -> dropped
        assert pool.held_bytes == 128

    def test_give_tolerates_none_and_foreign(self):
        pool = BufferPool(max_bytes=1 << 20)
        pool.give(None)
        pool.give(np.empty(100))  # 100 is not a power of two: dropped
        assert pool.held_bytes == 0

    def test_clear_drops_everything(self):
        pool = BufferPool(max_bytes=1 << 20)
        pool.give(pool.take(256, np.int64))
        assert pool.held_bytes > 0
        pool.clear()
        assert pool.held_bytes == 0
        # Stats survive a clear; only the parked blocks go.
        assert pool.misses == 1

    def test_set_active_pool_clears_displaced(self):
        prev = active_pool()
        mine = BufferPool(max_bytes=1 << 20)
        try:
            set_active_pool(mine)
            assert active_pool() is mine
            mine.give(mine.take(512, np.int64))
            assert mine.held_bytes > 0
        finally:
            set_active_pool(prev)
        # Displaced pools hand their parked blocks back to the allocator.
        assert mine.held_bytes == 0
        assert active_pool() is prev

    def test_attach_sink_mirrors_counters(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        pool = BufferPool(max_bytes=1 << 20)
        pool.attach_sink(registry)
        a = pool.take(128, np.int64)
        pool.give(a)
        b = pool.take(128, np.int64)
        pool.give(b)
        counters = registry.counters()
        assert counters["pool/misses"].value == 1
        assert counters["pool/hits"].value == 1
        # Reuse counts the requested bytes; allocation counts the whole
        # power-of-two block (the next class up from a 128-element ask).
        assert counters["pool/bytes_reused"].value == 128 * 8
        assert counters["pool/bytes_allocated"].value == 256 * 8
