"""Boundary tests for the dtype-narrowing policy and the zero-copy packing.

Covers the two pieces of :mod:`repro.kernels` that PR 7's hot-path rewiring
leans on (docs/kernels.md):

* :mod:`repro.kernels.dtypes` -- the uint32/int64 decision at the exact
  ``2**32`` boundary, the wide mode the differential harness switches
  to (``dtypes.NARROWING = False``), payload narrowing, and the logical-bytes accounting that keeps simulated costs
  dtype-independent;
* ``packed_lexsort`` permutation dtype and the packed-capacity overflow
  boundary (the ``np.lexsort`` fallback at capacity ``>= 2**62``);
* :meth:`repro.kernels.RaggedArrays.from_arrays` -- which packings share
  memory with their parts (consecutive row ranges of one array) and which
  copy.  These replace the buffer pool's cases: the pool was deleted
  because it bought no host time and cost 20-28 MB of peak RSS.
"""

import numpy as np
import pytest

from repro.kernels import RaggedArrays, dtypes, packed_lexsort
from repro.kernels.dtypes import (
    UINT32_MAX,
    index_dtype,
    logical_itemsize,
    logical_nbytes,
    narrow,
    widen,
)
from repro.simmpi.alltoall import split_rows


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


class TestFromArraysSharing:
    """``RaggedArrays.from_arrays`` wraps consecutive row ranges of one
    C-contiguous array as a view and copies everything else."""

    @staticmethod
    def _packed(parts, **kw):
        r = RaggedArrays.from_arrays(parts, **kw)
        want = np.concatenate(parts, axis=0)
        np.testing.assert_array_equal(r.flat, want)
        assert r.flat.dtype == want.dtype
        np.testing.assert_array_equal(r.lengths, [len(x) for x in parts])
        return r

    @pytest.mark.parametrize("bounds", [
        [0, 3, 7, 10],        # every part full
        [0, 3, 3, 7, 10],     # an interior empty part
        [0, 4, 10, 10, 10],   # trailing empty parts
        [0, 0, 6, 10],        # a leading empty part
    ])
    def test_split_rows_views_are_wrapped(self, bounds):
        base = np.arange(40, dtype=np.uint32).reshape(10, 4)
        r = self._packed(split_rows(base, np.array(bounds)))
        assert np.shares_memory(r.flat, base)
        assert not r.flat.flags.writeable  # callers never write into it

    def test_one_dimensional_views_are_wrapped(self):
        base = np.arange(12, dtype=np.int64)
        parts = [base[2:5], base[5:5], base[5:9], base[9:9]]
        r = self._packed(parts)
        assert np.shares_memory(r.flat, base)
        assert r.flat.shape == (7,)

    def test_interior_row_range_is_wrapped(self):
        base = np.arange(40, dtype=np.uint32).reshape(10, 4)
        r = self._packed([base[2:4], base[4:7]])
        assert np.shares_memory(r.flat, base)

    @pytest.mark.parametrize("case", ["gap", "reordered", "two_bases",
                                      "non_contiguous", "dtype"])
    def test_copies(self, case):
        base = np.arange(40, dtype=np.uint32).reshape(10, 4)
        kw = {}
        if case == "gap":
            parts = [base[0:3], base[4:7]]
        elif case == "reordered":
            parts = [base[3:6], base[0:3]]
        elif case == "two_bases":
            other = base.copy()
            parts = [base[0:3], other[3:6]]
        elif case == "non_contiguous":
            wide = np.arange(80, dtype=np.uint32).reshape(10, 8)[:, ::2]
            parts = [wide[0:3], wide[3:6]]
            base = wide
        else:
            parts = [base[0:3], base[3:6]]
            kw = {"dtype": np.uint32}
        r = self._packed(parts, **kw)
        assert not np.shares_memory(r.flat, base)
        assert r.flat.flags.writeable
