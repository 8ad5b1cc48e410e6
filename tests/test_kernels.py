"""Tests for the flat segmented kernels (repro.kernels).

Three layers:

* unit tests for :class:`RaggedArrays` and each segmented kernel against the
  per-segment numpy operation it replaces;
* unit tests for :func:`repro.dgraph.search.sorted_lookup` (the shared
  clamped-searchsorted helper);
* differential tests running the full algorithms on production and on the
  per-PE loop oracles
  (``helpers.assert_engines_agree``, shared with tests/test_engines.py) over
  threads and all-to-all schemes, asserting the hard invariant of
  docs/kernels.md: simulated clocks, phase breakdowns, communication traces
  and MST weights are bit-for-bit identical -- only wall-clock may differ.
  The property suite draws random instances with hypothesis; the sanitizer
  suite re-runs the adversarial detections on both.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import core
from repro.core import (
    BoruvkaConfig,
    FilterConfig,
    MSTRun,
    distributed_boruvka,
    distributed_filter_boruvka,
)
from repro.dgraph import DistGraph
from repro.dgraph.edges import lightest_per_group
from repro.dgraph.search import sorted_lookup
from repro.graphgen import FAMILIES, gen_family
from repro.kernels import segmented
from repro.kernels import (
    RaggedArrays,
    first_in_group,
    group_argmin,
    order_key,
    packed_lexsort,
    route_counts,
    segment_ids,
    segmented_lexsort,
    segmented_lookup,
    segmented_run_starts,
    segmented_searchsorted,
    segmented_unique,
)
from repro.simmpi import Machine

from helpers import (
    ENGINE_NAMES,
    assert_engines_agree,
    on_path,
    random_simple_graph,
)


@pytest.fixture
def rng():
    return np.random.default_rng(77)


def ragged_case(rng, p=6, max_len=40, lo=0, hi=50):
    parts = [rng.integers(lo, hi, rng.integers(0, max_len))
             for _ in range(p)]
    return RaggedArrays.from_arrays(parts), parts


class TestRaggedArrays:
    def test_roundtrip(self, rng):
        r, parts = ragged_case(rng)
        assert r.n_segments == len(parts)
        assert np.array_equal(r.lengths, [len(x) for x in parts])
        for i, part in enumerate(parts):
            assert np.array_equal(r.segment(i), part)
        for back, part in zip(r.to_arrays(), parts):
            assert np.array_equal(back, part)

    def test_segment_ids(self, rng):
        r, parts = ragged_case(rng)
        expected = np.repeat(np.arange(len(parts)),
                             [len(x) for x in parts])
        assert np.array_equal(r.segment_ids(), expected)
        assert np.array_equal(segment_ids(r.offsets), expected)

    def test_empty_segments_and_empty_list(self):
        r = RaggedArrays.from_arrays([np.empty(0, np.int64)] * 3)
        assert r.n_segments == 3 and len(r) == 0
        r0 = RaggedArrays.from_arrays([])
        assert r0.n_segments == 0 and len(r0) == 0

    def test_rows_matrix(self, rng):
        parts = [rng.integers(0, 9, (rng.integers(0, 5), 3))
                 for _ in range(4)]
        r = RaggedArrays.from_arrays(parts)
        for i, part in enumerate(parts):
            assert np.array_equal(r.segment(i), part)

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValueError):
            RaggedArrays(np.arange(5), np.array([0, 3]))

    def test_offsets_template(self, rng):
        r, _ = ragged_case(rng)
        doubled = RaggedArrays.from_offsets_template(r.flat * 2, r)
        assert np.array_equal(doubled.offsets, r.offsets)


class TestSegmentedKernels:
    def test_lexsort_matches_per_segment(self, rng):
        r, parts = ragged_case(rng)
        k2 = rng.integers(0, 5, len(r.flat))
        order = segmented_lexsort((r.flat, k2), r.segment_ids())
        for i in range(r.n_segments):
            lo, hi = r.offsets[i], r.offsets[i + 1]
            local = order[lo:hi] - lo
            ref = np.lexsort((parts[i], k2[lo:hi]))
            assert np.array_equal(local, ref), i

    @pytest.mark.parametrize("key_high, n_segments, seg_dtype", [
        (1 << 20, 32, np.int64),       # keys pack, keys + segment do not
        (1 << 20, 32, np.uint16),
        (1 << 20, 70000, np.int64),    # ... with more than 2^16 segments
        (1 << 10, 32, np.int64),       # everything packs (one pass)
        (1 << 40, 32, np.int64),       # not even the keys pack (np.lexsort)
    ])
    def test_lexsort_when_the_segment_id_overflows_the_packed_key(
            self, rng, key_high, n_segments, seg_dtype):
        n = 5000
        keys = tuple(rng.integers(0, key_high, n) for _ in range(3))
        # Few distinct first keys: ties reach the less significant columns.
        keys = keys[:2] + (keys[2] % 7 * (key_high // 7),)
        segs = np.sort(rng.integers(0, n_segments, n)).astype(seg_dtype)
        segs[-1] = n_segments - 1
        order = segmented_lexsort(keys, segs)
        assert np.array_equal(order, np.lexsort(keys + (segs,)))

    @pytest.mark.parametrize("key_high", [50, 1 << 20, 1 << 40])
    def test_order_key_is_monotone_in_the_lexicographic_order(self, rng,
                                                              key_high):
        """Packed (first two) or dense-ranked (last): strictly increasing
        along the lexsort, equal exactly on full-key ties."""
        keys = tuple(rng.integers(0, key_high, 3000) for _ in range(3))
        keys = tuple(np.concatenate([k, k[:500]]) for k in keys)  # ties
        scalar = order_key(keys)
        order = np.lexsort(keys)
        assert np.array_equal(np.argsort(scalar, kind="stable"), order)
        same = np.ones(len(order) - 1, dtype=bool)
        for k in keys:
            same &= k[order][1:] == k[order][:-1]
        assert np.array_equal(np.diff(scalar[order]) == 0, same)
        assert order_key((np.empty(0, np.uint32),)).shape == (0,)

    def test_first_in_group(self):
        g = np.array([0, 0, 1, 1, 1, 3, 4, 4])
        assert np.array_equal(first_in_group(g),
                              [1, 0, 1, 0, 0, 1, 1, 0])
        assert first_in_group(np.empty(0, np.int64)).shape == (0,)

    def test_run_starts_restart_at_segments(self):
        # A run of equal values cut by a segment boundary starts twice;
        # empty segments (also trailing ones) add nothing.
        v = np.array([4, 4, 7, 7, 7, 9])
        off = np.array([0, 0, 3, 3, 6, 6])
        assert segmented_run_starts(v, off).tolist() == [1, 0, 1, 1, 0, 1]
        empty = segmented_run_starts(v[:0], np.zeros(3, dtype=np.int64))
        assert empty.dtype == bool and empty.size == 0

    def test_unique_matches_per_segment(self, rng):
        r, parts = ragged_case(rng, hi=10)
        uniq, uoff, inv = segmented_unique(r.flat, r.segment_ids(),
                                           r.n_segments)
        for i, part in enumerate(parts):
            ref_u, ref_inv = np.unique(part, return_inverse=True)
            assert np.array_equal(uniq[uoff[i]:uoff[i + 1]], ref_u), i
            assert np.array_equal(inv[r.offsets[i]:r.offsets[i + 1]],
                                  ref_inv), i

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_searchsorted_matches_per_segment(self, rng, side):
        p = 6
        hay = [np.sort(rng.integers(0, 30, rng.integers(0, 20)))
               for _ in range(p)]
        hr = RaggedArrays.from_arrays(hay)
        needles = rng.integers(0, 30, 100)
        seg = rng.integers(0, p, 100)
        got = segmented_searchsorted(hr.flat, hr.offsets, needles, seg, side)
        for i in range(p):
            m = seg == i
            assert np.array_equal(got[m],
                                  np.searchsorted(hay[i], needles[m],
                                                  side=side)), i

    def test_lookup_matches_sorted_lookup(self, rng):
        p = 5
        hay = [np.unique(rng.integers(0, 40, rng.integers(0, 25)))
               for _ in range(p)]
        hay[2] = hay[2][:0]  # one empty haystack segment
        hr = RaggedArrays.from_arrays(hay)
        needles = rng.integers(0, 40, 80)
        seg = rng.integers(0, p, 80)
        found, idx = segmented_lookup(hr.flat, hr.offsets, needles, seg)
        for i in range(p):
            m = seg == i
            ref_found, ref_idx = sorted_lookup(hay[i], needles[m])
            assert np.array_equal(found[m], ref_found), i
            # idx is defined only at hits (the table path has no insertion
            # point to report for a miss).
            assert np.array_equal(idx[m][ref_found], ref_idx[ref_found]), i

    def test_packed_lexsort_matches_np_lexsort(self, rng):
        for _ in range(20):
            n = int(rng.integers(0, 60))
            keys = tuple(rng.integers(0, rng.integers(2, 300), n)
                         for _ in range(int(rng.integers(1, 5))))
            assert np.array_equal(packed_lexsort(keys), np.lexsort(keys))

    def test_packed_lexsort_wide_range_falls_back(self, rng):
        # Values too wide to pack must still sort exactly like np.lexsort.
        a = rng.integers(-(2 ** 62), 2 ** 62, 50)
        b = rng.integers(0, 3, 50)
        assert np.array_equal(packed_lexsort((a, b)), np.lexsort((a, b)))
        big = np.array([2 ** 62 + 5, 2 ** 62 + 1, 2 ** 62 + 3])
        assert np.array_equal(packed_lexsort((big,) * 2),
                              np.lexsort((big,) * 2))

    def test_packed_lexsort_stability(self):
        # Equal full keys must keep input order (np.lexsort is stable).
        a = np.array([1, 1, 0, 1, 0])
        w = np.array([7, 7, 7, 7, 7])
        assert np.array_equal(packed_lexsort((w, a)), np.lexsort((w, a)))

    def test_route_counts_matches_bincount(self, rng):
        p, size = 5, 7
        dest_parts = [rng.integers(0, size, rng.integers(0, 30))
                      for _ in range(p)]
        r = RaggedArrays.from_arrays(dest_parts)
        mat = route_counts(r.segment_ids(), r.flat, p, size)
        for i in range(p):
            assert np.array_equal(mat[i],
                                  np.bincount(dest_parts[i],
                                              minlength=size)), i
        assert route_counts(np.empty(0, np.int64), np.empty(0, np.int64),
                            p, size).sum() == 0


def _lookup_on(path, hay, off, needles, nseg):
    """``segmented_lookup`` with the density guard forced to one side
    (``path=None``: left alone), and proof of which arm answered: the table
    arm never probes."""
    probes = []
    real = segmented.segmented_searchsorted
    with pytest.MonkeyPatch.context() as mp:
        if path is not None:
            mp.setattr(segmented, "LOOKUP_CELLS_PER_ELEMENT",
                       {"table": 1 << 40, "search": 0}[path])
        mp.setattr(segmented, "segmented_searchsorted",
                   lambda *a, **k: (probes.append(1), real(*a, **k))[1])
        found, idx = segmented_lookup(hay, off, needles, nseg)
    return found, idx, len(probes)


@st.composite
def _lookup_cases(draw):
    """Sorted per-segment haystacks (possibly empty, one-element, with
    repeated values, negative for int64) and needles inside, between, below
    and above the segments' windows."""
    dtype = draw(st.sampled_from([np.uint32, np.int64]))
    lo = 0 if dtype is np.uint32 else draw(st.sampled_from([-40, 0]))
    values = st.integers(lo, lo + 60)
    segs = draw(st.lists(st.lists(values, max_size=8), min_size=1,
                         max_size=6))
    hay = [np.sort(np.array(x, dtype=dtype)) for x in segs]
    below = 0 if dtype is np.uint32 else lo - 5
    needles = draw(st.lists(st.integers(below, lo + 66), max_size=40))
    nseg = draw(st.lists(st.integers(0, len(segs) - 1),
                         min_size=len(needles), max_size=len(needles)))
    return hay, np.array(needles, dtype=dtype), np.array(nseg, dtype=np.int64)


class TestLookupPaths:
    """The direct-address arm of ``segmented_lookup`` against the search arm
    and against the per-segment ``sorted_lookup``."""

    @given(case=_lookup_cases())
    def test_table_matches_search(self, case):
        hay, needles, nseg = case
        hr = RaggedArrays.from_arrays(hay)
        t_found, t_idx, t_probes = _lookup_on("table", hr.flat, hr.offsets,
                                              needles, nseg)
        s_found, s_idx, s_probes = _lookup_on("search", hr.flat, hr.offsets,
                                              needles, nseg)
        answered = len(needles) > 0 and len(hr.flat) > 0
        assert t_probes == 0 and s_probes == int(answered)
        assert np.array_equal(t_found, s_found)
        assert t_idx.dtype == s_idx.dtype == np.int64
        assert np.array_equal(t_idx[t_found], s_idx[s_found])
        for i, h in enumerate(hay):
            m = nseg == i
            ref_found, ref_idx = sorted_lookup(h, needles[m])
            assert np.array_equal(t_found[m], ref_found), i
            # searchsorted "left": the first of a repeated value.
            assert np.array_equal(t_idx[m][ref_found], ref_idx[ref_found]), i

    def test_guard_is_cells_per_element(self):
        # One segment, two values, two needles: 4 elements, so a window of
        # 16 * 4 cells is tabulated and one of 16 * 4 + 1 is searched.
        limit = segmented.LOOKUP_CELLS_PER_ELEMENT * 4
        for last, searched in ((limit - 1, 0), (limit, 1)):
            found, idx, probes = _lookup_on(
                None, np.array([0, last]), np.array([0, 2]),
                np.array([last, 3]), np.zeros(2, dtype=np.int64))
            assert probes == searched
            assert found.tolist() == [True, False] and idx[0] == 1

    def test_int64_extremes(self):
        big, small = np.iinfo(np.int64).max, np.iinfo(np.int64).min
        off = np.array([0, 1, 3])
        # A one-cell window at int64 max: the needle furthest below it wraps
        # around to the cell's neighbourhood and must still miss.
        hay = np.array([big, 4, 5])
        needles = np.array([small, big, big - 1, small, 5])
        nseg = np.array([0, 0, 0, 1, 1])
        found, idx, probes = _lookup_on("table", hay, off, needles, nseg)
        assert probes == 0
        assert found.tolist() == [False, True, False, False, True]
        assert idx[found].tolist() == [0, 1]
        # A window wider than int64 cannot be tabulated at any density.
        found, idx, probes = _lookup_on(
            "table", np.array([small, big]), np.array([0, 2]),
            np.array([big, 0, small]), np.zeros(3, dtype=np.int64))
        assert probes == 1
        assert found.tolist() == [True, False, True]
        assert idx[found].tolist() == [1, 0]


def _sort_first(group, keys):
    """The selection every call site used to write out by hand (the oracle
    of :func:`group_argmin`): a stable sort keyed ``(group, *keys)`` and the
    first row of every group."""
    order = np.lexsort(tuple(keys)[::-1] + (group,))
    g = group[order]
    first = np.ones(len(g), dtype=bool)
    first[1:] = g[1:] != g[:-1]
    return g[first], order[first]


def _argmin_on(arm, group, keys, n_groups):
    """``group_argmin`` with its guard forced to one arm (``arm=None``: left
    alone), and which arm answered: only the sort arm sorts."""
    sorts = []
    real = segmented.packed_lexsort
    with pytest.MonkeyPatch.context() as mp:
        if arm is not None:
            mp.setattr(segmented, "_scatter_fits",
                       lambda *a: arm == "scatter")
        mp.setattr(segmented, "packed_lexsort",
                   lambda *a, **k: (sorts.append(1), real(*a, **k))[1])
        groups, pick = group_argmin(group, keys, n_groups)
    assert groups.dtype == pick.dtype == np.int64
    return groups, pick, "sort" if sorts else "scatter"


@st.composite
def _argmin_cases(draw):
    """Groups (dense, or a few among many ids) and one to three narrow key
    columns, so full-key ties and parallel duplicates are common."""
    dtype = draw(st.sampled_from([np.uint32, np.int64]))
    n = draw(st.integers(0, 60))
    n_groups = draw(st.sampled_from([1, 3, 17, 1000]))
    group = np.array(draw(st.lists(st.integers(0, n_groups - 1), min_size=n,
                                   max_size=n)), dtype=dtype)
    lo = 0 if dtype is np.uint32 else -9
    keys = tuple(
        np.array(draw(st.lists(st.integers(lo, lo + draw(st.sampled_from(
            [0, 2, 40]))), min_size=n, max_size=n)), dtype=dtype)
        for _ in range(draw(st.integers(1, 3))))
    return group, keys, n_groups


class TestGroupArgmin:
    """``group_argmin`` against the sort-and-take-first form it replaced."""

    @settings(max_examples=200)
    @given(case=_argmin_cases())
    def test_both_arms_match_the_sort(self, case):
        group, keys, n_groups = case
        want_g, want_p = _sort_first(group, keys)
        for arm in ("scatter", "sort", None):
            groups, pick, ran = _argmin_on(arm, group, keys, n_groups)
            assert np.array_equal(groups, want_g), arm
            assert np.array_equal(pick, want_p), arm
            if arm is not None and len(group):
                assert ran == arm

    def test_capacity_guard_boundary(self):
        # Three rows put the position in 2 bits: a key span of 2^60 - 1
        # packs below 2^62, one of 2^60 does not.
        group = np.zeros(3, dtype=np.int64)
        for top, arm in (((1 << 60) - 2, "scatter"), ((1 << 60) - 1, "sort")):
            key = np.array([top, 0, top], dtype=np.int64)
            groups, pick, ran = _argmin_on(None, group, (key,), 1)
            assert ran == arm
            assert groups.tolist() == [0] and pick.tolist() == [1]

    def test_groups_per_row_guard_boundary(self):
        rows = 4
        limit = segmented.SCATTER_GROUPS_PER_ROW * rows
        group = np.array([3, 0, 3, 1], dtype=np.int64)
        key = np.array([5, 2, 4, 2], dtype=np.uint32)
        for n_groups, arm in ((limit, "scatter"), (limit + 1, "sort")):
            groups, pick, ran = _argmin_on(None, group, (key,), n_groups)
            assert ran == arm
            assert groups.tolist() == [0, 1, 3] and pick.tolist() == [1, 3, 2]

    def test_int64_extremes_take_the_sort(self):
        big, small = np.iinfo(np.int64).max, np.iinfo(np.int64).min
        group = np.array([1, 1, 0, 0, 1], dtype=np.int64)
        keys = (np.array([big, small, 0, 0, small]),
                np.array([0, big, big, small, big]))
        groups, pick, ran = _argmin_on("scatter", group, keys, 2)
        assert ran == "sort"
        assert groups.tolist() == [0, 1] and pick.tolist() == [3, 1]

    @pytest.mark.parametrize("arm", ["scatter", "sort"])
    def test_small_shapes(self, arm):
        empty = np.empty(0, dtype=np.uint32)
        groups, pick, _ = _argmin_on(arm, empty, (empty, empty), 4)
        assert len(groups) == len(pick) == 0
        # One group: the global argmin, lowest position on full ties.
        w = np.array([3, 1, 2, 1, 1], dtype=np.uint32)
        a = np.array([9, 4, 0, 4, 2], dtype=np.uint32)
        groups, pick, _ = _argmin_on(arm, np.zeros(5, dtype=np.uint32),
                                     (w, a), 1)
        assert groups.tolist() == [0] and pick.tolist() == [4]
        # Far more group ids than rows.
        group = np.array([900_000, 7, 900_000], dtype=np.int64)
        groups, pick, _ = _argmin_on(arm, group, (w[:3], a[:3]), 1 << 20)
        assert groups.tolist() == [7, 900_000] and pick.tolist() == [1, 2]

    @pytest.mark.parametrize("arm", ["scatter", "sort"])
    def test_parallel_duplicates_go_to_the_lowest_position(self, arm):
        # Rows 1, 3 and 4 are the same edge (w, min, max) of group 0.
        group = np.array([1, 0, 1, 0, 0, 1], dtype=np.uint32)
        u = np.array([5, 2, 6, 7, 7, 5], dtype=np.uint32)
        v = np.array([6, 7, 5, 2, 2, 6], dtype=np.uint32)
        w = np.array([4, 3, 4, 3, 3, 4], dtype=np.uint32)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(segmented, "_scatter_fits",
                       lambda *a: arm == "scatter")
            groups, pick = lightest_per_group(group, u, v, w, 2)
        assert groups.tolist() == [0, 1] and pick.tolist() == [1, 0]


class TestSortedLookup:
    def test_hits_and_misses(self):
        hay = np.array([2, 5, 9, 40])
        found, idx = sorted_lookup(hay, np.array([5, 3, 40, 99, 2]))
        assert np.array_equal(found, [True, False, True, False, True])
        assert np.array_equal(hay[idx[found]], [5, 40, 2])

    def test_empty_haystack(self):
        found, idx = sorted_lookup(np.empty(0, np.int64),
                                   np.array([1, 2, 3]))
        assert not found.any()
        assert np.array_equal(idx, [0, 0, 0])  # clamped, safe to index with

    def test_all_missing(self):
        found, _ = sorted_lookup(np.array([10, 20, 30]),
                                 np.array([1, 15, 25, 99]))
        assert not found.any()

    def test_empty_needles(self):
        found, idx = sorted_lookup(np.array([1, 2]), np.empty(0, np.int64))
        assert len(found) == 0 and len(idx) == 0


class TestEmptySegmentEdgeCases:
    """Degenerate-shape audit: zero PEs, all-empty PEs, empty interleavings.

    Every kernel must behave exactly like its per-segment reference loop
    when segments vanish -- the shapes Borůvka reaches in late rounds, where
    most PEs hold nothing.  Locked in as regressions so batched-path
    rewrites cannot silently break the p=1 / empty-PE corners.
    """

    EMPTY_I64 = np.empty(0, np.int64)

    def test_zero_segments(self):
        off0 = np.array([0], dtype=np.int64)
        assert segment_ids(off0).size == 0
        assert packed_lexsort(()).size == 0
        u, uo, inv = segmented_unique(self.EMPTY_I64, self.EMPTY_I64, 0)
        assert u.size == 0 and np.array_equal(uo, [0]) and inv.size == 0
        assert segmented_searchsorted(self.EMPTY_I64, off0, self.EMPTY_I64,
                                      self.EMPTY_I64).size == 0
        found, idx = segmented_lookup(self.EMPTY_I64, off0, self.EMPTY_I64,
                                      self.EMPTY_I64)
        assert found.size == 0 and idx.size == 0
        assert route_counts(self.EMPTY_I64, self.EMPTY_I64, 0, 4).shape \
            == (0, 4)
        assert first_in_group(self.EMPTY_I64).size == 0

    def test_all_segments_empty(self):
        p = 4
        off = np.zeros(p + 1, dtype=np.int64)
        u, uo, inv = segmented_unique(self.EMPTY_I64, self.EMPTY_I64, p)
        assert u.size == 0 and np.array_equal(uo, np.zeros(p + 1))
        # Queries against an entirely empty haystack insert at position 0
        # of their (empty) segment and never report a hit.
        needles, nseg = np.array([5, 7]), np.array([1, 3])
        assert np.array_equal(
            segmented_searchsorted(self.EMPTY_I64, off, needles, nseg),
            [0, 0])
        found, idx = segmented_lookup(self.EMPTY_I64, off, needles, nseg)
        assert not found.any()
        assert np.array_equal(idx, [0, 0])  # clamped, safe to index with

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_searchsorted_interleaved_empty_segments(self, rng, side):
        # Many trials with ~half the segments empty, exercising both the
        # shifted-key fast path (narrow ints) and the merged-lexsort
        # fallback (wide ints, floats).
        for dtype, lo, hi in ((np.int64, -3, 10),
                              (np.int64, -(1 << 61), 1 << 61),
                              (np.float64, 0, 1)):
            for _ in range(30):
                p = int(rng.integers(1, 7))
                lens = rng.integers(0, 5, p)
                lens[rng.random(p) < 0.5] = 0
                off = np.zeros(p + 1, np.int64)
                np.cumsum(lens, out=off[1:])
                if dtype is np.float64:
                    flat = rng.random(off[-1])
                else:
                    flat = rng.integers(lo, hi, off[-1])
                hay = (np.concatenate(
                    [np.sort(flat[off[i]:off[i + 1]]) for i in range(p)])
                    if off[-1] else flat)
                nq = int(rng.integers(0, 6))
                needles = (rng.random(nq) if dtype is np.float64
                           else rng.integers(lo - 2, hi + 2, nq))
                nseg = rng.integers(0, p, nq)
                got = segmented_searchsorted(hay, off, needles, nseg,
                                             side=side)
                ref = np.array(
                    [np.searchsorted(hay[off[s]:off[s + 1]], v, side=side)
                     for v, s in zip(needles, nseg)], np.int64)
                assert np.array_equal(got, ref.reshape(got.shape))

    def test_unique_and_lexsort_interleaved_empty_segments(self, rng):
        for _ in range(30):
            p = int(rng.integers(1, 7))
            lens = rng.integers(0, 60, p)
            lens[rng.random(p) < 0.4] = 0
            off = np.zeros(p + 1, np.int64)
            np.cumsum(lens, out=off[1:])
            vals = rng.integers(-1000, 1000, off[-1])
            keys2 = rng.integers(0, 4, off[-1])
            segs = segment_ids(off)
            u, uo, inv = segmented_unique(vals, segs, p)
            perm = segmented_lexsort((vals, keys2), segs)
            for i in range(p):
                sl = slice(off[i], off[i + 1])
                ru, rinv = np.unique(vals[sl], return_inverse=True)
                assert np.array_equal(u[uo[i]:uo[i + 1]], ru)
                assert np.array_equal(inv[sl], rinv)
                # The permutation maps each segment's range onto itself...
                assert np.array_equal(np.sort(perm[sl]),
                                      np.arange(off[i], off[i + 1]))
                # ...and restricted to the segment it IS its stable lexsort.
                assert np.array_equal(perm[sl] - off[i],
                                      np.lexsort((vals[sl], keys2[sl])))

    def test_uint64_beyond_int64_takes_exact_fallback(self):
        # Values past 2^62 must skip the shifted-key packing (it would
        # overflow int64) yet stay exact -- same-dtype concatenation keeps
        # uint64, never a lossy float64 promotion.
        hay = np.array([2 ** 63, 2 ** 63 + 1, 2 ** 63 + 2], dtype=np.uint64)
        off = np.array([0, 3])
        needles = np.array([2 ** 63 + 1], dtype=np.uint64)
        for side, expect in (("left", 1), ("right", 2)):
            assert segmented_searchsorted(hay, off, needles,
                                          np.array([0]), side=side) == expect

    def test_ragged_from_empty_list(self):
        r = RaggedArrays.from_arrays([])
        assert r.n_segments == 0 and len(r) == 0
        assert r.to_arrays() == []
        assert r.segment_ids().size == 0

    def test_from_arrays_honors_caller_dtype(self):
        """An explicit dtype wins over numpy's concatenation promotion."""
        parts = [np.array([1, 2], dtype=np.int64),
                 np.array([3], dtype=np.int64)]
        r = RaggedArrays.from_arrays(parts, dtype=np.uint32)
        assert r.flat.dtype == np.uint32
        assert r.to_arrays()[0].tolist() == [1, 2]
        # Widening works too (differential wide mode rebuilds int64).
        w = RaggedArrays.from_arrays(
            [np.array([7], dtype=np.uint32)], dtype=np.int64)
        assert w.flat.dtype == np.int64
        # Empty input lists take the requested dtype instead of int64 --
        # otherwise an all-empty PE set re-promotes downstream concats.
        e = RaggedArrays.from_arrays([], dtype=np.uint32)
        assert e.flat.dtype == np.uint32
        # Mixed-dtype parts no longer promote when the caller pins narrow.
        m = RaggedArrays.from_arrays(
            [np.array([1], dtype=np.uint32), np.empty(0, dtype=np.int64)],
            dtype=np.uint32)
        assert m.flat.dtype == np.uint32

    def test_from_arrays_default_keeps_input_dtype(self):
        """Without an explicit dtype, same-dtype inputs stay untouched."""
        r = RaggedArrays.from_arrays(
            [np.array([1, 2], dtype=np.uint32),
             np.array([3], dtype=np.uint32)])
        assert r.flat.dtype == np.uint32


# ---------------------------------------------------------------------------
# Differential: production must be simulated-behavior identical to the oracles.
# ---------------------------------------------------------------------------

class TestEngineDifferential:
    @pytest.mark.parametrize("p,threads", [(1, 1), (5, 1), (7, 8), (16, 1)])
    @pytest.mark.parametrize("method", ["direct", "grid", "hypercube"])
    def test_boruvka_bit_identical(self, rng, p, threads, method):
        g = random_simple_graph(rng, 60, 300)
        cfg = BoruvkaConfig(alltoall=method, base_case_min=16)
        assert_engines_agree(g, p, distributed_boruvka, cfg, threads)

    @pytest.mark.parametrize("p", [5, 16])
    def test_filter_boruvka_bit_identical(self, rng, p):
        g = random_simple_graph(rng, 80, 400)
        assert_engines_agree(g, p, distributed_filter_boruvka, FilterConfig())

    @pytest.mark.parametrize("p,method", [(3, "direct"), (7, "grid"),
                                          (16, "direct")])
    def test_awerbuch_shiloach_bit_identical(self, rng, p, method):
        from repro.competitors.awerbuch_shiloach import awerbuch_shiloach_msf

        g = random_simple_graph(rng, 70, 350)
        cfg = BoruvkaConfig(alltoall=method)
        assert_engines_agree(g, p, awerbuch_shiloach_msf, cfg)

    @given(family=st.sampled_from(FAMILIES), n=st.integers(16, 90),
           m_per_n=st.integers(1, 4), seed=st.integers(0, 2 ** 16),
           p=st.integers(1, 8),
           alltoall=st.sampled_from(["auto", "direct", "grid", "grid3",
                                     "hypercube"]))
    def test_property_engines_agree(self, family, n, m_per_n, seed, p,
                                    alltoall):
        graph = gen_family(family, n, m_per_n * n, seed=seed)
        cfg = BoruvkaConfig(alltoall=alltoall, base_case_min=8)
        assert_engines_agree(graph, p, distributed_boruvka, cfg)


class TestEngineSanitizer:
    """The adversarial sanitizer detections must fire on production and on
    the loop oracles (sites are reached through ``core`` so the substitution
    applies)."""

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_clean_run_under_sanitizer(self, rng, engine):
        g = random_simple_graph(rng, 80, 400)
        for algo, cfg in ((distributed_boruvka,
                           BoruvkaConfig(base_case_min=16)),
                          (distributed_filter_boruvka, FilterConfig())):
            machine = Machine(6, sanitize=True)
            dg = DistGraph.from_global_edges(machine, g)
            with on_path(engine):
                algo(dg, cfg)
            assert machine.sanitizer.counters["collectives"] > 0
            assert machine.sanitizer.counters["charges"] > 0

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_unknown_vertex_query_detected(self, rng, engine):
        g = random_simple_graph(rng, 50, 250)
        machine = Machine(5, sanitize=True)
        dg = DistGraph.from_global_edges(machine, g)
        run = MSTRun(machine, BoruvkaConfig())
        with on_path(engine):
            chosen = core.min_edges(dg)
            k = int(np.flatnonzero(~chosen.shared)[0])
            victim = int(np.searchsorted(chosen.voff, k, side="right")) - 1
            with machine.on_pe(victim):
                chosen.to[k] = 10 ** 9
            with pytest.raises(RuntimeError):
                core.contract_components(dg, chosen, run)
