"""Host memory of a round: one full-size copy of the rows at a time.

docs/kernels.md, "One copy at a time".  Pins what the retired buffer pool
and the re-copies of REDISTRIBUTE used to cost, from inside the process:

* the tracemalloc peak of one REDISTRIBUTE, in multiples of the block's
  bytes (the pooled, re-copying path read 5.6 blocks; one packed matrix,
  the sort keys and the one sorted gather read 2.7);
* the per-row PE index the label path shares, cached once per graph at
  the policy width;
* the locality check's one block-wide (PE, vertex) search against the
  per-part search it replaced (:func:`destinations`);
* ``UnionFind.union_edges`` converting its edges chunk by chunk: the
  forest at, just under and just over one chunk equals a single pass;
* the retired ``REPRO_POOL_MAX_MB`` knob failing at ``Machine``
  construction;
* the packed arm of ``segmented_searchsorted`` holding at most two
  needle-sized ``int64`` arrays, and RELABEL's one-segment lookup taking a
  zero-stride needle-segment view instead of a row-sized zero array;
* the chunked RGG radius search staying within its output plus one chunk
  of scratch.

Which packings of per-PE arrays share memory is pinned in
``tests/test_dtypes_pool.py``.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from repro import Machine, minimum_spanning_forest
from repro.core import labels
from repro.core.config import BoruvkaConfig
from repro.core.local_preprocessing import block_destinations
from repro.core.state import MSTRun
from repro.dgraph import DistGraph
from repro.dgraph.edges import Edges
from repro.graphgen import gen_family, radius_for_avg_degree, rgg
from repro.kernels import dtypes, segment_ids, segmented_searchsorted
from repro.seq import union_find
from repro.seq.union_find import UnionFind

from _loop_reference import vertex_groups
from helpers import parts_of

redistribute_mod = sys.modules["repro.core.redistribute"]


def destinations(vids, v):
    """One part's destinations searched among its sorted local ``vids``:
    the per-part reference of ``block_destinations`` (whose ``at`` is
    defined only where ``local``)."""
    idx = np.searchsorted(vids, v)
    at = np.minimum(idx, len(vids) - 1)
    return at, (idx < len(vids)) & (vids[at] == v)

#: Peak bytes of one REDISTRIBUTE above its entry, in blocks.
REDISTRIBUTE_PEAK_BLOCKS = 3.5


def _traced_peak(fn):
    """``fn()``'s result and its tracemalloc peak above the entry."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestRedistributePeak:
    def test_one_packed_matrix_and_one_gather(self):
        g = gen_family("GNM", 1 << 12, 1 << 15, seed=5)
        perm = np.random.default_rng(1).permutation(len(g.edges))
        e = g.edges
        block = Edges(e.u[perm], e.v[perm], e.w[perm], e.id[perm])
        block_bytes = sum(c.nbytes for c in (block.u, block.v, block.w,
                                             block.id))
        p = 64
        machine = Machine(p, seed=3, sanitize=False, trace_events=False)
        run = MSTRun(machine, BoruvkaConfig())
        offsets = np.linspace(0, len(block), p + 1).astype(np.int64)
        want = redistribute_mod.redistribute(run, machine, block, offsets)
        got, peak = _traced_peak(lambda: redistribute_mod.redistribute(
            run, machine, block, offsets))
        for col in ("u", "v", "w", "id"):
            np.testing.assert_array_equal(getattr(got.edges, col),
                                          getattr(want.edges, col))
        assert peak <= REDISTRIBUTE_PEAK_BLOCKS * block_bytes, (
            f"REDISTRIBUTE peaked at {peak / block_bytes:.2f} blocks")


class TestRowIndex:
    @pytest.mark.parametrize("narrowing", [True, False])
    def test_row_pes_cached_at_policy_width(self, monkeypatch, narrowing):
        monkeypatch.setattr(dtypes, "NARROWING", narrowing)
        p = 5
        g = gen_family("GNM", 1 << 8, 1 << 10, seed=2)
        dg = DistGraph.from_global_edges(Machine(p), g.edges)
        rows = dg.row_pes()
        assert rows is dg.row_pes()
        assert rows.dtype == dtypes.index_dtype(p)
        np.testing.assert_array_equal(rows, segment_ids(dg.offsets))
        np.testing.assert_array_equal(
            dg.run_offsets(), np.searchsorted(dg.source_runs(), dg.offsets))
        homes = dg.home_of_edges(dg.edges.v, dg.edges.u, dg.edges.w)
        assert homes.dtype == rows.dtype

    @pytest.mark.parametrize("family", ["GNM", "2D-RGG", "RHG"])
    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_block_destinations_equal_per_part(self, family, p):
        g = gen_family(family, 1 << 9, 1 << 11, seed=p)
        bounds = np.linspace(0, len(g.edges), p + 1).astype(np.int64)
        if p == 8:  # interior and trailing empty parts
            bounds = np.array([0, 0, bounds[2], bounds[2], bounds[4],
                               bounds[8], bounds[8], bounds[8], bounds[8]])
        parts = [g.edges.take(np.arange(a, b))
                 for a, b in zip(bounds[:-1], bounds[1:])]
        dg = DistGraph.from_parts(Machine(p), parts)
        at, local = block_destinations(dg)
        off = dg.offsets
        for i, part in enumerate(parts_of(dg)):
            want_at, want_local = destinations(vertex_groups(dg, i)[0],
                                               part.v)
            got_local = local[off[i]:off[i + 1]]
            np.testing.assert_array_equal(got_local, want_local)
            # ``at`` is defined where the destination is local.
            np.testing.assert_array_equal(at[off[i]:off[i + 1]][got_local],
                                          want_at[want_local])


class TestSearchPeaks:
    def test_packed_searchsorted_holds_two_needle_arrays(self):
        rng = np.random.default_rng(3)
        p, q = 64, 1 << 18
        hay = [np.unique(rng.integers(0, 1 << 14, 300)) for _ in range(p)]
        offsets = np.cumsum([0] + [len(h) for h in hay])
        haystack = np.concatenate(hay).astype(np.uint32)
        needles = rng.integers(0, 1 << 14, q).astype(np.uint32)
        seg = np.sort(rng.integers(0, p, q)).astype(np.uint8)
        found, peak = _traced_peak(lambda: segmented_searchsorted(
            haystack, offsets, needles, seg))
        want = np.concatenate([np.searchsorted(hay[k], needles[seg == k])
                               for k in range(p)])
        np.testing.assert_array_equal(found, want)
        # The needle cells and the result; the segment starts are gathered
        # once the cells are gone.  Plus the haystack keys and some slack.
        assert peak <= 2 * 8 * q + 2 * 8 * len(haystack) + (64 << 10), (
            f"peaked at {peak / (8 * q):.2f} needle-sized int64 arrays")

    def test_relabel_needle_segments_are_a_zero_stride_view(self,
                                                            monkeypatch):
        seen = []
        lookup = labels.segmented_lookup

        def spy(haystack, hay_offsets, needles, needle_seg):
            seen.append((len(hay_offsets), needle_seg.strides,
                         len(needle_seg) == len(needles)))
            return lookup(haystack, hay_offsets, needles, needle_seg)

        monkeypatch.setattr(labels, "segmented_lookup", spy)
        g = gen_family("GNM", 1 << 10, 1 << 12, seed=4)
        res = minimum_spanning_forest(
            g.distribute(Machine(4)), algorithm="boruvka",
            config=BoruvkaConfig(base_case_min=16, local_preprocessing=False))
        assert res.rounds >= 1 and seen
        assert all(s == (2, (0,), True) for s in seen)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_radius_search_peak_is_output_plus_one_chunk(self, dim):
        n = 1 << 14
        points = np.random.default_rng(3).random((n, dim))
        radius = radius_for_avg_degree(n, 32, dim)
        (i, j), peak = _traced_peak(lambda: rgg.radius_pairs(points, radius))
        out = i.nbytes + j.nbytes
        # Kept pairs wait as int32 and are concatenated into the int64
        # result; one chunk of 2^16 candidates at about 48 bytes each (the
        # whole search here tests 12-26x that many); per-point and per-cell
        # arrays are a few int64 per point.
        bound = 1.5 * out + 64 * (1 << 16) + 64 * n
        assert peak <= bound, (f"radius_pairs peaked at {peak >> 20} MB, "
                               f"bound {int(bound) >> 20} MB")


class TestUnionEdgesChunks:
    @staticmethod
    def _state(uf):
        return uf.parent.copy(), uf.rank.copy(), uf.n_components

    @pytest.mark.parametrize("n_edges", [(1 << 15) - 1, 1 << 15,
                                         (1 << 15) + 1])
    @pytest.mark.parametrize("n", [1 << 10, 1 << 18])  # list / array arm
    def test_chunks_equal_one_pass(self, monkeypatch, n_edges, n):
        rng = np.random.default_rng(n_edges + n)
        us = rng.integers(0, n, n_edges).astype(np.uint32)
        vs = rng.integers(0, n, n_edges).astype(np.uint32)
        first = rng.integers(0, n, (64, 2))

        def union(chunk):
            monkeypatch.setattr(union_find, "UNION_CHUNK", chunk)
            uf = UnionFind(n)
            uf.union_edges(first[:, 0], first[:, 1])  # carried-in state
            return uf.union_edges(us, vs), self._state(uf)

        keep, (parent, rank, comps) = union(1 << 15)
        want_keep, (want_parent, want_rank, want_comps) = union(1 << 40)
        np.testing.assert_array_equal(keep, want_keep)
        np.testing.assert_array_equal(parent, want_parent)
        np.testing.assert_array_equal(rank, want_rank)
        assert comps == want_comps


class TestRetiredPoolKnob:
    def test_pool_budget_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_MAX_MB", "1")
        with pytest.raises(ValueError,
                           match="REPRO_POOL_MAX_MB is retired"):
            Machine(2)
        monkeypatch.setenv("REPRO_POOL_MAX_MB", "")  # set but empty
        assert Machine(2).pool.stats() == {"hits": 0, "misses": 0}
