"""Integration tests: distributed Filter-Borůvka (Algorithm 2) vs Kruskal."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BoruvkaConfig,
    FilterConfig,
    distributed_boruvka,
    distributed_filter_boruvka,
)
from repro.dgraph import DistGraph, Edges
from repro.graphgen import FAMILIES, gen_family
from repro.seq import kruskal_msf, verify_msf
from repro.simmpi import Machine

from helpers import random_distinct_weight_graph, random_simple_graph

#: The module, not the function the package re-exports under its name.
filter_boruvka = sys.modules["repro.core.filter_boruvka"]


def _cfg(**kwargs):
    return FilterConfig(boruvka=BoruvkaConfig(base_case_min=16),
                        sparse_avg_degree=2.0, min_edges_per_proc=8,
                        **kwargs)


class TestRandomGraphs:
    @pytest.mark.parametrize("p", [1, 2, 4, 7, 12])
    def test_matches_kruskal(self, p, rng):
        for _ in range(4):
            n = int(rng.integers(8, 100))
            g = random_simple_graph(rng, n, 5 * n)
            if len(g) == 0:
                continue
            dg = DistGraph.from_global_edges(Machine(p), g)
            res = distributed_filter_boruvka(dg, _cfg())
            verify_msf(res.msf_edges(), g, n, check_edges=False)

    def test_identical_edges_with_distinct_weights(self, rng):
        n = 60
        g = random_distinct_weight_graph(rng, n, 5 * n)
        dg = DistGraph.from_global_edges(Machine(5), g)
        res = distributed_filter_boruvka(dg, _cfg())
        verify_msf(res.msf_edges(), g, n, check_edges=True)

    def test_agrees_with_plain_boruvka(self, rng):
        n = 70
        g = random_simple_graph(rng, n, 6 * n)
        dg1 = DistGraph.from_global_edges(Machine(6), g)
        dg2 = DistGraph.from_global_edges(Machine(6), g)
        r1 = distributed_boruvka(dg1, BoruvkaConfig(base_case_min=16))
        r2 = distributed_filter_boruvka(dg2, _cfg())
        assert r1.total_weight == r2.total_weight


class TestRecursionPaths:
    def test_all_equal_weights_degenerate_pivot(self, rng):
        n = 50
        g = random_simple_graph(rng, n, 5 * n)
        g.w[:] = 7
        dg = DistGraph.from_global_edges(Machine(4), g)
        res = distributed_filter_boruvka(dg, _cfg())
        verify_msf(res.msf_edges(), g, n, check_edges=False)

    def test_sparse_input_goes_straight_to_base_case(self, rng):
        n = 50
        g = random_simple_graph(rng, n, n)  # avg degree ~2
        dg = DistGraph.from_global_edges(Machine(4), g)
        res = distributed_filter_boruvka(dg, _cfg())
        verify_msf(res.msf_edges(), g, n, check_edges=False)
        assert res.phase_times.get("pivot_partition", 0.0) == 0.0

    def test_dense_input_filters(self, rng):
        n = 40
        g = random_simple_graph(rng, n, 15 * n)
        dg = DistGraph.from_global_edges(Machine(4), g)
        res = distributed_filter_boruvka(dg, _cfg())
        verify_msf(res.msf_edges(), g, n, check_edges=False)
        assert res.phase_times.get("filter", 0.0) > 0.0

    def test_merge_back_path(self, rng):
        # A huge merge_back_fraction forces the propagate-back branch.
        n = 60
        g = random_simple_graph(rng, n, 10 * n)
        dg = DistGraph.from_global_edges(Machine(4), g)
        cfg = FilterConfig(boruvka=BoruvkaConfig(base_case_min=16),
                           sparse_avg_degree=2.0, min_edges_per_proc=8,
                           merge_back_fraction=0.99)
        res = distributed_filter_boruvka(dg, cfg)
        verify_msf(res.msf_edges(), g, n, check_edges=False)

    def test_accepts_plain_boruvka_config(self, rng):
        n = 40
        g = random_simple_graph(rng, n, 4 * n)
        dg = DistGraph.from_global_edges(Machine(3), g)
        res = distributed_filter_boruvka(dg, BoruvkaConfig(base_case_min=16))
        verify_msf(res.msf_edges(), g, n, check_edges=False)


class TestFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_generator_families(self, family):
        g = gen_family(family, 400, 2400, seed=6)
        dg = g.distribute(Machine(6))
        res = distributed_filter_boruvka(dg, _cfg())
        verify_msf(res.msf_edges(), g.edges, g.n_vertices,
                   check_edges=False)


class TestShapeClaims:
    def test_filter_reduces_communication_on_dense_gnm(self):
        """The mechanism behind the paper's up-to-4x GNM speedup:
        filtering moves most heavy edges out before they are ever
        redistributed, cutting the bytes on the wire."""
        g = gen_family("GNM", 1024, 16384, seed=7)
        m1, m2 = Machine(16), Machine(16)
        r_plain = distributed_boruvka(
            g.distribute(m1), BoruvkaConfig(base_case_min=64))
        r_filter = distributed_filter_boruvka(
            g.distribute(m2),
            FilterConfig(boruvka=BoruvkaConfig(base_case_min=64)))
        assert r_filter.stats["bytes_communicated"] < \
            r_plain.stats["bytes_communicated"]


class TestPropertyBased:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 8), st.integers(8, 40), st.integers(0, 10 ** 6))
    def test_weight_invariant(self, p, n, seed):
        rng = np.random.default_rng(seed)
        g = random_simple_graph(rng, n, 5 * n)
        if len(g) == 0:
            return
        dg = DistGraph.from_global_edges(Machine(p), g)
        res = distributed_filter_boruvka(dg, _cfg())
        assert res.total_weight == kruskal_msf(g, n).total_weight()


class TestMergeCarried:
    @pytest.mark.parametrize("p", [1, 2, 3, 64])
    def test_interleave_is_per_pe_concat(self, p, rng):
        """The heavy block merged with a carried set holds, PE by PE, the
        heavy rows then the carried rows (what per-PE concatenation
        built), empty PEs on either side included."""
        sides = []
        for _ in range(2):
            sizes = rng.integers(0, 4, p) * (rng.random(p) < 0.6)
            parts = [Edges(*rng.integers(0, 99, (4, int(k))).astype(
                np.uint32)) for k in sizes]
            sides.append((parts, Edges.concat(parts),
                          np.concatenate(([0], np.cumsum(sizes)))))
        (a_parts, a, a_off), (b_parts, b, b_off) = sides
        merged, off = filter_boruvka._interleave(a, a_off, b, b_off)
        want = [Edges.concat([x, y]) for x, y in zip(a_parts, b_parts)]
        assert off.tolist() == np.cumsum([0] + list(map(len, want))).tolist()
        for col in ("u", "v", "w", "id"):
            assert getattr(merged, col).tolist() == [
                int(x) for part in want for x in getattr(part, col)]


@pytest.fixture
def rng():
    return np.random.default_rng(97)
