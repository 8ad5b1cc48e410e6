"""Cross-verification of the sequential MST baselines (repro.seq)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dgraph import Edges
from repro.seq import union_find
from repro.seq import (
    FilterStats,
    boruvka_msf,
    filter_boruvka_msf,
    filter_kruskal_msf,
    kruskal_msf,
    msf_weight,
    networkx_msf_weight,
    prim_msf,
    verify_msf,
)

from helpers import random_distinct_weight_graph, random_simple_graph

ALGORITHMS = [
    kruskal_msf,
    prim_msf,
    boruvka_msf,
    lambda e, n: filter_kruskal_msf(e, n, base_case_size=16),
    lambda e, n: filter_boruvka_msf(e, n, base_case_size=16),
]
NAMES = ["kruskal", "prim", "boruvka", "filter-kruskal", "filter-boruvka"]


class TestCrossAgreement:
    @pytest.mark.parametrize("alg,name", zip(ALGORITHMS, NAMES), ids=NAMES)
    def test_weight_matches_networkx(self, alg, name, rng):
        for trial in range(8):
            n = int(rng.integers(3, 60))
            g = random_simple_graph(rng, n, 4 * n)
            if len(g) == 0:
                continue
            msf = alg(g, n)
            verify_msf(msf, g, n, check_edges=False)
            assert msf.total_weight() == networkx_msf_weight(g, n), (name,
                                                                     trial)

    @pytest.mark.parametrize("alg,name", zip(ALGORITHMS, NAMES), ids=NAMES)
    def test_identical_edge_set_with_distinct_weights(self, alg, name, rng):
        for trial in range(5):
            n = int(rng.integers(3, 50))
            g = random_distinct_weight_graph(rng, n, 4 * n)
            if len(g) == 0:
                continue
            ref = kruskal_msf(g, n).canonical_triples()
            got = alg(g, n).canonical_triples()
            assert np.array_equal(got, ref), (name, trial)


class TestEdgeCases:
    def test_empty_graph(self):
        for alg in ALGORITHMS:
            assert len(alg(Edges.empty(), 5)) == 0

    def test_single_edge(self):
        e = Edges(np.array([0, 1]), np.array([1, 0]), np.array([7, 7]))
        for alg, name in zip(ALGORITHMS, NAMES):
            msf = alg(e, 2)
            assert msf.total_weight() == 7, name
            assert len(msf) == 1, name

    def test_path_graph_keeps_everything(self):
        n = 20
        u = np.arange(n - 1)
        e = Edges(u, u + 1, np.arange(1, n))
        for alg, name in zip(ALGORITHMS, NAMES):
            msf = alg(e, n)
            assert len(msf) == n - 1, name
            assert msf.total_weight() == e.total_weight(), name

    def test_cycle_drops_heaviest(self):
        n = 10
        u = np.arange(n)
        v = (u + 1) % n
        w = np.arange(1, n + 1)
        e = Edges(u, v, w)
        for alg, name in zip(ALGORITHMS, NAMES):
            msf = alg(e, n)
            assert len(msf) == n - 1, name
            assert msf.total_weight() == w.sum() - n, name

    def test_parallel_edges_keep_lightest(self):
        e = Edges(np.array([0, 0, 0]), np.array([1, 1, 1]),
                  np.array([9, 2, 5]))
        for alg, name in zip(ALGORITHMS, NAMES):
            assert alg(e, 2).total_weight() == 2, name

    def test_disconnected_forest(self, rng):
        a = random_simple_graph(rng, 10, 20)
        b = random_simple_graph(rng, 10, 20)
        b2 = Edges(b.u + 10, b.v + 10, b.w)
        g = Edges.concat([a, b2]).sort_lex()
        for alg, name in zip(ALGORITHMS, NAMES):
            verify_msf(alg(g, 20), g, 20, check_edges=False)

    def test_out_of_range_labels_rejected(self):
        e = Edges(np.array([0]), np.array([5]), np.array([1]))
        with pytest.raises(ValueError):
            kruskal_msf(e, 3)

    def test_msf_weight_helper(self, rng):
        g = random_simple_graph(rng, 20, 60)
        assert msf_weight(g, 20) == kruskal_msf(g, 20).total_weight()


class TestFilterStats:
    def test_stats_populated(self, rng):
        g = random_simple_graph(rng, 100, 1000)
        stats = FilterStats()
        filter_boruvka_msf(g, 100, base_case_size=64, stats=stats)
        assert stats.base_case_calls >= 1
        assert stats.edges_touched >= len(g)
        assert stats.partition_rounds >= 1

    def test_filtering_drops_edges_on_dense_input(self, rng):
        g = random_simple_graph(rng, 40, 1500)
        stats = FilterStats()
        filter_boruvka_msf(g, 40, base_case_size=32, stats=stats)
        assert stats.filtered_out > 0


class TestTieHeavyFilter:
    """Three distinct weights on a sparse graph: most pivots are degenerate
    (every row light), so the recursion leans on its base case."""

    N = 2000

    @classmethod
    def _graph(cls):
        g = random_simple_graph(np.random.default_rng(11), cls.N, 6000)
        return Edges(g.u, g.v, np.array([1, 5, 9])[g.w % 3], g.id)

    @pytest.mark.parametrize("base_case_size", [64, 1024])
    def test_boruvka_base_case_makes_no_scalar_unions(self, base_case_size,
                                                      monkeypatch):
        calls = []
        union_edges = union_find.UnionFind.union_edges

        def counted(uf, us, vs):
            calls.append(len(us))
            return union_edges(uf, us, vs)

        monkeypatch.setattr(union_find.UnionFind, "union_edges", counted)
        g = self._graph()
        assert len(np.unique(g.w)) == 3 and len(g) > 10 * base_case_size
        msf = filter_boruvka_msf(g, self.N, base_case_size=base_case_size)
        assert calls == []
        assert msf.total_weight() == msf_weight(g, self.N)
        verify_msf(msf, g, self.N, check_edges=False)
        assert filter_kruskal_msf(g, self.N, base_case_size=base_case_size
                                  ).total_weight() == msf_weight(g, self.N)

    @pytest.mark.parametrize("solve", [filter_boruvka_msf, filter_kruskal_msf])
    def test_stats_pinned(self, solve):
        """The counters depend only on connectivity, not on which of two
        tied edges a base case keeps."""
        stats = FilterStats()
        solve(self._graph(), self.N, base_case_size=64, stats=stats)
        assert stats == FilterStats(base_case_calls=2, base_case_edges=8148,
                                    partition_rounds=3, filtered_out=3824,
                                    edges_touched=20120)


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 5), st.integers(0, 10 ** 6))
    def test_all_algorithms_same_weight(self, n, density, seed):
        rng = np.random.default_rng(seed)
        g = random_simple_graph(rng, n, density * n)
        if len(g) == 0:
            return
        weights = {name: alg(g, n).total_weight()
                   for alg, name in zip(ALGORITHMS, NAMES)}
        assert len(set(weights.values())) == 1, weights

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 10 ** 6))
    def test_msf_is_spanning_forest(self, n, seed):
        rng = np.random.default_rng(seed)
        g = random_simple_graph(rng, n, 3 * n)
        if len(g) == 0:
            return
        verify_msf(kruskal_msf(g, n), g, n, check_edges=False)


@pytest.fixture
def rng():
    return np.random.default_rng(23)
