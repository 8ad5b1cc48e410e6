"""Tests for distributed connected components (repro.core.connectivity)."""

import numpy as np
import pytest

from repro.core import BoruvkaConfig, connected_components
from repro.dgraph import DistGraph, Edges
from repro.seq import UnionFind
from repro.simmpi import Machine

from helpers import random_simple_graph


def _reference_partition(g, n):
    uf = UnionFind(n)
    uf.union_edges(g.u, g.v)
    return uf


class TestConnectedComponents:
    @pytest.mark.parametrize("p", [1, 2, 4, 7, 9])
    def test_matches_union_find(self, p, rng):
        n = 60
        g = random_simple_graph(rng, n, 100)  # sparse -> several components
        dg = DistGraph.from_global_edges(Machine(p), g)
        res = connected_components(dg, BoruvkaConfig(base_case_min=16))
        ref = _reference_partition(g, n)
        labels = res.labels()
        vertices = np.unique(g.u)
        for a in vertices:
            for b in vertices:
                same_ref = ref.connected(int(a), int(b))
                same_got = labels[a] == labels[b]
                assert same_ref == same_got, (a, b)

    def test_component_count(self, rng):
        n = 50
        g = random_simple_graph(rng, n, 60)
        dg = DistGraph.from_global_edges(Machine(4), g)
        res = connected_components(dg)
        ref = _reference_partition(g, n)
        vertices = np.unique(g.u)
        expected = len(np.unique(ref.find_many(vertices)))
        assert res.n_components == expected

    def test_connected_graph_single_component(self, rng):
        n = 30
        u = np.arange(n - 1)
        g = Edges(np.concatenate([u, u + 1]),
                  np.concatenate([u + 1, u]),
                  np.ones(2 * (n - 1), dtype=np.int64)).sort_lex()
        g.id[:] = np.arange(len(g))
        dg = DistGraph.from_global_edges(Machine(3), g)
        res = connected_components(dg, BoruvkaConfig(base_case_min=8))
        assert res.n_components == 1

    def test_labels_are_representatives(self, rng):
        """Two vertices share a component iff they share a label, and the
        label is itself a member of the component."""
        n = 40
        g = random_simple_graph(rng, n, 70)
        dg = DistGraph.from_global_edges(Machine(5), g)
        res = connected_components(dg)
        labels = res.labels()
        ref = _reference_partition(g, n)
        for v in np.unique(g.u):
            rep = int(labels[v])
            assert ref.connected(int(v), rep)

    def test_empty_graph(self):
        dg = DistGraph.from_parts(Machine(3), [Edges.empty()] * 3)
        res = connected_components(dg)
        assert res.n_components == 0

    def test_elapsed_and_phases_populated(self, rng):
        g = random_simple_graph(rng, 40, 120)
        dg = DistGraph.from_global_edges(Machine(4), g)
        res = connected_components(dg)
        assert res.elapsed > 0
        assert res.phase_times


@pytest.fixture
def rng():
    return np.random.default_rng(131)
