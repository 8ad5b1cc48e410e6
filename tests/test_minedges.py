"""Tests for MINEDGES (repro.core.minedges)."""

import numpy as np
import pytest

from repro.core import min_edges
from repro.dgraph import DistGraph
from repro.simmpi import Machine

from helpers import random_simple_graph


def _naive_min(graph, vertex):
    """Brute-force lightest incident edge by the (w, cu, cv) order."""
    best = None
    e = graph
    for k in range(len(e)):
        if e.u[k] != vertex:
            continue
        key = (int(e.w[k]), int(min(e.u[k], e.v[k])),
               int(max(e.u[k], e.v[k])))
        if best is None or key < best[0]:
            best = (key, int(e.v[k]), int(e.id[k]))
    return best


class TestMinEdges:
    def test_matches_bruteforce(self, rng):
        g = random_simple_graph(rng, 30, 150)
        dg = DistGraph.from_global_edges(Machine(5), g, avoid_shared=True)
        ch = min_edges(dg)
        for k, v in enumerate(ch.vids):
            key, to, eid = _naive_min(g, v)
            assert ch.to[k] == to or (
                int(ch.weight[k]), int(min(v, ch.to[k])),
                int(max(v, ch.to[k]))) == key
            assert ch.weight[k] == key[0]

    def test_covers_all_local_vertices(self, rng):
        g = random_simple_graph(rng, 40, 200)
        dg = DistGraph.from_global_edges(Machine(6), g)
        chosen = min_edges(dg)
        seen = chosen.vids
        # Every distinct source appears (shared ones possibly twice).
        assert set(np.unique(g.u)) == set(np.unique(seen))

    def test_shared_vertices_flagged(self, rng):
        g = random_simple_graph(rng, 40, 300)
        dg = DistGraph.from_global_edges(Machine(8), g)  # shared allowed
        shared_set = set(dg.shared_vertex_set().tolist())
        chosen = min_edges(dg)
        for k, v in enumerate(chosen.vids):
            assert chosen.shared[k] == (int(v) in shared_set)

    def test_empty_pe(self):
        from repro.dgraph import Edges

        dg = DistGraph.from_parts(Machine(3), [Edges.empty()] * 3)
        chosen = min_edges(dg)
        assert len(chosen) == 0 and chosen.voff.tolist() == [0, 0, 0, 0]

    def test_charges_time(self, rng):
        g = random_simple_graph(rng, 30, 150)
        m = Machine(4)
        dg = DistGraph.from_global_edges(m, g)
        before = m.elapsed()
        min_edges(dg)
        assert m.elapsed() > before


@pytest.fixture
def rng():
    return np.random.default_rng(31)
