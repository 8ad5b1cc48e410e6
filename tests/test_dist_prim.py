"""Tests for the replicated-vertex distributed Prim
(repro.competitors.dist_prim)."""

import numpy as np
import pytest

from repro.competitors import dist_prim
from repro.core import BoruvkaConfig, distributed_boruvka
from repro.dgraph import DistGraph, Edges
from repro.graphgen import gen_family
from repro.seq import verify_msf
from repro.simmpi import Machine

from helpers import random_distinct_weight_graph, random_simple_graph


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4, 9])
    def test_matches_kruskal(self, p, rng):
        n = int(rng.integers(10, 60))
        g = random_simple_graph(rng, n, 4 * n)
        dg = DistGraph.from_global_edges(Machine(p), g)
        res = dist_prim(dg)
        verify_msf(res.msf_edges(), g, n, check_edges=False)
        assert res.algorithm == "dist-prim"

    def test_identical_edges_with_distinct_weights(self, rng):
        n = 40
        g = random_distinct_weight_graph(rng, n, 3 * n)
        dg = DistGraph.from_global_edges(Machine(5), g)
        res = dist_prim(dg)
        verify_msf(res.msf_edges(), g, n, check_edges=True)

    def test_disconnected_forest(self, rng):
        a = random_simple_graph(rng, 12, 40)
        b = random_simple_graph(rng, 12, 40)
        g = Edges.concat([a, Edges(b.u + 12, b.v + 12, b.w)]).sort_lex()
        g.id[:] = np.arange(len(g))
        dg = DistGraph.from_global_edges(Machine(4), g)
        res = dist_prim(dg)
        verify_msf(res.msf_edges(), g, 24, check_edges=False)

    def test_empty_graph(self):
        dg = DistGraph.from_parts(Machine(3), [Edges.empty()] * 3)
        res = dist_prim(dg)
        assert res.total_weight == 0


class TestScalingCharacter:
    def test_linear_round_count_dominates(self):
        """Theta(n) collectives: the latency share grows with n, unlike
        Borůvka's logarithmic round count (the reason [24] stops at 16
        cores)."""
        times = {}
        for n_scale in (1, 2):
            g = gen_family("GNM", 128 * n_scale, 512 * n_scale, seed=24)
            m1, m2 = Machine(8), Machine(8)
            t_prim = dist_prim(g.distribute(m1)).elapsed
            t_boruvka = distributed_boruvka(
                g.distribute(m2), BoruvkaConfig(base_case_min=32)).elapsed
            times[n_scale] = t_prim / t_boruvka
        assert times[1] > 1.0, "Prim should already lose at small n"
        assert times[2] > times[1], "and fall further behind as n grows"


@pytest.fixture
def rng():
    return np.random.default_rng(173)
