"""Integration tests: distributed Borůvka (Algorithm 1) vs Kruskal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BoruvkaConfig, distributed_boruvka
from repro.dgraph import DistGraph
from repro.graphgen import FAMILIES, gen_family
from repro.seq import kruskal_msf, verify_msf
from repro.simmpi import Machine

from helpers import (parts_of, random_distinct_weight_graph,
                     random_simple_graph)


class TestRandomGraphs:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13])
    def test_matches_kruskal(self, p, rng):
        for _ in range(4):
            n = int(rng.integers(5, 90))
            g = random_simple_graph(rng, n, 4 * n)
            if len(g) == 0:
                continue
            dg = DistGraph.from_global_edges(Machine(p), g)
            res = distributed_boruvka(dg, BoruvkaConfig(base_case_min=16))
            verify_msf(res.msf_edges(), g, n, check_edges=False)

    def test_identical_edges_with_distinct_weights(self, rng):
        for p in (1, 4, 7):
            n = 50
            g = random_distinct_weight_graph(rng, n, 3 * n)
            dg = DistGraph.from_global_edges(Machine(p), g)
            res = distributed_boruvka(dg, BoruvkaConfig(base_case_min=16))
            verify_msf(res.msf_edges(), g, n, check_edges=True)

    def test_deterministic(self, rng):
        n = 40
        g = random_simple_graph(rng, n, 150)
        outs = []
        for _ in range(2):
            dg = DistGraph.from_global_edges(Machine(5, seed=9), g)
            res = distributed_boruvka(dg, BoruvkaConfig(base_case_min=16))
            outs.append(res)
        assert outs[0].total_weight == outs[1].total_weight
        assert outs[0].elapsed == outs[1].elapsed
        a = outs[0].msf_edges()
        b = outs[1].msf_edges()
        assert np.array_equal(a.canonical_triples(), b.canonical_triples())


class TestConfigurations:
    @pytest.mark.parametrize("alltoall", ["direct", "grid", "hypercube",
                                          "auto"])
    def test_alltoall_variants(self, alltoall, rng):
        n = 60
        g = random_simple_graph(rng, n, 250)
        dg = DistGraph.from_global_edges(Machine(6), g)
        cfg = BoruvkaConfig(base_case_min=16, alltoall=alltoall)
        res = distributed_boruvka(dg, cfg)
        verify_msf(res.msf_edges(), g, n, check_edges=False)

    @pytest.mark.parametrize("sorter", ["hypercube", "samplesort", "auto"])
    def test_sorter_variants(self, sorter, rng):
        n = 60
        g = random_simple_graph(rng, n, 250)
        dg = DistGraph.from_global_edges(Machine(6), g)
        cfg = BoruvkaConfig(base_case_min=16, sorter=sorter)
        res = distributed_boruvka(dg, cfg)
        verify_msf(res.msf_edges(), g, n, check_edges=False)

    def test_without_preprocessing(self, rng):
        n = 60
        g = random_simple_graph(rng, n, 250)
        dg = DistGraph.from_global_edges(Machine(6), g)
        cfg = BoruvkaConfig(base_case_min=16, local_preprocessing=False)
        res = distributed_boruvka(dg, cfg)
        verify_msf(res.msf_edges(), g, n, check_edges=False)
        assert res.phase_times.get("local_preprocessing", 0.0) == 0.0

    def test_paper_default_threshold_goes_straight_to_base_case(self, rng):
        n = 60
        g = random_simple_graph(rng, n, 250)
        dg = DistGraph.from_global_edges(Machine(4), g)
        res = distributed_boruvka(dg, BoruvkaConfig.paper_defaults())
        verify_msf(res.msf_edges(), g, n, check_edges=False)
        assert res.rounds == 0  # n << 35 000


class TestFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_generator_families(self, family):
        g = gen_family(family, 400, 1600, seed=5)
        dg = g.distribute(Machine(6))
        res = distributed_boruvka(dg, BoruvkaConfig(base_case_min=32))
        verify_msf(res.msf_edges(), g.edges, g.n_vertices,
                   check_edges=False)


class TestResultObject:
    def test_fields(self, rng):
        n = 40
        g = random_simple_graph(rng, n, 150)
        dg = DistGraph.from_global_edges(Machine(4), g)
        res = distributed_boruvka(dg, BoruvkaConfig(base_case_min=8))
        assert res.algorithm == "boruvka"
        assert res.elapsed > 0
        assert res.total_weight == kruskal_msf(g, n).total_weight()
        assert set(res.phase_times) & {"min_edges", "base_case"}
        assert res.stats["n_collectives"] > 0
        assert len(res.msf_parts) == 4

    def test_output_on_home_pes(self, rng):
        """Each MSF edge is reported by the PE owning its id range."""
        n = 40
        g = random_simple_graph(rng, n, 150)
        machine = Machine(4)
        dg = DistGraph.from_global_edges(machine, g)
        sizes = [len(p) for p in parts_of(dg)]
        starts = np.concatenate([[0], np.cumsum(sizes)])
        res = distributed_boruvka(dg, BoruvkaConfig(base_case_min=8))
        for i, part in enumerate(res.msf_parts):
            assert ((part.id >= starts[i]) & (part.id < starts[i + 1])).all()

    def test_original_endpoints_reported(self, rng):
        n = 40
        g = random_simple_graph(rng, n, 150)
        dg = DistGraph.from_global_edges(Machine(4), g)
        res = distributed_boruvka(dg, BoruvkaConfig(base_case_min=8))
        msf = res.msf_edges()
        for k in range(len(msf)):
            pos = int(msf.id[k])
            assert g.u[pos] == msf.u[k]
            assert g.v[pos] == msf.v[k]
            assert g.w[pos] == msf.w[k]


class TestPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 8), st.integers(4, 40), st.integers(0, 10 ** 6))
    def test_weight_invariant(self, p, n, seed):
        rng = np.random.default_rng(seed)
        g = random_simple_graph(rng, n, 3 * n)
        if len(g) == 0:
            return
        dg = DistGraph.from_global_edges(Machine(p), g)
        res = distributed_boruvka(dg, BoruvkaConfig(base_case_min=8))
        assert res.total_weight == kruskal_msf(g, n).total_weight()


@pytest.fixture
def rng():
    return np.random.default_rng(83)
