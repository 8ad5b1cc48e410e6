"""Tests for component contraction / pointer doubling (repro.core.contraction)."""

import numpy as np
import pytest

from repro.core import BoruvkaConfig, MSTRun, contract_components, min_edges
from repro.dgraph import DistGraph, Edges
from repro.seq import UnionFind, kruskal_msf
from repro.simmpi import Machine

from helpers import random_simple_graph


def _run_contraction(g, p, alltoall="auto"):
    machine = Machine(p)
    dg = DistGraph.from_global_edges(machine, g)
    run = MSTRun(machine, BoruvkaConfig(alltoall=alltoall))
    chosen = min_edges(dg)
    labels = contract_components(dg, chosen, run)
    return dg, run, chosen, labels


class TestContraction:
    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    @pytest.mark.parametrize("alltoall", ["direct", "grid", "hypercube"])
    def test_labels_are_fixpoints(self, p, alltoall, rng):
        """Every label must map to itself (roots of stars)."""
        g = random_simple_graph(rng, 40, 160)
        dg, run, chosen, labels = _run_contraction(g, p, alltoall)
        # Build global vertex -> label map (shared vertices map to self).
        global_map = {}
        for v, l in zip(chosen.vids, labels):
            global_map[int(v)] = int(l)
        for v, l in global_map.items():
            assert global_map.get(l, l) == l, (v, l)

    def test_chosen_edges_connect_vertex_to_label_component(self, rng):
        """u and L(u) must be connected via selected MST edges."""
        g = random_simple_graph(rng, 30, 120)
        p = 4
        dg, run, chosen, labels = _run_contraction(g, p)
        n = int(max(g.u.max(), g.v.max())) + 1
        uf = UnionFind(n)
        for i in range(p):
            rec = run.collected(i)
            for eid, w in rec:
                pos = np.flatnonzero(g.id == eid)[0]
                uf.union(int(g.u[pos]), int(g.v[pos]))
        for v, l in zip(chosen.vids, labels):
            assert uf.connected(int(v), int(l)), (v, l)

    def test_recorded_edges_form_forest(self, rng):
        g = random_simple_graph(rng, 50, 300)
        p = 5
        dg, run, chosen, labels = _run_contraction(g, p)
        n = int(max(g.u.max(), g.v.max())) + 1
        uf = UnionFind(n)
        total = 0
        for i in range(p):
            for eid, w in run.collected(i):
                pos = np.flatnonzero(g.id == eid)[0]
                assert uf.union(int(g.u[pos]), int(g.v[pos])), "cycle!"
                total += 1
        assert total > 0

    def test_recorded_edges_are_mst_edges(self, rng):
        """Every recorded edge belongs to some MSF (weight check)."""
        g = random_simple_graph(rng, 25, 100)
        p = 3
        dg, run, chosen, labels = _run_contraction(g, p)
        ref_ids_weights = {}
        msf = kruskal_msf(g, 25)
        # Recorded weights must sum <= MSF weight (subset of a valid MSF
        # would require the tie-aware check; compare per-edge weights via
        # the exchange argument instead: recorded forest + completion has
        # exactly the MSF weight).
        n = 25
        uf = UnionFind(n)
        recorded_weight = 0
        for i in range(p):
            for eid, w in run.collected(i):
                pos = np.flatnonzero(g.id == eid)[0]
                uf.union(int(g.u[pos]), int(g.v[pos]))
                recorded_weight += int(w)
        # Complete greedily with Kruskal on the remaining components.
        order = g.weight_order()
        srt = g.take(order)
        for k in range(len(srt)):
            if uf.union(int(srt.u[k]), int(srt.v[k])):
                recorded_weight += int(srt.w[k])
        assert recorded_weight == msf.total_weight()

    def test_two_cycle_tie_break(self):
        # Two vertices, one edge: 0 and 1 choose each other; smaller wins.
        g = Edges(np.array([0, 1]), np.array([1, 0]), np.array([5, 5]))
        g = g.sort_lex()
        g.id[:] = np.arange(2)
        dg, run, chosen, labels = _run_contraction(g, 1)
        assert labels[0] == 0 and labels[1] == 0
        # Exactly one MST edge recorded.
        assert len(run.collected(0)) == 1

    def test_shared_vertices_are_roots(self, rng):
        g = random_simple_graph(rng, 40, 400)
        p = 6
        dg, run, chosen, labels = _run_contraction(g, p)
        shared = set(dg.shared_vertex_set().tolist())
        for v, l in zip(chosen.vids, labels):
            if int(v) in shared:
                assert int(l) == int(v)


@pytest.fixture
def rng():
    return np.random.default_rng(41)
