"""Tests for the replicated base case and the distributed P array
(repro.core.base_case, repro.core.plabels)."""

import numpy as np
import pytest

from repro.core import BoruvkaConfig, DistributedLabelArray, MSTRun, base_case
from repro.dgraph import DistGraph, Edges
from repro.seq import UnionFind, kruskal_msf
from repro.simmpi import Comm, Machine

from helpers import random_simple_graph


class TestBaseCase:
    @pytest.mark.parametrize("p", [1, 2, 5, 9])
    def test_matches_kruskal_weight(self, p, rng):
        g = random_simple_graph(rng, 30, 120)
        machine = Machine(p)
        dg = DistGraph.from_global_edges(machine, g)
        run = MSTRun(machine, BoruvkaConfig())
        base_case(dg, run)
        total = 0
        n = 30
        uf = UnionFind(n)
        for i in range(p):
            for eid, w in run.collected(i):
                pos = int(np.flatnonzero(g.id == eid)[0])
                assert uf.union(int(g.u[pos]), int(g.v[pos]))
                total += int(w)
        assert total == kruskal_msf(g, n).total_weight()

    def test_empty_graph_is_noop(self):
        machine = Machine(3)
        dg = DistGraph.from_parts(machine, [Edges.empty()] * 3)
        run = MSTRun(machine, BoruvkaConfig())
        assert base_case(dg, run) is None
        assert run.total_mst_edges() == 0

    def test_returns_component_map(self, rng):
        g = random_simple_graph(rng, 20, 60)
        machine = Machine(2)
        dg = DistGraph.from_global_edges(machine, g)
        run = MSTRun(machine, BoruvkaConfig())
        out = base_case(dg, run)
        assert out is not None
        labels, reps = out
        # reps define the same partition as the graph's components.
        uf = UnionFind(20)
        uf.union_edges(g.u, g.v)
        for a in range(len(labels)):
            for b in range(len(labels)):
                same_graph = uf.connected(int(labels[a]), int(labels[b]))
                assert same_graph == (reps[a] == reps[b])

    def test_label_sink_observes_contractions(self, rng):
        g = random_simple_graph(rng, 20, 80)
        machine = Machine(2)
        dg = DistGraph.from_global_edges(machine, g)
        run = MSTRun(machine, BoruvkaConfig())
        events = []
        run.label_sink = lambda pe, vs, ls: events.append((vs.copy(),
                                                           ls.copy()))
        base_case(dg, run)
        assert events, "contractions must be reported"


class TestDistributedLabelArray:
    def test_identity_by_default(self):
        comm = Comm(Machine(4))
        P = DistributedLabelArray(comm, 20)
        out = P.request(np.array([3, 17, 0, 19]), np.array([0, 0, 1, 3]))
        assert list(out) == [3, 17, 0, 19]

    def test_updates_and_chain_contraction(self):
        comm = Comm(Machine(4))
        P = DistributedLabelArray(comm, 16)
        # Chain: 0 -> 5 -> 10 -> 15 recorded as separate contractions.
        P.sink(0, np.array([0]), np.array([5]))
        P.sink(1, np.array([5]), np.array([10]))
        P.sink(2, np.array([10]), np.array([15]))
        P.contract()
        out = P.request(np.array([0, 5, 10, 15]), np.zeros(4, np.int64))
        assert list(out) == [15, 15, 15, 15]

    def test_random_chains_resolve(self, rng):
        n, p = 60, 5
        comm = Comm(Machine(p))
        P = DistributedLabelArray(comm, n)
        # A random forest of pointers (acyclic by construction: to higher id).
        parent = {}
        for v in range(n - 1):
            if rng.random() < 0.6:
                target = int(rng.integers(v + 1, n))
                parent[v] = target
                P.sink(int(rng.integers(0, p)), np.array([v]),
                       np.array([target]))
        P.contract()

        def resolve(v):
            while v in parent:
                v = parent[v]
            return v

        queries = rng.integers(0, n, 30)
        out = P.request(queries, np.zeros(len(queries), np.int64))
        expect = [resolve(int(q)) for q in queries]
        assert list(out) == expect

    def test_assembled_diagnostic(self):
        comm = Comm(Machine(3))
        P = DistributedLabelArray(comm, 7)
        assert np.array_equal(P.assembled(), np.arange(7))

    def test_flush_without_updates_is_safe(self):
        comm = Comm(Machine(2))
        P = DistributedLabelArray(comm, 5)
        P.flush()
        P.contract()
        assert np.array_equal(P.assembled(), np.arange(5))


@pytest.fixture
def rng():
    return np.random.default_rng(61)
