"""Tests for local preprocessing (repro.core.local_preprocessing)."""

import numpy as np
import pytest

from repro.core import BoruvkaConfig, MSTRun, local_preprocessing
from repro.dgraph import DistGraph, Edges
from repro.dgraph.dist_graph import check_global_sorted, check_local_sorted
from repro.graphgen import gen_grid2d, gen_gnm
from repro.seq import UnionFind, kruskal_msf
from repro.simmpi import Machine

from helpers import random_simple_graph


def _run(g, p, n, cfg=None):
    machine = Machine(p)
    dg = DistGraph.from_global_edges(machine, g)
    cfg = cfg or BoruvkaConfig(preprocessing_min_local_fraction=0.0)
    run = MSTRun(machine, cfg)
    out = local_preprocessing(dg, run)
    return machine, run, out


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_recorded_plus_remainder_completes_to_msf(self, p, rng):
        """Contracted edges + Kruskal on the remainder == full MSF weight."""
        n = 40
        g = random_simple_graph(rng, n, 200)
        machine, run, out = _run(g, p, n)
        uf = UnionFind(n)
        weight = 0
        for i in range(p):
            for eid, w in run.collected(i):
                pos = int(np.flatnonzero(g.id == eid)[0])
                assert uf.union(int(g.u[pos]), int(g.v[pos])), "cycle"
                weight += int(w)
        # Complete with the remaining distributed edges (original endpoints
        # irrelevant: relabelled endpoints connect the same components).
        remaining = Edges.concat(out.parts)
        order = remaining.weight_order()
        srt = remaining.take(order)
        for k in range(len(srt)):
            if uf.union(int(srt.u[k]), int(srt.v[k])):
                weight += int(srt.w[k])
        assert weight == kruskal_msf(g, n).total_weight()

    def test_output_graph_is_valid(self, rng):
        g = random_simple_graph(rng, 50, 400)
        machine, run, out = _run(g, 5, 50)
        # Valid lexicographic global order (the invariant the repair step
        # re-establishes).
        check_local_sorted(out.edges, out.offsets)
        check_global_sorted(out.edges, out.offsets)

    def test_no_self_loops_or_duplicate_pairs(self, rng):
        g = random_simple_graph(rng, 50, 400)
        machine, run, out = _run(g, 5, 50)
        for part in out.parts:
            assert (part.u != part.v).all()
            pairs = list(zip(part.u.tolist(), part.v.tolist()))
            assert len(pairs) == len(set(pairs))

    def test_shared_vertex_labels_survive(self, rng):
        g = random_simple_graph(rng, 40, 400)
        machine = Machine(6)
        dg = DistGraph.from_global_edges(machine, g)  # shared allowed
        shared = set(dg.shared_vertex_set().tolist())
        run = MSTRun(machine, BoruvkaConfig(
            preprocessing_min_local_fraction=0.0))
        out = local_preprocessing(dg, run)
        remaining_vertices = set(
            np.unique(np.concatenate(
                [np.concatenate([p.u, p.v]) for p in out.parts if len(p)]
            )).tolist()) if any(len(p) for p in out.parts) else set()
        # A shared vertex with remaining edges keeps its own label.
        for s in shared:
            for part in out.parts:
                mask = part.u == s
                # s's edges may have been deduped away, but s must never
                # appear relabelled INTO something else: verify via the
                # label maps recorded for the sink.
        # (The real assertion: no label map entry changes a shared vertex.)
        machine2 = Machine(6)
        dg2 = DistGraph.from_global_edges(machine2, g)
        run2 = MSTRun(machine2, BoruvkaConfig(
            preprocessing_min_local_fraction=0.0))
        events = []
        run2.label_sink = lambda pe, vs, ls: events.append((vs, ls))
        local_preprocessing(dg2, run2)
        for vs, ls in events:
            for v in vs:
                assert int(v) not in shared


class TestRules:
    def test_skip_rule_low_locality(self):
        # GNM across many PEs: few local edges -> preprocessing skipped.
        g = gen_gnm(128, 512, seed=3)
        machine = Machine(16)
        dg = g.distribute(machine)
        run = MSTRun(machine, BoruvkaConfig())  # default 10% rule
        out = local_preprocessing(dg, run)
        assert out is dg  # untouched
        assert run.total_mst_edges() == 0

    def test_grid_contracts_most_vertices(self):
        g = gen_grid2d(16, 16, seed=1)
        machine = Machine(4)
        dg = g.distribute(machine)
        n_before = dg.global_vertex_count()
        run = MSTRun(machine, BoruvkaConfig())
        out = local_preprocessing(dg, run)
        n_after = out.global_vertex_count()
        assert n_after < n_before / 4

    def test_filter_enhancement_same_result(self, rng):
        n = 40
        g = random_simple_graph(rng, n, 300)
        res = {}
        for use_filter in (True, False):
            cfg = BoruvkaConfig(preprocessing_min_local_fraction=0.0,
                                preprocessing_filter=use_filter)
            machine, run, out = _run(g, 4, n, cfg)
            res[use_filter] = sum(int(w) for i in range(4)
                                  for _, w in run.collected(i))
        assert res[True] == res[False]

    def test_single_pe_contracts_everything(self, rng):
        n = 30
        g = random_simple_graph(rng, n, 200)
        machine, run, out = _run(g, 1, n)
        # With one PE everything is local: full MSF found, no edges remain.
        assert out.global_edge_count() == 0
        total = sum(int(w) for _, w in run.collected(0))
        assert total == kruskal_msf(g, n).total_weight()


@pytest.fixture
def rng():
    return np.random.default_rng(71)
