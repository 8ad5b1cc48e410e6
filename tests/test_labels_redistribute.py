"""Tests for EXCHANGELABELS / RELABEL / REDISTRIBUTE
(repro.core.labels, repro.core.redistribute)."""

import numpy as np
import pytest

from repro.core import (
    BoruvkaConfig,
    MSTRun,
    contract_components,
    exchange_labels,
    min_edges,
    redistribute,
    relabel,
)
from repro.dgraph import DistGraph, Edges
from repro.simmpi import Machine

from _loop_reference import dedup_sorted_parts
from helpers import random_simple_graph


def _one_round(g, p):
    machine = Machine(p)
    dg = DistGraph.from_global_edges(machine, g)
    run = MSTRun(machine, BoruvkaConfig())
    chosen = min_edges(dg)
    labels = contract_components(dg, chosen, run)
    state = (dg, chosen.vids, labels, chosen.voff)
    tables = exchange_labels(*state, run)
    rel = relabel(*state, tables, run)
    return machine, dg, run, chosen.vids, labels, tables, rel


class TestExchangeLabels:
    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    def test_every_ghost_receives_its_label(self, p, rng):
        g = random_simple_graph(rng, 40, 200)
        machine, dg, run, vids, labels, tables, rel = _one_round(g, p)
        # Build the true global label map.
        true = {int(v): int(l) for v, l in zip(vids, labels)}
        push = tables
        assert len(push.home) > 0
        for gv, gl in zip(push.vertex, push.label):
            assert true[int(gv)] == int(gl)

    def test_relabel_removes_all_self_loops(self, rng):
        g = random_simple_graph(rng, 40, 200)
        machine, dg, run, vids, labels, tables, rel = _one_round(g, 4)
        true = {int(v): int(l) for v, l in zip(vids, labels)}
        kept, offsets = rel
        assert (kept.u != kept.v).all()
        assert offsets[0] == 0 and offsets[-1] == len(kept)
        assert [true[int(x)] for x in kept.u] == kept.u.tolist()
        total_alive = sum(
            1 for k in range(len(g))
            if true[int(g.u[k])] != true[int(g.v[k])]
        )
        assert len(kept) == total_alive


class TestDedup:
    def test_dedup_sorted_part_keeps_lightest(self):
        part = np.array([[0, 1, 3, 0], [0, 1, 7, 1], [0, 2, 5, 2],
                         [1, 0, 3, 3], [1, 0, 3, 4]])
        out, = dedup_sorted_parts([part])
        assert [tuple(r[:3]) for r in out] == [(0, 1, 3), (0, 2, 5),
                                               (1, 0, 3)]

    def test_dedup_empty(self):
        out, = dedup_sorted_parts([np.empty((0, 4), dtype=np.int64)])
        assert len(out) == 0


class TestRedistribute:
    def test_output_is_valid_distgraph(self, rng):
        g = random_simple_graph(rng, 40, 200)
        machine, dg, run, vids, labels, tables, rel = _one_round(g, 5)
        new_graph = redistribute(run, machine, *rel, check=True)
        assert new_graph.global_edge_count() <= len(rel[0])

    def test_boundary_spanning_duplicates_removed(self):
        # Craft parallel (0,1) edges that will straddle PE boundaries after
        # balancing: many copies of the same pair with distinct weights.
        machine = Machine(4)
        run = MSTRun(machine, BoruvkaConfig())
        k = 20
        parts = [Edges(np.zeros(k, dtype=np.int64),
                       np.ones(k, dtype=np.int64),
                       np.arange(i * k, (i + 1) * k, dtype=np.int64),
                       np.arange(i * k, (i + 1) * k, dtype=np.int64))
                 for i in range(4)]
        out = redistribute(run, machine, Edges.concat(parts),
                           np.arange(5) * k, check=True)
        # Exactly one (0,1) edge survives, with the globally smallest weight.
        total = out.edges
        assert len(total) == 1
        assert total.w[0] == 0

    def test_no_duplicate_pairs_after_redistribute(self, rng):
        g = random_simple_graph(rng, 30, 150)
        machine, dg, run, vids, labels, tables, rel = _one_round(g, 6)
        out = redistribute(run, machine, *rel, check=True)
        total = out.edges
        pairs = list(zip(total.u.tolist(), total.v.tolist()))
        assert len(pairs) == len(set(pairs))

    def test_lightest_parallel_edge_survives(self, rng):
        g = random_simple_graph(rng, 30, 150)
        machine, dg, run, vids, labels, tables, rel = _one_round(g, 6)
        merged = rel[0]
        out = redistribute(run, machine, *rel, check=True)
        total = out.edges
        for k in range(len(total)):
            same = (merged.u == total.u[k]) & (merged.v == total.v[k])
            assert total.w[k] == merged.w[same].min()


@pytest.fixture
def rng():
    return np.random.default_rng(53)
