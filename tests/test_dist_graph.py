"""Tests for the distributed graph structure (repro.dgraph.dist_graph)."""

import bisect

import numpy as np
import pytest

from repro import minimum_spanning_forest
from repro.core.mst import available_algorithms
from repro.dgraph import DistGraph, Edges, lex_searchsorted
from repro.dgraph import search
from repro.dgraph.dist_graph import KEY_SENTINEL
from repro.seq import msf_weight
from repro.serve import GraphSession
from repro.simmpi import Machine

from helpers import random_simple_graph


class TestLexSearchsorted:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_bisect(self, side, rng):
        keys = sorted(
            (int(a), int(b), int(c))
            for a, b, c in zip(rng.integers(0, 20, 25),
                               rng.integers(0, 5, 25),
                               rng.integers(0, 5, 25))
        )
        ku = np.array([k[0] for k in keys])
        kv = np.array([k[1] for k in keys])
        kw = np.array([k[2] for k in keys])
        qu = rng.integers(0, 22, 300)
        qv = rng.integers(0, 6, 300)
        qw = rng.integers(0, 6, 300)
        fn = bisect.bisect_right if side == "right" else bisect.bisect_left
        expect = np.array([fn(keys, (a, b, c))
                           for a, b, c in zip(qu, qv, qw)])
        got = lex_searchsorted((ku, kv, kw), (qu, qv, qw), side)
        assert np.array_equal(got, expect)

    def test_empty_keys(self):
        out = lex_searchsorted((np.empty(0, dtype=np.int64),),
                               (np.array([1, 2]),))
        assert list(out) == [0, 0]

    def test_empty_queries(self):
        out = lex_searchsorted((np.array([1]),), (np.empty(0, dtype=np.int64),))
        assert len(out) == 0


class TestConstruction:
    def test_partition_covers_everything(self, rng):
        g = random_simple_graph(rng, 50, 300)
        dg = DistGraph.from_global_edges(Machine(7), g)
        assert dg.global_edge_count() == len(g)
        expected_n = len(np.unique(np.concatenate([g.u, g.v])))
        assert dg.global_vertex_count() == expected_n

    def test_avoid_shared(self, rng):
        g = random_simple_graph(rng, 50, 300)
        dg = DistGraph.from_global_edges(Machine(7), g, avoid_shared=True)
        assert not dg.shared_first.any()
        assert len(dg.shared_vertex_set()) == 0

    def test_ids_are_positions(self, rng):
        g = random_simple_graph(rng, 30, 100)
        dg = DistGraph.from_global_edges(Machine(4), g)
        all_ids = np.concatenate([p.id for p in dg.parts])
        assert np.array_equal(all_ids, np.arange(len(g)))

    def test_more_pes_than_edges(self, rng):
        g = random_simple_graph(rng, 5, 4)
        dg = DistGraph.from_global_edges(Machine(32), g)
        assert dg.global_edge_count() == len(g)
        assert (~dg.has_edges).sum() > 0  # some PEs empty

    def test_wrong_part_count_rejected(self):
        with pytest.raises(ValueError):
            DistGraph(Machine(3), [Edges.empty()])

    def test_unsorted_part_rejected(self):
        bad = Edges(np.array([2, 1]), np.array([0, 0]), np.array([1, 1]))
        ok = Edges.empty()
        with pytest.raises(ValueError):
            DistGraph(Machine(2), [bad, ok])

    def test_global_order_violation_rejected(self):
        a = Edges(np.array([5]), np.array([0]), np.array([1]))
        b = Edges(np.array([1]), np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            DistGraph(Machine(2), [a, b])


#: The documented weight bound (``repro.dgraph.edges.WEIGHT_LIMIT``).
WEIGHT_LIMIT = 1 << 62


def _path(heavy):
    """The path 0-1 (5), 1-2 (``heavy``), 2-3 (7) as undirected rows."""
    return [[0, 1, 5], [1, 2, heavy], [2, 3, 7]]


def _edges(rows):
    u, v, w = (np.array(c, dtype=np.int64) for c in zip(*rows))
    return Edges(u, v, w)


class TestWeightLimit:
    """Weights are integers below 2^62, the base case's and Prim's "no
    candidate" weight: heavier edges are refused where a graph is built,
    the largest accepted weight is solved exactly by every algorithm."""

    @pytest.mark.parametrize("algo", available_algorithms())
    def test_weight_at_limit_refused(self, algo):
        with pytest.raises(ValueError, match=r"below 2\^62"):
            minimum_spanning_forest(_edges(_path(WEIGHT_LIMIT)), Machine(2),
                                    algorithm=algo)

    @pytest.mark.parametrize("algo", available_algorithms())
    def test_largest_weight_exact(self, algo):
        edges = _edges(_path(WEIGHT_LIMIT - 1))
        result = minimum_spanning_forest(edges, Machine(2), algorithm=algo)
        assert result.total_weight == 5 + (WEIGHT_LIMIT - 1) + 7
        assert result.total_weight == msf_weight(edges, 4)

    def test_session_refuses_weight_at_limit(self):
        with pytest.raises(ValueError, match=r"below 2\^62"):
            GraphSession(4, _path(WEIGHT_LIMIT), n_procs=2)
        with GraphSession(4, _path(WEIGHT_LIMIT - 1), n_procs=2) as s:
            assert s.msf_weight()["weight"] == 5 + (WEIGHT_LIMIT - 1) + 7
            outcomes, _ = s.apply_epoch(
                [("insert", [[0, 3, WEIGHT_LIMIT]])])
            assert "below 2^62" in outcomes[0]

    def test_internal_constructions_skip_the_check(self):
        heavy = Edges(np.array([0, 1]), np.array([1, 0]),
                      np.array([WEIGHT_LIMIT, WEIGHT_LIMIT]))
        dg = DistGraph(Machine(1), [heavy], check=False)
        assert dg.global_edge_count() == 2


class TestLocalisation:
    def test_home_of_resident_edges(self, rng):
        g = random_simple_graph(rng, 60, 400)
        dg = DistGraph.from_global_edges(Machine(9), g)
        for i, part in enumerate(dg.parts):
            if len(part) == 0:
                continue
            homes = dg.home_of_edges(part.u, part.v, part.w)
            assert (homes == i).all()

    def test_home_of_vertices_owns_vertex(self, rng):
        g = random_simple_graph(rng, 60, 400)
        dg = DistGraph.from_global_edges(Machine(9), g)
        vertices = np.unique(g.u)
        homes = dg.home_of_vertices(vertices)
        for v, h in zip(vertices, homes):
            assert v in dg.parts[h].u

    def test_shared_vertices_detected(self, rng):
        # Star graph: the hub's edges must straddle boundaries.
        n = 40
        hub = np.zeros(n - 1, dtype=np.int64)
        leaves = np.arange(1, n, dtype=np.int64)
        w = rng.integers(1, 255, n - 1)
        g = Edges(np.concatenate([hub, leaves]),
                  np.concatenate([leaves, hub]),
                  np.concatenate([w, w])).sort_lex()
        g.id[:] = np.arange(len(g))
        dg = DistGraph.from_global_edges(Machine(4), g)
        assert 0 in dg.shared_vertex_set()


def _metadata_loop(parts):
    """The replicated boundary metadata as the per-PE loops computed it
    before ``rebuild_min_keys`` was vectorised: ``(has_edges, min_keys,
    first_src, last_src, part_sizes, shared_first)``."""
    p = len(parts)
    has = np.array([len(x) > 0 for x in parts])
    first = [(int(x.u[0]), int(x.v[0]), int(x.w[0])) if len(x) else None
             for x in parts]
    min_keys = np.full((3, p), KEY_SENTINEL, dtype=np.int64)
    nxt = (KEY_SENTINEL,) * 3
    for i in range(p - 1, -1, -1):
        if has[i]:
            nxt = first[i]
        min_keys[:, i] = nxt
    last_src = np.array([int(x.u[-1]) if len(x) else 0 for x in parts])
    first_src = np.array([f[0] if f else KEY_SENTINEL for f in first])
    shared = np.zeros(p, dtype=bool)
    prev_last = None
    for i in range(p):
        if not has[i]:
            continue
        if prev_last is not None and first[i][0] == prev_last:
            shared[i] = True
        prev_last = last_src[i]
    sizes = np.array([len(x) for x in parts])
    return has, list(min_keys), first_src, last_src, sizes, shared


class TestReplicatedMetadata:
    @pytest.mark.parametrize("p_tail", [0, 2])
    def test_matches_per_pe_loops(self, p_tail):
        g, dg = _boundary_graph(p_tail)
        empty = Edges.empty()
        for parts in (dg.parts, [empty] + dg.parts, [empty] * 3,
                      [g] + [empty] * 2, dg.parts[::-1][:1] + dg.parts[:1]):
            graph = DistGraph(Machine(len(parts)), parts, check=False)
            got = (graph.has_edges, list(graph.min_keys), graph.first_src,
                   graph.last_src, graph.part_sizes, graph.shared_first)
            for a, b in zip(got, _metadata_loop(parts)):
                assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_shared_vertex_across_an_empty_pe(self, rng):
        """PE 1 is empty: PE 2's first source continues PE 0's last."""
        g = random_simple_graph(rng, 30, 120)
        half = len(g) // 2
        while g.u[half] == g.u[half - 1]:
            half += 1
        half -= 1  # cut inside a vertex run
        parts = [g.take(np.arange(half)), Edges.empty(),
                 g.take(np.arange(half, len(g)))]
        dg = DistGraph(Machine(3), parts)
        assert dg.shared_first.tolist() == [False, False, True]
        assert [k.tolist() for k in dg.min_keys] == [
            list(k) for k in _metadata_loop(parts)[1]]


def _boundary_graph(p_tail=2):
    """Nine PEs cut by hand: vertex 5's run spans PEs 3, 4, 5 and 6, the cut
    between PEs 4 and 5 falls between the parallel edges (5, 7, 1) and
    (5, 7, 2), PE 1 (interior) and the last ``p_tail`` PEs are empty."""
    pairs = [(0, 1, 9), (1, 2, 8), (2, 3, 7), (5, 7, 1), (5, 7, 2),
             (5, 7, 3)] + [(5, k, k) for k in (6, 8, 9, 10, 11, 12, 13)] \
        + [(12, 13, 4), (13, 14, 5)]
    u, v, w = (np.array(c, dtype=np.int64) for c in zip(*pairs))
    g = Edges(np.concatenate([u, v]), np.concatenate([v, u]),
              np.concatenate([w, w])).sort_lex()
    g.id[:] = np.arange(len(g))
    m = len(g)
    run = np.flatnonzero(g.u == 5)
    split = int(np.flatnonzero((g.u == 5) & (g.v == 7) & (g.w == 2))[0])
    bounds = [0, 3, 3, int(run[0]) + 1, split, split + 3, int(run[-1]), m] \
        + [m] * p_tail
    parts = [g.take(np.arange(bounds[i], bounds[i + 1]))
             for i in range(len(bounds) - 1)]
    return g, DistGraph(Machine(len(parts)), parts)


def _three_key_searches(monkeypatch):
    """Spy on ``home_pe_of_edges``' three-key search: the list receives the
    source column of every batch of queries handed to it."""
    asked = []
    real = search.lex_searchsorted

    def spy(keys, queries, side="right"):
        asked.append(np.asarray(queries[0]))
        return real(keys, queries, side)

    monkeypatch.setattr(search, "lex_searchsorted", spy)
    return asked


class TestHomeOfEdges:
    """``home_pe_of_edges``' per-vertex table against the three-key search
    over every row (``lex_searchsorted(min_keys, ...) - 1``)."""

    @staticmethod
    def _reference(dg, qu, qv, qw):
        idx = lex_searchsorted(dg.min_keys, (qu, qv, qw), side="right") - 1
        return np.maximum(idx, 0)

    @staticmethod
    def _queries(g, rng, dtype):
        # Every edge both ways round, plus triples that are not edges:
        # vertices below, between and above the stored ones.
        extra = rng.integers(0, 18, (3, 200))
        qu = np.concatenate([g.u, g.v, extra[0]]).astype(dtype)
        qv = np.concatenate([g.v, g.u, extra[1]]).astype(dtype)
        qw = np.concatenate([g.w, g.w, extra[2]]).astype(dtype)
        return qu, qv, qw

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32])
    @pytest.mark.parametrize("p_tail", [0, 2])
    def test_matches_three_key_search(self, rng, monkeypatch, dtype, p_tail):
        g, dg = _boundary_graph(p_tail)
        assert not dg.has_edges[1]
        assert (dg.first_src[3:7] == 5).all()  # one vertex, four PEs
        assert (dg.min_keys[0][-1] == KEY_SENTINEL) == (p_tail > 0)
        qu, qv, qw = self._queries(g, rng, dtype)
        expect = self._reference(dg, qu, qv, qw)
        asked = _three_key_searches(monkeypatch)
        got = dg.home_of_edges(qu, qv, qw)
        assert got.dtype == expect.dtype and np.array_equal(got, expect)
        # Resident edges are at home, also around the (5, 7, w) cut.
        for i, part in enumerate(dg.parts):
            assert (dg.home_of_edges(part.u.astype(dtype),
                                     part.v.astype(dtype),
                                     part.w.astype(dtype)) == i).all()
        # Only queries at some PE's first source ran the three-key search
        # (with a sentinel key that is the merged four-key lexsort).
        at_boundary = np.isin(qu, dg.min_keys[0])
        assert 0 < at_boundary.sum() < len(qu)
        assert np.array_equal(asked[0], qu[at_boundary])

    def test_sparse_ids_keep_the_three_key_search(self, rng, monkeypatch):
        g, dg = _boundary_graph()
        qu, qv, qw = self._queries(g, rng, np.int64)
        qu[0] = 10 ** 9  # a range no table should be built for
        expect = self._reference(dg, qu, qv, qw)
        asked = _three_key_searches(monkeypatch)
        got = dg.home_of_edges(qu, qv, qw)
        assert [len(a) for a in asked] == [len(qu)]
        assert np.array_equal(got, expect)

    def test_guard_boundary(self, monkeypatch):
        _, dg = _boundary_graph()
        k = search.HOME_VERTICES_PER_QUERY
        z = np.zeros(2, dtype=np.int64)
        # hi + 1 ids for two queries; vertex 0 is PE 0's first source, so
        # the table hands one row to the three-key search, no table both.
        cases = [(np.array([0, 2 * k - 1]), 1), (np.array([0, 2 * k]), 2)]
        expects = [self._reference(dg, qu, z, z) for qu, _ in cases]
        asked = _three_key_searches(monkeypatch)
        for (qu, searched), expect in zip(cases, expects):
            del asked[:]
            assert np.array_equal(dg.home_of_edges(qu, z, z), expect)
            assert [len(a) for a in asked] == [searched]

    def test_single_pe_and_no_queries(self, rng):
        g = random_simple_graph(rng, 20, 60)
        dg = DistGraph.from_global_edges(Machine(1), g)
        assert (dg.home_of_edges(g.v, g.u, g.w) == 0).all()
        z = np.empty(0, dtype=np.uint32)
        out = dg.home_of_edges(z, z, z)
        assert out.dtype == np.int64 and len(out) == 0

    def test_negative_ids(self, rng):
        # Signed queries below every key: PE 0, like the three-key search.
        _, dg = _boundary_graph()
        qu = np.array([-7, -1, 0, 5, 5, 14])
        qv = np.array([3, 0, 1, 7, 7, 13])
        qw = np.array([1, 1, 9, 1, 2, 5])
        assert np.array_equal(dg.home_of_edges(qu, qv, qw),
                              self._reference(dg, qu, qv, qw))


class TestVertexGroups:
    def test_groups_cover_part(self, rng):
        g = random_simple_graph(rng, 40, 250)
        dg = DistGraph.from_global_edges(Machine(5), g)
        for i in range(5):
            vids, starts = dg.vertex_groups(i)
            part = dg.parts[i]
            assert starts[-1] == len(part)
            for k, v in enumerate(vids):
                seg = part.u[starts[k]:starts[k + 1]]
                assert (seg == v).all()

    def test_empty_part(self):
        dg = DistGraph(Machine(2), [Edges.empty(), Edges.empty()])
        vids, starts = dg.vertex_groups(0)
        assert len(vids) == 0 and list(starts) == [0]

    def test_local_vertex_counts(self, rng):
        g = random_simple_graph(rng, 40, 250)
        dg = DistGraph.from_global_edges(Machine(5), g)
        counts = dg.local_vertex_counts()
        assert counts.sum() - dg.shared_first.sum() == dg.global_vertex_count()

    @pytest.mark.parametrize("p", [1, 5, 64])
    def test_local_vertex_counts_are_distinct_sources(self, rng, p):
        # p = 1; shared vertices (the plain block partition cuts vertex
        # groups and each side counts the vertex); p = 64 > most degrees,
        # so many PEs hold one vertex's edges only, and with 30 edges over
        # 64 PEs most hold none.
        for m in (250, 15):
            g = random_simple_graph(rng, 40, m)
            dg = DistGraph.from_global_edges(Machine(p), g)
            counts = dg.local_vertex_counts()
            assert counts.dtype == np.int64
            assert counts.tolist() == [len(np.unique(part.u))
                                       for part in dg.parts]
            if p == 5 and m == 250:
                assert dg.shared_first.any()
            if p == 64 and m == 15:
                assert (counts == 0).any()


@pytest.fixture
def rng():
    return np.random.default_rng(17)
