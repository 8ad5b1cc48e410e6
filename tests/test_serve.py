"""Tests for repro.serve: sessions, incremental recompute, queue, wire.

The core contract (ISSUE 10, docs/serving.md): every committed epoch --
whatever strategy the session picks -- lands on the *bit-identical* MSF
weight a from-scratch run over the mutated edge list would produce, with
or without a fault schedule.  The queue tests
pin the serving semantics (backpressure, deadlines, cancellation, epoch
batching) and the transport tests the NDJSON wire protocol.
"""

import asyncio
import json
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import BoruvkaConfig
from repro.dgraph.edges import WEIGHT_LIMIT, Edges
from repro.seq import UnionFind, msf_weight, spans_same_components
from repro.serve import (
    GraphSession,
    MutationError,
    RequestQueue,
    percentile,
    plan_replay,
    serve_lines,
    serve_tcp,
)
from repro.serve import incremental, protocol
from repro.serve.session import SessionView, _directed_rows, _merged

#: Forces several Borůvka rounds on modest graphs.
MULTI_ROUND = BoruvkaConfig(base_case_min=16, base_case_factor=1,
                            local_preprocessing=False)
FAULTS = "seed=11, pe_fail=0.05, retries=10, max_replays=64"


def _triples(rng, n, m):
    """m distinct undirected weighted edges on n vertices."""
    seen, rows = set(), []
    while len(rows) < m:
        a, b = (int(x) for x in rng.integers(0, n, 2))
        key = (min(a, b), max(a, b))
        if a == b or key in seen:
            continue
        seen.add(key)
        rows.append([key[0], key[1], int(rng.integers(1, 1_000_000))])
    return rows


def _dict_rows(rng, n, m):
    """TestServingDifferential's graph: m pairs, last weight drawn wins."""
    live = {}
    while len(live) < m:
        a, b = (int(x) for x in rng.integers(0, n, 2))
        if a != b:
            live[(min(a, b), max(a, b))] = int(rng.integers(1, 1_000_000))
    return [[u, v, w] for (u, v), w in sorted(live.items())]


def _expected(rows, n):
    """Sequential-Kruskal MSF weight of an undirected triple list."""
    if not rows:
        return 0
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    return msf_weight(Edges(arr[:, 0], arr[:, 1], arr[:, 2]), n)


def _check(session, rows):
    """Served weight must equal Kruskal and the forest must span."""
    view = session.view
    assert view.total_weight == _expected(rows, session.n_vertices)
    if rows:
        arr = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
        forest = Edges(view.forest_u, view.forest_v, view.forest_w)
        assert spans_same_components(
            forest, Edges(arr[:, 0], arr[:, 1], arr[:, 2]),
            session.n_vertices)


def _nontree_pair(view):
    """Some present undirected pair that is not a forest edge."""
    half = view.edges.u < view.edges.v
    for u, v in zip(view.edges.u[half], view.edges.v[half]):
        if not view.edge_in_msf(int(u), int(v)):
            return int(u), int(v)
    raise AssertionError("graph has no non-tree edge")


def _tree_pair(view):
    """Some forest pair of the current view."""
    return int(view.forest_u[0]), int(view.forest_v[0])


def _absent_pairs(view, k):
    """The first k undirected pairs not present in the graph."""
    out = []
    for u in range(view.n_vertices):
        for v in range(u + 1, view.n_vertices):
            if not view.has_pair(u, v):
                out.append((u, v))
                if len(out) == k:
                    return out
    raise AssertionError("graph is complete")


class Model:
    """Host-side reference: the live undirected edge dict."""

    def __init__(self, rows):
        self.live = {(r[0], r[1]): r[2] for r in rows}

    def rows(self):
        """Triple list of the current reference graph."""
        return [[u, v, w] for (u, v), w in sorted(self.live.items())]

    def apply(self, ops):
        """Mirror an accepted-op sequence onto the reference dict."""
        for kind, rows in ops:
            for row in rows:
                key = (min(row[0], row[1]), max(row[0], row[1]))
                if kind == "insert":
                    self.live[key] = row[2]
                else:
                    self.live.pop(key)


class TestSessionBasics:
    def test_initial_weight_matches_kruskal(self):
        rows = _triples(np.random.default_rng(0), 64, 200)
        with GraphSession(64, rows, n_procs=4) as s:
            _check(s, rows)
            assert s.view.version == 0
            assert s.view.n_undirected_edges == 200

    def test_empty_graph(self):
        with GraphSession(5, n_procs=2) as s:
            assert s.msf_weight()["weight"] == 0
            assert s.components()["n_components"] == 5

    def test_queries(self):
        rows = [[0, 1, 5], [1, 2, 3], [3, 4, 7]]
        with GraphSession(6, rows, n_procs=2) as s:
            assert s.msf_weight() == {"weight": 15, "version": 0}
            comp = s.components(vertices=[0, 2, 3, 5])
            assert comp["n_components"] == 3
            labels = comp["component_of"]
            assert labels[0] == labels[1] and labels[0] != labels[2]
            assert s.edge_in_msf(1, 0) == {
                "present": True, "in_msf": True, "version": 0}
            assert s.edge_in_msf(0, 5)["present"] is False
            st = s.stats()
            assert st["n_edges"] == 3 and st["weight"] == 15
            assert st["algorithm"] == "boruvka"
            assert "engine" not in st

    @pytest.mark.parametrize("rows,err", [
        ([[0, 0, 1]], "self loop"),
        ([[0, 1, 1], [1, 0, 2]], "duplicate"),
        ([[0, 9, 1]], "out of range"),
        ([[0, 1, 0]], "positive"),
    ])
    def test_initial_validation(self, rows, err):
        with pytest.raises(ValueError, match=err):
            GraphSession(4, rows, n_procs=2)

    def test_query_validation(self):
        with GraphSession(4, [[0, 1, 2]], n_procs=2) as s:
            with pytest.raises(MutationError):
                s.edge_in_msf(0, 4)
            with pytest.raises(MutationError):
                s.components(vertices=[7])


class TestEpochStrategies:
    @pytest.fixture
    def session(self):
        rows = _triples(np.random.default_rng(1), 96, 400)
        with GraphSession(96, rows, n_procs=4, cfg=MULTI_ROUND) as s:
            yield s, Model(rows)

    def _apply(self, s, model, ops):
        outcomes, report = s.apply_epoch(ops)
        assert all(o is None for o in outcomes), outcomes
        model.apply(ops)
        _check(s, model.rows())
        return report

    def test_nontree_delete_is_noop(self, session):
        s, model = session
        pair = _nontree_pair(s.view)
        report = self._apply(s, model, [("delete", [list(pair)])])
        assert report.strategy == "noop"
        assert report.simulated_seconds == 0.0
        assert s.view.version == 1

    def test_insert_only_is_sparsified(self, session):
        s, model = session
        (a, b), = _absent_pairs(s.view, 1)
        report = self._apply(s, model, [("insert", [[a, b, 1]])])
        assert report.strategy == "sparsified"
        assert report.simulated_seconds > 0.0

    def test_tree_delete_replays(self, session):
        s, model = session
        pair = _tree_pair(s.view)
        report = self._apply(s, model, [("delete", [list(pair)])])
        assert report.strategy == "replay"
        assert report.simulated_seconds > 0.0
        assert s.epoch_counts == {"replay": 1}

    def test_tree_delete_after_local_preprocessing_replays(self):
        rows = _triples(np.random.default_rng(2), 48, 150)
        cfg = BoruvkaConfig(base_case_min=16, base_case_factor=1,
                            local_preprocessing=True)
        with GraphSession(48, rows, n_procs=4, cfg=cfg) as s:
            model = Model(rows)
            ops = [("delete", [list(_tree_pair(s.view))])]
            outcomes, report = s.apply_epoch(ops)
            assert outcomes == [None]
            assert report.strategy == "replay"
            model.apply(ops)
            _check(s, model.rows())

    @pytest.mark.parametrize("share", [0.3, 1.0])
    def test_large_forest_delete_stays_replay(self, session, share):
        """Past the old dirty-fraction cutoff, up to the whole forest."""
        s, model = session
        view = s.view
        k = int(np.ceil(share * len(view.forest_u)))
        ops = [("delete", [[int(u), int(v)] for u, v in
                           zip(view.forest_u[:k], view.forest_v[:k])])]
        report = self._apply(s, model, ops)
        assert report.strategy == "replay" and report.n_deleted == k
        assert s.epoch_counts == {"replay": 1}

    def test_bridge_delete_splits_component(self):
        rows = [[0, 1, 4], [1, 2, 6], [2, 0, 9], [2, 3, 1], [3, 4, 2]]
        with GraphSession(5, rows, n_procs=2) as s:
            before = s.view.n_components
            outcomes, report = s.apply_epoch([("delete", [[2, 3]])])
            assert outcomes == [None]
            assert report.strategy == "replay" and report.n_reoffered == 0
            assert s.view.n_components == before + 1
            assert s.view.total_weight == 12

    def test_tree_delete_with_inserts_is_one_run(self, session,
                                                 monkeypatch):
        s, model = session
        calls = []

        def spy(name):
            real = getattr(incremental, name)

            def wrapped(*a, **k):
                calls.append(name)
                return real(*a, **k)
            monkeypatch.setattr(incremental, name, wrapped)

        spy("sparsified_recompute")
        spy("replay_recompute")
        (a, b), = _absent_pairs(s.view, 1)
        report = self._apply(s, model, [
            ("delete", [list(_tree_pair(s.view))]),
            ("insert", [[a, b, 1]])])
        assert report.strategy == "replay"
        assert calls == ["replay_recompute"]

    def test_mixed_epoch(self, session):
        s, model = session
        pair = _tree_pair(s.view)
        ops = [("delete", [list(pair)]),
               ("insert", [[pair[0], pair[1], 999_999_999]])]
        report = self._apply(s, model, ops)
        assert report.n_inserted == 1 and report.n_deleted == 1

    def test_insert_then_delete_cancels(self, session):
        s, model = session
        (a, b), = _absent_pairs(s.view, 1)
        before = s.view.version
        outcomes, report = s.apply_epoch([
            ("insert", [[a, b, 7]]), ("delete", [[a, b]])])
        assert outcomes == [None, None]
        assert report is None, "net-empty epoch must not commit"
        assert s.view.version == before
        _check(s, model.rows())

    def test_all_or_nothing_requests(self, session):
        s, model = session
        (a, b), (c, d) = _absent_pairs(s.view, 2)
        good = ("insert", [[a, b, 5]])
        bad = ("insert", [[c, d, 5], [c, d, 6]])  # dup inside request
        outcomes, report = s.apply_epoch([bad, good])
        assert outcomes[0] is not None and "duplicate" in outcomes[0]
        assert outcomes[1] is None
        assert report.n_inserted == 1
        model.apply([good])
        _check(s, model.rows())
        assert not s.view.has_pair(c, d), \
            "rejected request must contribute nothing"

    def test_delete_missing_edge_rejected(self, session):
        s, _ = session
        pair, = _absent_pairs(s.view, 1)
        outcomes, report = s.apply_epoch([("delete", [list(pair)])])
        assert "does not exist" in outcomes[0]
        assert report is None

    def test_failed_epoch_leaves_state_intact(self, session, monkeypatch):
        self._fail_then_retry(session, monkeypatch, "sparsified")

    def test_failed_replay_epoch_leaves_state_intact(self, session,
                                                     monkeypatch):
        self._fail_then_retry(session, monkeypatch, "replay")

    def _fail_then_retry(self, session, monkeypatch, strategy):
        s, model = session

        def boom(*a, **k):
            raise RuntimeError("injected recompute failure")

        (a, b), = _absent_pairs(s.view, 1)
        ops = [("insert", [[a, b, 3]])]
        if strategy == "replay":
            ops.append(("delete", [list(_tree_pair(s.view))]))
        monkeypatch.setattr(incremental, f"{strategy}_recompute", boom)
        before, counts = s.view, dict(s.epoch_counts)
        with pytest.raises(RuntimeError, match="injected"):
            s.apply_epoch(ops)
        assert s.view is before, "failed epoch must not publish"
        assert s.epoch_counts == counts
        monkeypatch.undo()
        # the session stays fully usable afterwards
        assert self._apply(s, model, ops).strategy == strategy

    @pytest.mark.parametrize("kind,rows,err", [
        ("insert", [5], "insert rows must be"),
        ("insert", None, "must be a list"),
        ("insert", {"u": 1}, "must be a list"),
        ("insert", ["abc"], "insert rows must be"),
        ("insert", [[4.9, 5, 3]], "endpoints must be integers"),
        ("insert", [["6", "7", "2"]], "endpoints must be integers"),
        ("insert", [[0, 7, True]], "weights must be integers"),
        ("insert", [[0, 7, 3.7]], "weights must be integers"),
        ("insert", [[False, 7, 3]], "endpoints must be integers"),
        ("delete", [7], "delete rows must be"),
        ("delete", 7, "must be a list"),
        ("delete", [[0, 1.0]], "endpoints must be integers"),
        ("delete", [[0, None]], "endpoints must be integers"),
    ])
    def test_malformed_rows_fail_their_request_only(self, session, kind,
                                                    rows, err):
        s, model = session
        (a, b), = _absent_pairs(s.view, 1)
        good = ("insert", [[a, b, 3]])
        outcomes, report = s.apply_epoch([good, (kind, rows)])
        assert outcomes[0] is None
        assert err in outcomes[1]
        assert report.n_inserted == 1 and report.n_deleted == 0
        model.apply([good])
        _check(s, model.rows())


class TestChurnDifferential:
    """Random epochs vs sequential Kruskal -- the pinned differential."""

    def _churn(self, s, model, rng, epochs, ops_per_epoch=4):
        strategies = []
        for _ in range(epochs):
            ops = []
            for _ in range(ops_per_epoch):
                live = sorted(model.live)
                if rng.random() < 0.5 and live:
                    pair = live[int(rng.integers(0, len(live)))]
                    ops.append(("delete", [list(pair)]))
                    model.live.pop(pair)
                else:
                    while True:
                        a, b = (int(x) for x in
                                rng.integers(0, s.n_vertices, 2))
                        key = (min(a, b), max(a, b))
                        if a != b and key not in model.live:
                            break
                    w = int(rng.integers(1, 1_000_000))
                    ops.append(("insert", [[key[0], key[1], w]]))
                    model.live[key] = w
            if not ops:
                continue
            outcomes, report = s.apply_epoch(ops)
            assert all(o is None for o in outcomes), outcomes
            if report is not None:
                strategies.append(report.strategy)
            _check(s, model.rows())
        return strategies

    def test_random_churn_matches_kruskal(self):
        rng = np.random.default_rng(7)
        rows = _triples(rng, 128, 512)
        with GraphSession(128, rows, n_procs=4, cfg=MULTI_ROUND) as s:
            strategies = self._churn(s, Model(rows), rng, epochs=15)
        assert set(strategies) - {"full"}, \
            "churn never used an incremental strategy"

    @pytest.mark.parametrize("faults", [None, FAULTS])
    def test_incremental_matches_from_scratch(self, faults):
        """Epoch recompute == a brand-new session, bit for bit."""
        rng = np.random.default_rng(13)
        rows = _triples(rng, 80, 280)
        with GraphSession(80, rows, n_procs=4, cfg=MULTI_ROUND, seed=3,
                          faults=faults) as s:
            model = Model(rows)
            self._churn(s, model, rng, epochs=5)
            with GraphSession(80, model.rows(), n_procs=4,
                              cfg=MULTI_ROUND, seed=3) as scratch:
                assert s.view.total_weight == scratch.view.total_weight, \
                    (f"incremental weight diverged from from-scratch "
                     f"(faults={faults!r})")

    def test_faulted_epochs_recover_exact_weights(self):
        rng = np.random.default_rng(29)
        rows = _triples(rng, 96, 380)
        with GraphSession(96, rows, n_procs=4, cfg=MULTI_ROUND,
                          faults=FAULTS) as s:
            model = Model(rows)
            self._churn(s, model, rng, epochs=10)
            if s.machine.faults.counts:
                assert s.total_simulated_seconds > 0.0


class TestPlanReplay:
    """plan_replay: the surviving forest and the edges crossing its cut."""

    @pytest.mark.parametrize("seed", range(5))
    def test_crossing_set_matches_per_edge_check(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        rows = _triples(rng, n, int(rng.integers(n, 4 * n)))
        with GraphSession(n, rows, n_procs=3) as s:
            view = s.view
        forest = list(zip(view.forest_u.tolist(), view.forest_v.tolist()))
        dead = {forest[i] for i in rng.choice(
            len(forest), int(rng.integers(1, len(forest))), replace=False)}
        dead.add(_nontree_pair(view))
        del_pairs = np.array(sorted(dead), dtype=np.int64)
        forest_keep, crossing = plan_replay(
            view, del_pairs, _directed_rows(view, del_pairs))

        assert forest_keep.tolist() == [e not in dead for e in forest]
        adj = {v: [] for v in range(n)}
        for a, b in forest:
            if (a, b) not in dead:
                adj[a].append(b)
                adj[b].append(a)

        def reachable(a, b):
            seen, todo = {a}, [a]
            while todo:
                for y in adj[todo.pop()]:
                    if y not in seen:
                        seen.add(y)
                        todo.append(y)
            return b in seen

        e = view.edges
        want = [row for row in range(len(e))
                if e.u[row] < e.v[row]
                and (int(e.u[row]), int(e.v[row])) not in dead
                and not reachable(int(e.u[row]), int(e.v[row]))]
        assert crossing.tolist() == want
        assert not any(view.edge_in_msf(int(e.u[r]), int(e.v[r]))
                       for r in crossing), "a kept forest edge never crosses"


def _bare_view(n, rows, forest=()):
    """A SessionView of undirected ``rows`` with the given forest pairs."""
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    edges = incremental.symmetrized_edges(arr[:, 0], arr[:, 1], arr[:, 2])
    f = np.asarray(sorted(forest), dtype=np.int64).reshape(-1, 3)
    return SessionView(
        version=0, n_vertices=n, edges=edges,
        codes=edges.u.astype(np.int64) * n + edges.v.astype(np.int64),
        forest_u=f[:, 0], forest_v=f[:, 1], forest_w=f[:, 2],
        forest_codes=f[:, 0] * n + f[:, 1], total_weight=int(f[:, 2].sum()),
        n_components=n, component_of=np.arange(n))


def _lexsort_rebuild(view, del_pairs, ins_rows):
    """The directed list after a batch as a full (u, v, w) lexsort."""
    n = view.n_vertices
    a, b = del_pairs[:, 0], del_pairs[:, 1]
    keep = ~np.isin(view.codes, np.concatenate([a * n + b, b * n + a]))
    iu, iv, iw = ins_rows[:, 0], ins_rows[:, 1], ins_rows[:, 2]
    u = np.concatenate([view.edges.u[keep].astype(np.int64), iu, iv])
    v = np.concatenate([view.edges.v[keep].astype(np.int64), iv, iu])
    w = np.concatenate([view.edges.w[keep].astype(np.int64), iw, iw])
    order = np.lexsort((w, v, u))
    edges = Edges(u[order], v[order], w[order])
    return edges, edges.u.astype(np.int64) * n + edges.v.astype(np.int64)


def _assert_same_list(edges, codes, want_edges, want_codes):
    for col in ("u", "v", "w", "id"):
        got, want = getattr(edges, col), getattr(want_edges, col)
        assert got.dtype == want.dtype, col
        assert np.array_equal(got, want), col
    assert codes.dtype == want_codes.dtype
    assert np.array_equal(codes, want_codes)


@st.composite
def _batches(draw):
    """(n, rows, deleted pairs, inserted rows) on at most 9 vertices.

    An inserted pair is absent or deleted in the same batch (a delete and
    a re-insert with a new weight); weights repeat and reach 2^62 - 1.
    """
    n = draw(st.integers(1, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    flags = st.lists(st.booleans(), min_size=len(pairs),
                     max_size=len(pairs))
    present, deleted, inserted = draw(flags), draw(flags), draw(flags)
    weights = draw(st.lists(
        st.one_of(st.integers(1, 4), st.just(WEIGHT_LIMIT - 1)),
        min_size=2 * len(pairs), max_size=2 * len(pairs)))
    rows, dels, ins = [], [], []
    for i, (a, b) in enumerate(pairs):
        if present[i]:
            rows.append([a, b, weights[i]])
            if deleted[i]:
                dels.append([a, b])
        if inserted[i] and (not present[i] or deleted[i]):
            ins.append([a, b, weights[len(pairs) + i]])
    return n, rows, dels, ins


class TestMergedView:
    """A commit merges the kept rows with the inserted ones; the result is
    what a full (u, v, w) lexsort of the mutated list gives, to the byte."""

    @given(batch=_batches())
    def test_merge_equals_lexsort_rebuild(self, batch):
        n, rows, dels, ins = batch
        view = _bare_view(n, rows)
        del_pairs = np.array(dels, dtype=np.int64).reshape(-1, 2)
        ins_rows = np.array(ins, dtype=np.int64).reshape(-1, 3)
        edges, codes = _merged(view, _directed_rows(view, del_pairs),
                               ins_rows)
        _assert_same_list(edges, codes,
                          *_lexsort_rebuild(view, del_pairs, ins_rows))

    def test_merge_refuses_a_present_pair(self):
        view = _bare_view(3, [[0, 1, 5]])
        with pytest.raises(RuntimeError, match="internal"):
            _merged(view, np.empty(0, dtype=np.int64),
                    np.array([[0, 1, 7]], dtype=np.int64))

    @pytest.mark.parametrize("n,rows,epochs", [
        # a pair deleted and re-inserted with a new weight in one epoch
        (5, [[0, 1, 5], [1, 2, 3], [2, 3, 9], [0, 3, 4]],
         [[("delete", [[1, 2], [0, 3]]), ("insert", [[2, 1, 8]])]]),
        # inserts before the first and after the last pair code
        (6, [[2, 3, 5], [3, 4, 1]],
         [[("insert", [[0, 1, 7], [4, 5, 2]])],
          [("insert", [[0, 2, 3], [5, 3, 4]])]]),
        # every edge deleted, then the empty list grows again
        (4, [[0, 1, 1], [1, 2, 2], [2, 3, 3], [0, 3, 4]],
         [[("delete", [[0, 1], [1, 2], [2, 3], [0, 3]])],
          [("insert", [[3, 1, 6]])]]),
        # an empty graph
        (4, [], [[("insert", [[0, 3, 2], [1, 2, 2]])],
                 [("delete", [[0, 3]]), ("insert", [[0, 1, 1]])]]),
    ])
    def test_epochs_publish_the_lexsort_rebuild(self, n, rows, epochs):
        model = Model(rows)
        with GraphSession(n, rows, n_procs=2) as s:
            for ops in epochs:
                before = s.view
                dels = [sorted(r) for kind, rs in ops if kind == "delete"
                        for r in rs]
                ins = [sorted(r[:2]) + [r[2]] for kind, rs in ops
                       if kind == "insert" for r in rs]
                outcomes, report = s.apply_epoch(ops)
                assert outcomes == [None] * len(ops) and report is not None
                model.apply(ops)
                _assert_same_list(s.view.edges, s.view.codes,
                                  *_lexsort_rebuild(
                                      before,
                                      np.array(dels, dtype=np.int64)
                                      .reshape(-1, 2),
                                      np.array(ins, dtype=np.int64)
                                      .reshape(-1, 3)))
                _check(s, model.rows())


def _uf_roots(n, u, v):
    uf = UnionFind(n)
    uf.union_edges(np.asarray(u, dtype=np.int64),
                   np.asarray(v, dtype=np.int64))
    return uf.find_many(np.arange(n))


def _smallest_member(roots):
    """Per vertex, the smallest vertex sharing its union-find root."""
    first = {}
    for x, r in enumerate(roots.tolist()):
        first.setdefault(r, x)
    return np.array([first[r] for r in roots.tolist()], dtype=np.int64)


class TestComponentLabels:
    """component_of is each component's smallest vertex, stable across
    versions whose components did not change."""

    @given(n=st.integers(0, 40), data=st.data())
    def test_hook_and_shortcut_matches_union_find(self, n, data):
        m = data.draw(st.integers(0, 2 * n))
        ends = st.lists(st.integers(0, max(n - 1, 0)), min_size=m,
                        max_size=m)
        u, v = (data.draw(ends), data.draw(ends)) if n else ([], [])
        labels = incremental.component_labels(n, u, v)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, _smallest_member(_uf_roots(n, u, v)))

    def test_path_in_descending_order(self):
        n = 257
        labels = incremental.component_labels(
            n, np.arange(n - 1, 0, -1), np.arange(n - 2, -1, -1))
        assert not labels.any()

    @pytest.mark.parametrize("seed", range(3))
    def test_session_labels_and_a_sparsified_epoch(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        rows = _triples(rng, n, 45)
        arr = np.asarray(rows, dtype=np.int64)
        roots = _uf_roots(n, arr[:, 0], arr[:, 1])
        with GraphSession(n, rows, n_procs=3) as s:
            view = s.view
            assert np.array_equal(view.component_of, _smallest_member(roots))
            assert view.n_components == len(np.unique(roots))
            a, b = next((a, b) for a in range(n) for b in range(a + 1, n)
                        if roots[a] == roots[b] and not view.has_pair(a, b))
            outcomes, report = s.apply_epoch(
                [("insert", [[a, b, 1]]),
                 ("delete", [list(_nontree_pair(view))])])
            assert report.strategy == "sparsified"
            assert s.view.version == view.version + 1
            assert np.array_equal(s.view.component_of, view.component_of)
            assert s.view.n_components == view.n_components
            assert s.components(vertices=list(range(n)))["component_of"] \
                == view.component_of.tolist()


@st.composite
def _forest_cuts(draw):
    """A graph, a spanning forest of it, and a delete set on both."""
    n = draw(st.integers(2, 24))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rows = [[a, b, draw(st.integers(1, 9))] for a, b in
            draw(st.lists(st.sampled_from(pairs), unique=True,
                          min_size=1, max_size=3 * n))]
    uf, forest = UnionFind(n), []
    for i in draw(st.permutations(range(len(rows)))):
        if uf.union(rows[i][0], rows[i][1]):
            forest.append(rows[i])
    cut = draw(st.lists(st.booleans(), min_size=len(rows),
                        max_size=len(rows)))
    return n, rows, forest, sorted(r[:2] for r, c in zip(rows, cut) if c)


class TestPlanReplayOracle:
    @given(case=_forest_cuts())
    def test_crossing_matches_union_find(self, case):
        n, rows, forest, dead = case
        view = _bare_view(n, rows, [tuple(r) for r in forest])
        del_pairs = np.array(dead, dtype=np.int64).reshape(-1, 2)
        forest_keep, crossing = plan_replay(
            view, del_pairs, _directed_rows(view, del_pairs))

        gone = set(map(tuple, dead))
        kept = [r for r in sorted(map(tuple, forest)) if r[:2] not in gone]
        assert forest_keep.tolist() == [r[:2] not in gone
                                        for r in sorted(map(tuple, forest))]
        roots = _uf_roots(n, [r[0] for r in kept], [r[1] for r in kept])
        e = view.edges
        want = [row for row in range(len(e))
                if e.u[row] < e.v[row]
                and (int(e.u[row]), int(e.v[row])) not in gone
                and roots[e.u[row]] != roots[e.v[row]]]
        assert crossing.tolist() == want


class TestParentWrongAnswers:
    """Instances the checkpoint-log replay answered wrongly (ISSUE 24)."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("base_case_min", [1, 2])
    def test_shadowed_parallel_edge(self, p, base_case_min):
        # After round 0 contracts {0,1} and {2,3}, REDISTRIBUTE keeps
        # (0,2,5) of the parallel pair and drops (1,3,7) -- the edge that
        # must replace it once (0,2) is deleted.
        rows = [[0, 1, 1], [2, 3, 1], [0, 2, 5], [1, 3, 7], [4, 5, 1],
                [6, 7, 1], [4, 6, 2], [5, 7, 9], [3, 4, 3]]
        cfg = BoruvkaConfig(base_case_min=base_case_min,
                            base_case_factor=1, local_preprocessing=False)
        with GraphSession(8, rows, n_procs=p, cfg=cfg) as s:
            outcomes, report = s.apply_epoch([("delete", [[0, 2]])])
            assert outcomes == [None]
            assert s.view.total_weight == 16
            assert s.view.n_components == 1
            assert report.strategy == "replay" and report.n_reoffered == 1

    def test_roadmap_two_epoch_reproducer(self):
        rows = _dict_rows(np.random.default_rng(18386), 62, 124)
        model = Model(rows)
        with GraphSession(62, rows, n_procs=3, cfg=MULTI_ROUND) as s:
            for ops in (
                [("delete", [[22, 32], [9, 31], [9, 32]])],
                [("insert", [[40, 56, 557467], [28, 58, 834094],
                             [0, 50, 309612]]),
                 ("delete", [[3, 22]])],
            ):
                outcomes, report = s.apply_epoch(ops)
                assert all(o is None for o in outcomes), outcomes
                assert report.strategy == "replay"
                model.apply(ops)
                _check(s, model.rows())
            assert s.view.total_weight == 15_900_308

    @pytest.mark.parametrize(
        "seed", [18, 21, 73, 88, 145, 188, 206, 215, 229])
    def test_single_forest_delete_sweep_seed(self, seed):
        """The nine wrong sessions of the 300-seed single-delete sweep."""
        rng = np.random.default_rng(seed)
        rows = _dict_rows(rng, 64, 256)
        cfg = BoruvkaConfig(base_case_min=8, base_case_factor=1,
                            local_preprocessing=False)
        with GraphSession(64, rows, n_procs=3, cfg=cfg) as s:
            k = int(rng.integers(0, len(s.view.forest_u)))
            ops = [("delete", [[int(s.view.forest_u[k]),
                                int(s.view.forest_v[k])]])]
            outcomes, report = s.apply_epoch(ops)
            assert outcomes == [None] and report.strategy == "replay"
            model = Model(rows)
            model.apply(ops)
            _check(s, model.rows())


def _drive(coro):
    """Run one async queue scenario against a tiny session."""
    rows = [[0, 1, 4], [1, 2, 6], [2, 3, 1], [0, 3, 9]]
    with GraphSession(4, rows, n_procs=2) as session:
        async def main():
            queue = RequestQueue(session, max_depth=2, readers=2,
                                 epoch_max_batch=1000,
                                 epoch_max_delay_s=600.0)
            try:
                return await coro(queue)
            finally:
                queue.close()
        return asyncio.run(main())


class TestQueueSemantics:
    def test_percentile(self):
        assert percentile([], 99) == 0.0
        assert percentile([5.0], 50) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0

    def test_query_roundtrip_and_metrics(self):
        async def scenario(queue):
            return await queue.submit({"id": 1, "op": "msf_weight"})

        resp = _drive(scenario)
        assert resp["ok"] and resp["result"]["weight"] == 11
        assert resp["metrics"]["version"] == 0
        assert resp["metrics"]["queue_wait_ms"] >= 0.0

    def test_backpressure_rejects_at_depth(self):
        async def scenario(queue):
            first = asyncio.ensure_future(queue.submit(
                {"id": 1, "op": "insert_edges", "edges": [[0, 2, 2]]}))
            await asyncio.sleep(0)
            second = asyncio.ensure_future(queue.submit(
                {"id": 2, "op": "insert_edges", "edges": [[1, 3, 2]]}))
            await asyncio.sleep(0)
            third = await queue.submit(
                {"id": 3, "op": "delete_edges", "edges": [[0, 3]]})
            flush = await queue.submit({"id": 4, "op": "flush"})
            return await first, await second, third, flush

        r1, r2, r3, flush = _drive(scenario)
        assert r1["ok"] and r2["ok"]
        assert not r3["ok"] and r3["error"]["code"] == "queue_full"
        assert flush["ok"] and flush["result"]["committed"]

    def test_cancel_pending_mutation(self):
        async def scenario(queue):
            fut = asyncio.ensure_future(queue.submit(
                {"id": "m1", "op": "insert_edges", "edges": [[0, 2, 2]]}))
            await asyncio.sleep(0)
            cancel = await queue.submit(
                {"id": "c", "op": "cancel", "target": "m1"})
            flush = await queue.submit({"id": "f", "op": "flush"})
            return await fut, cancel, flush

        mut, cancel, flush = _drive(scenario)
        assert not mut["ok"] and mut["error"]["code"] == "cancelled"
        assert cancel["ok"] and cancel["result"]["cancelled"] is True
        assert flush["result"]["committed"] is False

    def test_cancel_unknown_target(self):
        async def scenario(queue):
            return await queue.submit(
                {"id": "c", "op": "cancel", "target": "nope"})

        resp = _drive(scenario)
        assert resp["ok"] and resp["result"]["cancelled"] is False

    def test_mutation_deadline_expires_at_commit(self):
        async def scenario(queue):
            fut = asyncio.ensure_future(queue.submit(
                {"id": "m", "op": "insert_edges", "edges": [[0, 2, 2]],
                 "deadline_ms": 0.001}))
            await asyncio.sleep(0.02)
            flush = await queue.submit({"id": "f", "op": "flush"})
            return await fut, flush

        mut, flush = _drive(scenario)
        assert not mut["ok"]
        assert mut["error"]["code"] == "deadline_exceeded"
        assert flush["result"]["committed"] is False

    def test_epoch_batch_trigger_commits_without_flush(self):
        async def scenario(queue):
            queue.epoch_max_batch = 2
            futs = [asyncio.ensure_future(queue.submit(
                {"id": i, "op": "insert_edges", "edges": [edge]}))
                for i, edge in enumerate([[0, 2, 2], [1, 3, 2]])]
            return await asyncio.wait_for(asyncio.gather(*futs), 30)

        r0, r1 = _drive(scenario)
        assert r0["ok"] and r1["ok"]
        assert r0["result"]["strategy"] == "sparsified"

    def test_epoch_timer_trigger(self):
        async def scenario(queue):
            queue.epoch_max_delay_s = 0.01
            return await asyncio.wait_for(queue.submit(
                {"id": 1, "op": "insert_edges", "edges": [[0, 2, 2]]}), 30)

        resp = _drive(scenario)
        assert resp["ok"] and resp["result"]["applied"] is True

    def test_invalid_mutation_is_bad_request(self):
        async def scenario(queue):
            fut = asyncio.ensure_future(queue.submit(
                {"id": 1, "op": "delete_edges", "edges": [[0, 2]]}))
            await asyncio.sleep(0)
            flush = await queue.submit({"id": "f", "op": "flush"})
            return await fut, flush

        mut, _ = _drive(scenario)
        assert not mut["ok"] and mut["error"]["code"] == "bad_request"
        assert "does not exist" in mut["error"]["message"]

    def test_malformed_mutation_spares_its_batch(self):
        async def scenario(queue):
            good = asyncio.ensure_future(queue.submit(
                {"id": 1, "op": "insert_edges", "edges": [[0, 2, 2]]}))
            bad = asyncio.ensure_future(queue.submit(
                {"id": 2, "op": "delete_edges", "edges": [7]}))
            await asyncio.sleep(0)
            flush = await queue.submit({"id": "f", "op": "flush"})
            return (await good, await bad, flush,
                    dict(queue.session.epoch_counts))

        good, bad, flush, epochs = _drive(scenario)
        assert good["ok"] and good["result"]["applied"] is True
        assert good["result"]["strategy"] == "sparsified"
        assert not bad["ok"] and bad["error"]["code"] == "bad_request"
        assert "delete rows" in bad["error"]["message"]
        assert flush["result"]["committed"] is True
        assert epochs == {"sparsified": 1}

    def test_replay_reply_carries_n_reoffered(self):
        async def scenario(queue):
            fut = asyncio.ensure_future(queue.submit(
                {"id": 1, "op": "delete_edges", "edges": [[2, 3]]}))
            await asyncio.sleep(0)
            await queue.submit({"id": "f", "op": "flush"})
            return await fut, queue.summary()

        # (2,3,1) is a forest edge of the 4-cycle; (0,3,9) replaces it.
        resp, summary = _drive(scenario)
        assert resp["ok"] and resp["result"]["strategy"] == "replay"
        assert resp["result"]["n_reoffered"] == 1
        assert resp["result"]["weight"] == 19
        assert "replay_depths" not in summary

    def test_query_validation_maps_to_bad_request(self):
        async def scenario(queue):
            return await queue.submit(
                {"id": 1, "op": "edge_in_msf", "u": 0, "v": 99})

        resp = _drive(scenario)
        assert not resp["ok"] and resp["error"]["code"] == "bad_request"

    #: ``vertices`` values a ``components`` query must refuse as
    #: ``bad_request``: a non-list, floats (never truncated), strings,
    #: bools, ids past int64 and ids out of range.
    BAD_VERTICES = [5, [1.5], ["3"], [True], [2**70], [-1], [4], [0, "1"],
                    "03"]

    @pytest.mark.parametrize("vertices", BAD_VERTICES)
    def test_components_vertices_validated(self, vertices):
        async def scenario(queue):
            return await queue.submit(
                {"id": 1, "op": "components", "vertices": vertices})

        resp = _drive(scenario)
        assert not resp["ok"] and resp["error"]["code"] == "bad_request"

    def test_components_vertices_accepted(self):
        async def scenario(queue):
            return [await queue.submit(
                {"id": k, "op": "components", "vertices": vs})
                for k, vs in enumerate(([0, 3, 3], [], None,
                                        [np.int64(2)]))]

        answers = _drive(scenario)
        assert all(r["ok"] for r in answers)
        assert answers[0]["result"]["component_of"] == [0, 0, 0]
        assert answers[1]["result"]["component_of"] == []
        assert "component_of" not in answers[2]["result"]
        assert answers[3]["result"]["component_of"] == [0]

    def test_shutdown_then_reject(self):
        async def scenario(queue):
            down = await queue.submit({"id": 1, "op": "shutdown"})
            late = await queue.submit({"id": 2, "op": "msf_weight"})
            return down, late

        down, late = _drive(scenario)
        assert down["ok"]
        assert not late["ok"] and late["error"]["code"] == "shutdown"

    def test_summary_counts(self):
        async def scenario(queue):
            await queue.submit({"id": 1, "op": "msf_weight"})
            await queue.submit({"id": 2, "op": "stats"})
            return queue.summary()

        summary = _drive(scenario)
        assert summary["requests"] == 2 and summary["errors"] == 0
        assert summary["p99_latency_ms"] >= summary["p50_latency_ms"] >= 0

    def test_summary_reads_sorted_samples(self, monkeypatch):
        """``stats`` answers from the samples as kept, without sorting the
        lifetime list on every call."""
        import repro.serve.queue as queue_mod

        def no_sort(values):
            raise AssertionError("summary sorted the latency samples")

        async def scenario(queue):
            for k in range(12):
                await queue.submit({"id": k, "op": ("msf_weight", "stats",
                                                    "components")[k % 3]})
            monkeypatch.setattr(queue_mod, "sorted", no_sort, raising=False)
            return queue, queue.summary()

        queue, summary = _drive(scenario)
        monkeypatch.undo()
        lat = queue.latencies
        assert len(lat) == 12 and lat == sorted(lat)
        assert summary["p50_latency_ms"] == percentile(lat, 50) * 1e3
        assert summary["p99_latency_ms"] == percentile(lat, 99) * 1e3
        waits = queue.metrics.histogram("serve/queue_wait_s")
        assert summary["mean_queue_wait_ms"] == waits.mean * 1e3


class TestProtocol:
    def test_parse_rejects(self):
        for line, err in [
            ("not json", "invalid JSON"),
            ("[1,2]", "object"),
            ('{"id":1}', "op"),
            ('{"id":1,"op":"nope"}', "unknown op"),
            ('{"id":1,"op":"insert_edges"}', "edges"),
            ('{"id":1,"op":"edge_in_msf"}', "u"),
            ('{"id":1,"op":"cancel"}', "target"),
            ('{"id":1,"op":"msf_weight","deadline_ms":-5}', "deadline_ms"),
            ('{"id":[1],"op":"msf_weight"}', "id"),
            ('{"id":true,"op":"msf_weight"}', "id"),
            ('{"id":1,"op":"msf_weight","deadline_ms":true}', "deadline_ms"),
            ('{"id":1,"op":"components","vertices":5}', "vertices"),
            ('{"id":1,"op":"components","vertices":"0"}', "vertices"),
            ('{"id":1,"op":"components","vertices":{"0":1}}', "vertices"),
        ]:
            with pytest.raises(protocol.ProtocolError, match=err):
                protocol.parse_request(line)

    def test_encode_is_compact_json(self):
        text = protocol.encode_response(
            protocol.ok_response(1, {"weight": 3}))
        assert "\n" not in text
        assert json.loads(text) == {
            "id": 1, "ok": True, "result": {"weight": 3}}


class TestServeLines:
    def test_roundtrip_script(self):
        # Queries may legally overtake an in-flight epoch commit, so the
        # post-mutation reads go in a second script on the same session
        # (the shutdown barrier guarantees the first script's epoch is
        # committed before serve_lines returns).
        rows = [[0, 1, 4], [1, 2, 6], [2, 3, 1]]
        with GraphSession(5, rows, n_procs=2) as session:
            first = [
                '{"id": 1, "op": "msf_weight"}',
                '{"id": 2, "op": "insert_edges", "edges": [[3, 4, 2]]}',
                '{"id": 3, "op": "flush"}',
                'garbage {{{',
                '{"id": 6, "op": "shutdown"}',
                '{"id": 7, "op": "msf_weight"}',  # after shutdown: unread
            ]
            out = [json.loads(t) for t in serve_lines(
                session, first, epoch_max_batch=1000,
                epoch_max_delay_s=600.0)]
            second = [json.loads(t) for t in serve_lines(session, [
                '{"id": 4, "op": "msf_weight"}',
                '{"id": 5, "op": "edge_in_msf", "u": 3, "v": 4}',
            ], epoch_max_batch=1000, epoch_max_delay_s=600.0)]
        by_id = {r.get("id"): r for r in out + second}
        assert by_id[1]["result"]["weight"] == 11
        assert by_id[2]["result"]["applied"] is True
        assert by_id[3]["result"]["committed"] is True
        assert by_id[4]["result"]["weight"] == 13
        assert by_id[5]["result"]["in_msf"] is True
        assert by_id[6]["ok"], "shutdown must be acknowledged"
        assert 7 not in by_id, "lines after shutdown must not be served"
        bad = [r for r in out if not r["ok"]]
        assert len(bad) == 1
        assert bad[0]["error"]["code"] == "bad_request"
        assert out[-1]["id"] == 6, "shutdown response must go out last"

    def test_components_vertices_validated(self):
        """Malformed ``vertices`` are ``bad_request`` frames on the wire:
        a non-list at the parser, a bad element at the session."""
        with GraphSession(4, [[0, 1, 4], [2, 3, 1]], n_procs=2) as session:
            bad = [5, [1.5], ["3"], [True], [2**70], [-1], [4]]
            lines = [json.dumps({"id": k, "op": "components",
                                 "vertices": vs})
                     for k, vs in enumerate(bad)]
            lines.append(json.dumps({"id": "ok", "op": "components",
                                     "vertices": [3, 0]}))
            out = {r["id"]: r for r in map(json.loads, serve_lines(
                session, lines, epoch_max_batch=1000,
                epoch_max_delay_s=600.0))}
        assert sorted(k for k in out if k != "ok") == list(range(len(bad)))
        for k in range(len(bad)):
            assert out[k]["error"]["code"] == "bad_request", bad[k]
        assert out["ok"]["result"]["component_of"] == [2, 0]

    def test_mutations_batch_into_one_epoch(self):
        rows = _triples(np.random.default_rng(3), 32, 100)
        with GraphSession(32, rows, n_procs=2) as session:
            pairs = _absent_pairs(session.view, 4)
            lines = [json.dumps(
                {"id": i, "op": "insert_edges",
                 "edges": [[u, v, 1]]}) for i, (u, v) in enumerate(pairs)]
            lines.append('{"id": "f", "op": "flush"}')
            out = [json.loads(t) for t in serve_lines(
                session, lines, epoch_max_batch=1000,
                epoch_max_delay_s=600.0)]
            assert sum(session.epoch_counts.values()) == 1
            applied = [r for r in out if r["id"] != "f"]
            assert all(r["ok"] and r["result"]["n_inserted"] == 4
                       for r in applied)


class TestServeTcp:
    def test_tcp_roundtrip(self):
        rows = [[0, 1, 4], [1, 2, 6]]

        async def main():
            with GraphSession(3, rows, n_procs=2) as session:
                addr = {}
                server = asyncio.ensure_future(serve_tcp(
                    session, ready=lambda hp: addr.update(
                        host=hp[0], port=hp[1]),
                    epoch_max_batch=1000, epoch_max_delay_s=600.0))
                while not addr:
                    await asyncio.sleep(0.01)
                reader, writer = await asyncio.open_connection(
                    addr["host"], addr["port"])

                async def call(batch):
                    for req in batch:
                        writer.write((json.dumps(req) + "\n").encode())
                    await writer.drain()
                    got = []
                    while len(got) < len(batch):
                        line = await asyncio.wait_for(
                            reader.readline(), 30)
                        got.append(json.loads(line.decode()))
                    return got

                # The flush response is read back before the follow-up
                # query is sent, so the weight read is deterministic.
                out = await call([
                    {"id": 1, "op": "stats"},
                    {"id": 2, "op": "delete_edges", "edges": [[0, 1]]},
                    {"id": 3, "op": "flush"},
                ])
                out += await call([{"id": 4, "op": "msf_weight"}])
                out += await call([{"id": 5, "op": "shutdown"}])
                writer.close()
                summary = await asyncio.wait_for(server, 30)
                return out, summary

        out, summary = asyncio.run(main())
        by_id = {r["id"]: r for r in out}
        assert by_id[1]["result"]["n_edges"] == 2
        assert by_id[2]["ok"] and by_id[3]["result"]["committed"]
        assert by_id[4]["result"]["weight"] == 6
        assert by_id[5]["ok"]
        assert summary["requests"] == 5 and summary["errors"] == 0


class TestResetAudit:
    """Satellite: repeated session recomputes must not leak (ISSUE 10)."""

    def test_hundred_recomputes_bound_memory_and_shm(self):
        import tracemalloc

        shm_before = len(os.listdir("/dev/shm")) \
            if os.path.isdir("/dev/shm") else None
        rows = _triples(np.random.default_rng(4), 100, 300)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            with GraphSession(100, rows, n_procs=4) as s:
                weight = s.view.total_weight
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                for _ in range(100):
                    report = s.recompute_full()
                    assert report.total_weight == weight
                current, peak = tracemalloc.get_traced_memory()
                assert s.view.version == 100
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # A 300-edge session needs well under 1 MiB at any moment (about
        # 0.3 MiB measured); what the recomputes leave behind stays small.
        assert peak - start < 1 << 20, f"peak {peak - start} bytes"
        assert current - start < 256 << 10, f"kept {current - start} bytes"
        if shm_before is not None:
            assert len(os.listdir("/dev/shm")) == shm_before, (
                "shared-memory segments leaked by repeated recomputes")
