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

from repro.core import BoruvkaConfig, RoundCheckpointLog
from repro.dgraph.edges import Edges
from repro.seq import msf_weight, spans_same_components
from repro.serve import (
    GraphSession,
    MutationError,
    ReplayBase,
    RequestQueue,
    percentile,
    plan_replay,
    serve_lines,
    serve_tcp,
)
from repro.serve import incremental, protocol

#: Forces several Borůvka rounds on modest graphs so replay has a log.
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
        assert len(s._base.log) > 0, "config produced no logged rounds"
        pair = _tree_pair(s.view)
        report = self._apply(s, model, [("delete", [list(pair)])])
        assert report.strategy == "replay"
        assert report.replayed_from is not None
        assert s.replay_depths == [report.replayed_from]

    def test_tree_delete_full_without_log(self):
        rows = _triples(np.random.default_rng(2), 48, 150)
        with GraphSession(48, rows, n_procs=4, cfg=MULTI_ROUND,
                          log_max_rounds=0) as s:
            model = Model(rows)
            pair = _tree_pair(s.view)
            outcomes, report = s.apply_epoch([("delete", [list(pair)])])
            assert outcomes == [None]
            assert report.strategy == "full"
            model.apply([("delete", [list(pair)])])
            _check(s, model.rows())

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
        s, model = session

        def boom(*a, **k):
            raise RuntimeError("injected recompute failure")

        (a, b), = _absent_pairs(s.view, 1)
        monkeypatch.setattr(incremental, "sparsified_recompute", boom)
        before = s.view
        with pytest.raises(RuntimeError, match="injected"):
            s.apply_epoch([("insert", [[a, b, 3]])])
        assert s.view is before, "failed epoch must not publish"
        monkeypatch.undo()
        # the session stays fully usable afterwards
        self._apply(s, model, [("insert", [[a, b, 3]])])


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
    """Unit tests over fabricated checkpoint logs (duck-typed parts)."""

    class _Ckpt:
        """Stand-in for a RoundCheckpoint: only ``parts[*].id`` is read."""

        class _Part:
            def __init__(self, ids):
                self.id = np.asarray(ids, dtype=np.int64)

        def __init__(self, ids):
            self.parts = [self._Part(ids)]

    def _base(self, entries, forest_ids):
        log = RoundCheckpointLog()
        for r, ids in entries.items():
            log.record(r, "round_body", self._Ckpt(ids))
        forest_ids = np.asarray(forest_ids, dtype=np.int64)
        return ReplayBase(log=log, snapshot=None, forest_ids=forest_ids,
                          forest_weights=np.ones_like(forest_ids),
                          total_rounds=max(entries, default=0) + 1)

    def test_no_base_or_empty_log(self):
        assert plan_replay(None, np.array([1])) is None
        base = self._base({}, [1, 2])
        assert plan_replay(base, np.array([1])) is None

    def test_unsupported_log(self):
        base = self._base({0: [1, 2, 3]}, [1, 2])
        base.log.mark_unsupported("body")
        assert plan_replay(base, np.array([1])) is None

    def test_no_dead_tree_resumes_deepest(self):
        base = self._base({0: [1, 2, 3, 9], 2: [2, 3, 9]}, [1, 2, 3])
        # deleted id 9 is not a forest edge: deepest logged round wins
        assert plan_replay(base, np.array([9])) == 2

    def test_dead_tree_resumes_before_last_seen(self):
        base = self._base({0: [1, 2, 3], 1: [2, 3], 2: [3]}, [1, 2, 3])
        # id 2 last seen in round 1 -> resume at round 1; id 1 last seen
        # in round 0 -> the minimum wins
        assert plan_replay(base, np.array([2]),
                           max_dirty_fraction=1.0) == 1
        assert plan_replay(base, np.array([1, 2]),
                           max_dirty_fraction=1.0) == 0

    def test_preprocessing_consumed_id_abandons(self):
        base = self._base({1: [2, 3], 2: [3]}, [1, 2, 3])
        # forest id 1 never appears in any logged round
        assert plan_replay(base, np.array([1]),
                           max_dirty_fraction=1.0) is None

    def test_dirty_fraction_abandons(self):
        base = self._base({0: [1, 2, 3, 4]}, [1, 2, 3, 4])
        assert plan_replay(base, np.array([1, 2]),
                           max_dirty_fraction=0.25) is None
        assert plan_replay(base, np.array([1]),
                           max_dirty_fraction=0.25) == 0


class TestRoundCheckpointLog:
    def test_prefix_retention(self):
        log = RoundCheckpointLog(max_entries=2)
        assert log.wants(0)
        log.record(0, "a", "h0")
        log.record(1, "a", "h1")
        assert not log.wants(2), "log must stop at max_entries"
        assert log.wants(1), "replayed logged round refreshes its entry"
        assert len(log) == 2
        assert log.handle(1) == "h1" and log.handle(5) is None

    def test_deepest_at_or_before(self):
        log = RoundCheckpointLog()
        log.record(0, "a", "h0")
        log.record(3, "a", "h3")
        assert log.deepest_at_or_before(2) == 0
        assert log.deepest_at_or_before(3) == 3
        assert RoundCheckpointLog().deepest_at_or_before(4) is None

    def test_unsupported_clears(self):
        log = RoundCheckpointLog()
        log.record(0, "a", "h0")
        log.mark_unsupported("body")
        assert len(log) == 0 and not log.wants(1)
        log.clear()
        assert log.unsupported is None and log.wants(0)


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

    def test_query_validation_maps_to_bad_request(self):
        async def scenario(queue):
            return await queue.submit(
                {"id": 1, "op": "edge_in_msf", "u": 0, "v": 99})

        resp = _drive(scenario)
        assert not resp["ok"] and resp["error"]["code"] == "bad_request"

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

    def test_hundred_recomputes_bound_pool_and_shm(self):
        from repro.kernels.pool import _default_max_bytes

        shm_before = len(os.listdir("/dev/shm")) \
            if os.path.isdir("/dev/shm") else None
        rows = _triples(np.random.default_rng(4), 100, 300)
        budget = _default_max_bytes()
        with GraphSession(100, rows, n_procs=4) as s:
            weight = s.view.total_weight
            for i in range(100):
                report = s.recompute_full()
                assert report.total_weight == weight
                held = s.machine.pool.held_bytes
                assert held <= budget, (
                    f"iteration {i}: pool parked {held} bytes, over the "
                    f"REPRO_POOL_MAX_MB budget of {budget}")
            assert s.view.version == 100
        if shm_before is not None:
            assert len(os.listdir("/dev/shm")) == shm_before, (
                "shared-memory segments leaked by repeated recomputes")
