"""Async single-writer / multi-reader request queue over a GraphSession.

All queue state lives on one asyncio event loop.  Queries run on a small
reader thread pool against the session's immutable published view -- they
never block behind a recompute.  Mutations are staged into the *pending
epoch* and committed as one batch on a dedicated single-writer thread
when any of three triggers fires: an explicit ``flush`` request, the
batch reaching ``epoch_max_batch``, or ``epoch_max_delay_s`` elapsing
since the first staged mutation.  A mutation's response resolves when its
epoch commits (or when it is rejected, cancelled or deadline-expired).

Backpressure is a bounded admission count: once ``max_depth`` requests
are in flight, new ones are refused immediately with ``queue_full``
rather than queued -- the caller owns the retry policy.  Deadlines are
best-effort budgets measured from enqueue; an expired request is dropped
at its next scheduling point (query dispatch or epoch commit), never
mid-compute.
"""

from __future__ import annotations

import asyncio
import bisect
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs.metrics import MetricsRegistry
from . import protocol
from .session import GraphSession, MutationError


@dataclass
class _Entry:
    """One admitted mutation awaiting its epoch commit."""

    req: Dict
    rid: object
    enqueued: float
    deadline: Optional[float]
    future: asyncio.Future = field(repr=False, default=None)
    cancelled: bool = False


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no samples."""
    return _nearest_rank(sorted(values), q)


def _nearest_rank(ordered: List[float], q: float) -> float:
    """:func:`percentile` of a list that is already sorted."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


class RequestQueue:
    """Serves protocol requests against one :class:`GraphSession`."""

    def __init__(
        self,
        session: GraphSession,
        *,
        max_depth: int = 64,
        readers: int = 4,
        default_deadline_s: Optional[float] = None,
        epoch_max_batch: int = 32,
        epoch_max_delay_s: float = 0.05,
    ):
        self.session = session
        self.max_depth = max_depth
        self.default_deadline_s = default_deadline_s
        self.epoch_max_batch = epoch_max_batch
        self.epoch_max_delay_s = epoch_max_delay_s
        self._read_pool = ThreadPoolExecutor(
            max_workers=readers, thread_name_prefix="serve-read")
        self._write_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-write")
        self._inflight = 0
        self._pending: List[_Entry] = []
        self._pending_by_id: Dict[object, _Entry] = {}
        self._epoch_timer: Optional[asyncio.TimerHandle] = None
        self._commit_lock = asyncio.Lock()
        self._closed = False
        self.metrics = MetricsRegistry()
        #: Per-request latency samples (seconds), kept sorted so that a
        #: ``stats`` query reads p50/p99 without sorting a list that grows
        #: for the queue's whole life.
        self.latencies: List[float] = []
        self._queue_wait_total = 0.0
        self.n_requests = 0
        self.n_errors = 0

    # ------------------------------------------------------------------
    async def submit(self, req: Dict) -> Dict:
        """Serve one parsed request; always returns a response dict."""
        rid = req.get("id")
        op = req["op"]
        t0 = time.monotonic()
        self.n_requests += 1
        self.metrics.counter("serve/requests").inc()
        if self._closed and op != "shutdown":
            return self._err(rid, "shutdown", "queue is shut down")
        if op == "cancel":
            return self._cancel(rid, req.get("target"))
        if op == "flush":
            committed = await self._commit_epoch()
            return protocol.ok_response(
                rid, {"committed": committed,
                      "version": self.session.view.version},
                self._metrics_for(t0, t0))
        if op == "shutdown":
            self._closed = True
            await self._commit_epoch()
            return protocol.ok_response(
                rid, {"version": self.session.view.version},
                self._metrics_for(t0, t0))

        if self._inflight >= self.max_depth:
            self.metrics.counter("serve/rejected_queue_full").inc()
            return self._err(rid, "queue_full",
                             f"queue depth {self.max_depth} exceeded")
        deadline = self._deadline_of(req, t0)
        self._inflight += 1
        try:
            if op in protocol.QUERY_OPS:
                return await self._run_query(req, rid, t0, deadline)
            return await self._stage_mutation(req, rid, t0, deadline)
        finally:
            self._inflight -= 1

    async def drain(self) -> None:
        """Commit any pending epoch (used at EOF / connection close)."""
        await self._commit_epoch()

    def close(self) -> None:
        """Shut the pools down; pending epochs must be drained first."""
        self._closed = True
        if self._epoch_timer is not None:
            self._epoch_timer.cancel()
            self._epoch_timer = None
        self._write_pool.shutdown(wait=True)
        self._read_pool.shutdown(wait=True)

    def summary(self) -> Dict:
        """Aggregate serving metrics (ledger / stats material)."""
        lat = self.latencies
        return {
            "requests": self.n_requests,
            "errors": self.n_errors,
            "p50_latency_ms": _nearest_rank(lat, 50) * 1e3,
            "p99_latency_ms": _nearest_rank(lat, 99) * 1e3,
            "mean_queue_wait_ms":
                (self._queue_wait_total / len(lat) * 1e3) if lat else 0.0,
            "epochs": dict(self.session.epoch_counts),
            "simulated_seconds": self.session.total_simulated_seconds,
        }

    # -- queries --------------------------------------------------------
    async def _run_query(self, req, rid, t0, deadline) -> Dict:
        if deadline is not None and time.monotonic() > deadline:
            return self._err(rid, "deadline_exceeded",
                             "deadline expired before dispatch")
        loop = asyncio.get_running_loop()
        start = time.monotonic()
        try:
            result = await loop.run_in_executor(
                self._read_pool, self._query_fn(req), )
        except MutationError as exc:
            return self._err(rid, "bad_request", str(exc))
        except Exception as exc:  # noqa: BLE001 -- reported to the client
            return self._err(rid, "compute_error",
                             f"{type(exc).__name__}: {exc}")
        self._observe(t0, start)
        return protocol.ok_response(rid, result,
                                    self._metrics_for(t0, start))

    def _query_fn(self, req):
        op = req["op"]
        session = self.session
        if op == "msf_weight":
            return session.msf_weight
        if op == "stats":
            return lambda: {**session.stats(), **self.summary()}
        if op == "components":
            return lambda: session.components(req.get("vertices"))
        return lambda: session.edge_in_msf(req["u"], req["v"])

    # -- mutations ------------------------------------------------------
    async def _stage_mutation(self, req, rid, t0, deadline) -> Dict:
        loop = asyncio.get_running_loop()
        entry = _Entry(req=req, rid=rid, enqueued=t0, deadline=deadline,
                       future=loop.create_future())
        self._pending.append(entry)
        if rid is not None:
            self._pending_by_id.setdefault(rid, entry)
        if len(self._pending) >= self.epoch_max_batch:
            asyncio.ensure_future(self._commit_epoch())
        elif self._epoch_timer is None:
            self._epoch_timer = loop.call_later(
                self.epoch_max_delay_s,
                lambda: asyncio.ensure_future(self._commit_epoch()))
        return await entry.future

    async def _commit_epoch(self) -> bool:
        """Commit the pending epoch; returns True when work was applied."""
        async with self._commit_lock:
            if self._epoch_timer is not None:
                self._epoch_timer.cancel()
                self._epoch_timer = None
            batch: List[_Entry] = []
            now = time.monotonic()
            for entry in self._pending:
                if entry.cancelled:
                    continue
                if entry.deadline is not None and now > entry.deadline:
                    self._resolve(entry, self._err(
                        entry.rid, "deadline_exceeded",
                        "deadline expired before epoch commit"))
                    continue
                batch.append(entry)
            self._pending.clear()
            self._pending_by_id.clear()
            if not batch:
                return False
            ops = [("insert" if e.req["op"] == "insert_edges" else
                    "delete", e.req["edges"]) for e in batch]
            loop = asyncio.get_running_loop()
            start = time.monotonic()
            try:
                outcomes, report = await loop.run_in_executor(
                    self._write_pool, self.session.apply_epoch, ops)
            except Exception as exc:  # noqa: BLE001 -- epoch failed whole
                msg = f"{type(exc).__name__}: {exc}"
                for entry in batch:
                    self._resolve(entry, self._err(
                        entry.rid, "compute_error", msg,
                        self._metrics_for(entry.enqueued, start)))
                return False
            self.metrics.counter("serve/epochs").inc()
            info = {}
            if report is not None:
                info = {
                    "strategy": report.strategy,
                    "n_inserted": report.n_inserted,
                    "n_deleted": report.n_deleted,
                    "weight": report.total_weight,
                    "simulated_seconds": report.simulated_seconds,
                }
                if report.strategy == "replay":
                    info["n_reoffered"] = report.n_reoffered
                self.metrics.series("serve/epoch_simulated_s").record(
                    report.version, report.simulated_seconds)
            for entry, outcome in zip(batch, outcomes):
                metrics = self._metrics_for(entry.enqueued, start)
                if outcome is None:
                    self._observe(entry.enqueued, start)
                    self._resolve(entry, protocol.ok_response(
                        entry.rid, {"applied": True, **info}, metrics))
                else:
                    self._resolve(entry, self._err(
                        entry.rid, "bad_request", outcome, metrics))
            return report is not None

    # -- plumbing -------------------------------------------------------
    def _cancel(self, rid, target) -> Dict:
        entry = self._pending_by_id.get(target)
        hit = entry is not None and not entry.cancelled
        if hit:
            entry.cancelled = True
            self._resolve(entry, self._err(entry.rid, "cancelled",
                                           "cancelled by request"))
        return protocol.ok_response(rid, {"cancelled": bool(hit)})

    def _deadline_of(self, req, t0) -> Optional[float]:
        ms = req.get("deadline_ms")
        if ms is not None:
            return t0 + float(ms) / 1e3
        if self.default_deadline_s is not None:
            return t0 + self.default_deadline_s
        return None

    def _resolve(self, entry: _Entry, resp: Dict) -> None:
        if not entry.future.done():
            entry.future.set_result(resp)

    def _err(self, rid, code, message, metrics=None) -> Dict:
        self.n_errors += 1
        self.metrics.counter("serve/errors").inc()
        return protocol.error_response(rid, code, message, metrics)

    def _observe(self, enqueued: float, started: float) -> None:
        now = time.monotonic()
        wait = max(0.0, started - enqueued)
        bisect.insort(self.latencies, now - enqueued)
        self._queue_wait_total += wait
        self.metrics.histogram("serve/queue_wait_s").observe(wait)
        self.metrics.histogram("serve/compute_s").observe(now - started)

    def _metrics_for(self, enqueued: float, started: float) -> Dict:
        now = time.monotonic()
        return {
            "queue_wait_ms": max(0.0, started - enqueued) * 1e3,
            "compute_ms": max(0.0, now - started) * 1e3,
            "version": self.session.view.version,
        }
