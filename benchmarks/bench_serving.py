"""Sustained serving throughput/latency under streaming edge churn.

Measures the serving layer (docs/serving.md), not the paper: one
persistent :class:`~repro.serve.GraphSession` per leg is driven through
the async :class:`~repro.serve.RequestQueue` with a seeded request mix --
queries (``msf_weight`` / ``edge_in_msf`` / ``components`` / ``stats``)
plus a ``churn`` fraction of edge mutations, committed in deterministic
epochs via explicit ``flush`` requests.  A final leg repeats the highest
churn rate with a fail-stop fault schedule active during epoch
recomputes.

Recorded per leg: sustained QPS and host-side p50/p99 latency (both
*report-only* -- host-dependent, never gated) and the leg's simulated
epoch-recompute seconds (deterministic: seeded workload, explicit epoch
boundaries; gated bit-for-bit like every simulated series).

Contracts asserted:

* every leg's final MSF weight equals sequential Kruskal on the leg's
  final edge list (incremental recompute is exact, faults included);
* every churn epoch is served incrementally (noop / sparsified / replay;
  the from-scratch run is the session build only);
* zero-churn legs commit no mutation epochs (queries are free of
  simulated recompute work).
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np

from repro.core import BoruvkaConfig
from repro.dgraph.edges import Edges
from repro.seq import msf_weight
from repro.serve import GraphSession, RequestQueue

from _common import MAX_CORES, bench_recorder, report

PROCS = min(MAX_CORES, 8)
N_VERTICES = 1024
N_EDGES = 4096
#: Requests per leg (CI shrinks via the env knob).
N_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVE_REQUESTS", "240"))
#: Mutations staged between explicit flushes (the epoch size).
FLUSH_EVERY = 8
CHURN_RATES = (0.0, 0.1, 0.3)
FAULTS = "seed=23, pe_fail=0.02"


def _initial_graph(rng):
    pairs = set()
    while len(pairs) < N_EDGES:
        a, b = rng.integers(0, N_VERTICES, 2)
        if a != b:
            pairs.add((min(int(a), int(b)), max(int(a), int(b))))
    pairs = sorted(pairs)
    return [[u, v, int(rng.integers(1, 1_000_000))] for u, v in pairs]


def _requests(rng, pairs, churn):
    """One leg's seeded request list (host-side pair set kept in sync)."""
    live = {tuple(p[:2]) for p in pairs}
    reqs, staged = [], 0
    for i in range(N_REQUESTS):
        if rng.random() < churn:
            if rng.random() < 0.5 and live:
                pair = sorted(live)[int(rng.integers(0, len(live)))]
                live.discard(pair)
                reqs.append({"id": i, "op": "delete_edges",
                             "edges": [list(pair)]})
            else:
                while True:
                    a, b = rng.integers(0, N_VERTICES, 2)
                    key = (min(int(a), int(b)), max(int(a), int(b)))
                    if a != b and key not in live:
                        break
                live.add(key)
                reqs.append({"id": i, "op": "insert_edges",
                             "edges": [[key[0], key[1],
                                        int(rng.integers(1, 1_000_000))]]})
            staged += 1
            if staged % FLUSH_EVERY == 0:
                reqs.append({"id": f"flush-{i}", "op": "flush"})
        else:
            kind = int(rng.integers(0, 4))
            if kind == 0:
                reqs.append({"id": i, "op": "msf_weight"})
            elif kind == 1:
                reqs.append({"id": i, "op": "stats"})
            elif kind == 2:
                reqs.append({"id": i, "op": "components"})
            else:
                u, v = rng.integers(0, N_VERTICES, 2)
                reqs.append({"id": i, "op": "edge_in_msf",
                             "u": int(u), "v": int(v)})
    reqs.append({"id": "final-flush", "op": "flush"})
    return reqs


def _run_leg(pairs, churn, faults=None):
    """Serve one leg; returns (summary_row, responses, session_check)."""
    cfg = BoruvkaConfig(base_case_min=64)
    session = GraphSession(N_VERTICES, pairs, n_procs=PROCS, seed=7,
                           cfg=cfg, faults=faults)
    rng = np.random.default_rng(int(churn * 1000) + 17)
    reqs = _requests(rng, pairs, churn)

    async def drive(queue):
        # Queries and mutations pipeline freely, but each flush is
        # awaited before staging continues -- epoch composition must be
        # workload-determined, or the gated simulated series would
        # depend on commit timing.
        tasks, responses = [], []
        for r in reqs:
            if r["op"] == "flush":
                responses.append(await queue.submit(r))
            else:
                tasks.append(asyncio.ensure_future(queue.submit(r)))
                # One loop turn so the task stages/dispatches before the
                # next request -- otherwise a later flush could commit
                # before this mutation ever reached the pending epoch.
                await asyncio.sleep(0)
        responses.extend(await asyncio.gather(*tasks))
        return responses

    async def main():
        # Huge delay/batch: epochs commit only on the explicit flushes,
        # keeping epoch composition (and simulated seconds) deterministic.
        queue = RequestQueue(session, max_depth=len(reqs) + 1,
                             epoch_max_batch=10 * N_REQUESTS,
                             epoch_max_delay_s=600.0)
        try:
            wall0 = time.perf_counter()
            responses = await drive(queue)
            wall = time.perf_counter() - wall0
            return responses, wall, queue.summary()
        finally:
            queue.close()

    responses, wall, summary = asyncio.run(main())
    bad = [r for r in responses if not r["ok"]]
    assert not bad, f"serving errors at churn={churn}: {bad[:3]}"

    view = session.view
    half = view.edges.u < view.edges.v
    expect = msf_weight(Edges(view.edges.u[half], view.edges.v[half],
                              view.edges.w[half]), N_VERTICES)
    assert view.total_weight == expect, (
        f"churn={churn} faults={faults}: served weight "
        f"{view.total_weight} != sequential {expect}")

    label = f"churn={churn:.2f}" + ("+faults" if faults else "")
    row = {
        "label": label,
        "churn": churn,
        "faulted": bool(faults),
        "requests": len(reqs),
        "qps": len(reqs) / wall if wall > 0 else 0.0,
        "p50_latency_ms": summary["p50_latency_ms"],
        "p99_latency_ms": summary["p99_latency_ms"],
        "epochs": dict(session.epoch_counts),
        "simulated_seconds": session.total_simulated_seconds,
    }
    session.close()
    return row


def _sweep():
    rng = np.random.default_rng(42)
    pairs = _initial_graph(rng)
    rows = [_run_leg(pairs, churn) for churn in CHURN_RATES]
    rows.append(_run_leg(pairs, CHURN_RATES[-1], faults=FAULTS))
    return rows


def test_serving_churn_sweep(benchmark):
    with bench_recorder("serving") as rec:
        rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
        for row in rows:
            # The initial full build is shared setup; the gated series is
            # the *epoch* recompute work, which the workload determines.
            rec.add(row["label"], row["simulated_seconds"],
                    epochs=row["epochs"])
        rec.write(serving=rows)

    lines = [f"MST-as-a-service under churn: {N_VERTICES} vertices, "
             f"{N_EDGES} edges, {PROCS} procs, {N_REQUESTS} requests/leg",
             f"{'leg':>16s} {'qps':>8s} {'p50ms':>8s} {'p99ms':>8s} "
             f"{'epochs':>30s}"]
    for r in rows:
        epochs = " ".join(f"{k}:{v}" for k, v in sorted(r["epochs"].items()))
        lines.append(f"{r['label']:>16s} {r['qps']:8.0f} "
                     f"{r['p50_latency_ms']:8.2f} "
                     f"{r['p99_latency_ms']:8.2f} {epochs:>30s}")
    report("serving", "\n".join(lines))

    churned = [r for r in rows if r["churn"] > 0]
    assert all(sum(r["epochs"].values()) > 0 for r in churned), \
        "churn legs committed no epochs -- workload generator broken"
    assert all(set(r["epochs"]) <= {"noop", "sparsified", "replay"}
               for r in churned), \
        "an epoch fell through to a from-scratch recompute"
    zero = rows[0]
    assert zero["churn"] == 0.0 and not zero["epochs"], \
        "zero-churn leg unexpectedly committed mutation epochs"


if __name__ == "__main__":
    rows = _sweep()
    print(json.dumps(rows, indent=2))
