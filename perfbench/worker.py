"""One workload, measured in this process; started by ``run.py``.

The process is the unit of isolation: ``run.py`` starts a fresh interpreter
per workload with every ``REPRO_*`` variable removed, and this module does
set-up (imports, graph generation from ``--seed``, the sequential-Kruskal
reference, one untimed warm-up op), the timed ops, the answer checks, and
prints one JSON object as its last line of standard output.

Two clocks: *host* seconds are ``time.perf_counter`` (what the simulator
costs to run); *simulated* seconds are the makespan of the modelled machine
and repeat bit-for-bit for a fixed seed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here: imports are part of it

import argparse
import asyncio
import json
import os
import resource
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
if os.path.abspath(sys.path[0]) == HERE:
    # Started as a script: import through the package, so that this
    # directory's trace.py does not shadow the standard library's.
    sys.path[0] = os.path.dirname(HERE)

from perfbench import layers
from perfbench.trace import Tracer

#: Seed handed to every simulated machine of the batch workloads: the
#: machine's own random streams (pivot sampling) are not part of the input.
MACHINE_SEED = 3
#: Mutations per serving epoch.
EPOCH_MUTATIONS = 8

WORKLOADS = {
    "gnm_p64": {
        "kind": "batch", "family": "GNM", "n": 1 << 14, "m": 1 << 18,
        "procs": 64, "threads": 1,
        "quick": {"n": 1 << 10, "m": 1 << 14, "procs": 8},
    },
    "rgg_local_t8": {
        "kind": "batch", "family": "2D-RGG", "n": 1 << 14, "m": 1 << 18,
        "procs": 8, "threads": 8,
        "quick": {"n": 1 << 10, "m": 1 << 14, "procs": 2, "threads": 4},
    },
    "gnm_manype_p256": {
        "kind": "batch", "family": "GNM", "n": 1 << 14, "m": 1 << 18,
        "procs": 256, "threads": 1,
        "quick": {"n": 1 << 10, "m": 1 << 14, "procs": 32},
    },
    "serve_churn": {
        "kind": "serve", "family": "GNM", "n": 1 << 12, "m": 1 << 15,
        "procs": 8,
        # sim_seconds is read after this many epochs, so that it does not
        # depend on how many more the host fits into the run.
        "min_epochs": 24,
        # Whole cycles of three epochs, so both windows hold the same mix.
        "untraced_epochs": 9, "traced_epochs": 15,
        "quick": {"n": 1 << 10, "m": 1 << 13, "min_epochs": 6,
                  "untraced_epochs": 3, "traced_epochs": 3},
    },
}


def percentile(values, q):
    """Linear-interpolated percentile of a non-empty sample."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def run_back_to_back(op, seconds, min_ops):
    """Call ``op`` until ``seconds`` have passed, at least ``min_ops`` times.

    The loop stops before an op that would end further past the deadline
    than it started before it.  Returns durations, results and wall time.
    """
    durations, results = [], []
    start = time.perf_counter()
    while (len(durations) < min_ops
           or time.perf_counter() - start + 0.5 * durations[-1] < seconds):
        t0 = time.perf_counter()
        results.append(op())
        durations.append(time.perf_counter() - t0)
    return durations, results, time.perf_counter() - start


def run_pairs(op, seconds, tracer):
    """Alternate an untraced and a traced ``op`` until ``seconds`` have
    passed, at least two pairs, so that both kinds see the same drift.

    Each traced op is bracketed by a ``perfbench.op`` span and gets its
    index as op id.  Returns untraced durations, traced durations, results.
    """
    plain, traced, results = [], [], []
    start = time.perf_counter()
    while (len(traced) < 2 or time.perf_counter() - start
           + 0.5 * (plain[-1] + traced[-1]) < seconds):
        t0 = time.perf_counter()
        results.append(op())
        plain.append(time.perf_counter() - t0)
        install(tracer)
        tracer.op = len(traced)
        root = tracer.begin("perfbench.op")
        t0 = time.perf_counter()
        results.append(op())
        traced.append(time.perf_counter() - t0)
        tracer.end(root)
        tracer.uninstall()
    return plain, traced, results


def install(tracer):
    """Load the lazily imported algorithm registry, then rebind."""
    import repro.core

    repro.core.available_algorithms()
    tracer.install(layers.FUNCTIONS, layers.METHODS)


def check_counts_repeat(per_op, problems):
    """Count metrics must read the same on every op of one run."""
    for metric, unit in layers.PER_LAYER:
        values = {op[metric] for op in per_op if metric in op}
        if unit == "count" and len(values) > 1:
            problems.append(f"{metric} differs between ops: {sorted(values)}")


# ----------------------------------------------------------------------
# Batch workloads: one op = one weak-scaling sweep point.
# ----------------------------------------------------------------------
def run_batch(spec, args):
    import repro.analysis as analysis
    import repro.graphgen as graphgen
    import repro.seq as seq

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer)
        tracer.op = "setup"
    graph = graphgen.gen_family(spec["family"], spec["n"], spec["m"],
                                seed=args.seed)
    reference = seq.msf_weight(graph.edges, graph.n_vertices)
    configs = analysis.default_configs(256)

    def op():
        """Both of the paper's algorithms on the pre-generated graph, as
        ``repro.analysis.weak_scaling`` runs one point.  Returns
        ``(simulated seconds, answers correct)``."""
        simulated, ok = 0.0, True
        for algorithm in ("boruvka", "filter-boruvka"):
            try:
                res = analysis.run_algorithm(
                    graph, algorithm, spec["procs"],
                    threads=spec["threads"], config=configs[algorithm],
                    seed=MACHINE_SEED)
            except Exception:  # an op that raises is a failed op
                traceback.print_exc()
                ok = False
                continue
            ok = ok and res.status == "ok" and res.total_weight == reference
            simulated += res.elapsed
        return simulated, ok

    _, warm_ok = op()
    setup_s = time.perf_counter() - _T0
    if args.mode == "setup":
        return {"setup_s": setup_s, "failed": int(not warm_ok)}

    problems = []
    out = {"setup_s": setup_s}
    if tracer is None:
        durations, results, wall = run_back_to_back(
            op, args.seconds, 1 if args.quick else 3)
    else:
        tracer.uninstall()
        plain, durations, results = run_pairs(op, args.seconds, tracer)
        wall = sum(durations)
        totals = tracer.totals_by_op()
        per_op = []
        for i in range(len(durations)):
            row = layers.span_metric_values(totals[i], totals["setup"])
            row["kernels.pool_hit_ratio"] = layers.pool_hit_ratio(totals[i])
            per_op.append(row)
        check_counts_repeat(per_op, problems)
        per_layer = {m: statistics.median(row[m] for row in per_op)
                     for m in per_op[0]}
        per_layer.update({m: per_op[0][m] for m, unit in layers.PER_LAYER
                          if unit == "count" and m in per_op[0]})
        per_layer.update({m: 0 for m, _ in layers.SERVE_CLIENT_METRICS})
        per_layer["perfbench.trace_overhead_ratio"] = (
            statistics.median(durations) / statistics.median(plain))
        out["per_layer"] = per_layer
        # Share of each op's duration covered by the spans below its root.
        out["op_covered_ratio"] = [
            1.0 - totals[i]["perfbench.op"]["self_s"] / durations[i]
            for i in range(len(durations))]
        out["untraced_ops"] = len(plain)
        if args.dump:
            tracer.dump(args.dump)

    sims = {sim for sim, _ in results}
    if len(sims) > 1:
        problems.append(f"sim_seconds differs between ops: {sorted(sims)}")
    out.update({
        "attempted": len(results),
        "failed": sum(not ok for _, ok in results) + int(not warm_ok),
        "op_s": durations,
        "end_to_end": {
            "op_ms_p10": percentile(durations, 10) * 1e3,
            "ops_per_s": len(durations) / wall,
            "sim_seconds": results[0][0],
        },
        "report": {
            "host_edges_per_s": [
                2 * graph.n_directed_edges / statistics.median(durations),
                "1/s"],
            "op_ms_p50": [statistics.median(durations) * 1e3, "ms"],
        },
        "problems": problems,
    })
    return out


# ----------------------------------------------------------------------
# Serving workload: one op = one epoch of EPOCH_MUTATIONS mutations.
# ----------------------------------------------------------------------
class ChurnScript:
    """The writer's seeded choice of mutations, and its own copy of the
    edge set it has asked for (the reference the served view is checked
    against).

    Epochs cycle through two kinds so that the strategy mix does not depend
    on the seed: two epochs that delete no forest edge (the session answers
    with a sparsified recompute), then one that deletes exactly one (replay,
    or a full recompute when the replay log cannot serve it).  Every epoch
    starts with an insert, so none is a no-op; the other mutations are a
    seeded 50/50 of delete-a-live-edge / insert-a-new-pair.  Forest
    membership is read from the session's published view.
    """

    def __init__(self, seed, n_vertices, edges):
        import numpy as np

        self.rng = np.random.default_rng(seed)
        self.n = n_vertices
        half = edges.u < edges.v
        self.live = {(int(u), int(v)): int(w) for u, v, w in
                     zip(edges.u[half], edges.v[half], edges.w[half])}
        self.pairs = list(self.live)
        self.pos = {pair: i for i, pair in enumerate(self.pairs)}

    def epoch(self, view, index):
        """The requests of epoch ``index``; the copy is updated at once."""
        staged, requests = set(), []
        for k in range(EPOCH_MUTATIONS):
            if k == 0:
                kind = "insert"
            elif k == 1 and index % 3 == 2:
                kind = "delete_forest"
            else:
                kind = "insert" if self.rng.random() < 0.5 else "delete"
            rid = f"e{index}m{k}"
            if kind == "insert":
                u, v, w = self._new_pair(staged)
                requests.append({"id": rid, "op": "insert_edges",
                                 "edges": [[u, v, w]]})
            else:
                u, v = self._live_pair(view, staged, kind == "delete_forest")
                requests.append({"id": rid, "op": "delete_edges",
                                 "edges": [[u, v]]})
            staged.add((u, v))
        for req in requests:
            row = req["edges"][0]
            if req["op"] == "insert_edges":
                self._add((row[0], row[1]), row[2])
            else:
                self._remove((row[0], row[1]))
        return requests

    def _new_pair(self, staged):
        while True:
            a, b = (int(x) for x in self.rng.integers(0, self.n, 2))
            pair = (min(a, b), max(a, b))
            if a != b and pair not in self.live and pair not in staged:
                return pair[0], pair[1], int(self.rng.integers(1, 255))

    def _live_pair(self, view, staged, in_forest):
        while True:
            if in_forest:
                i = int(self.rng.integers(0, len(view.forest_u)))
                pair = (int(view.forest_u[i]), int(view.forest_v[i]))
            else:
                pair = self.pairs[int(self.rng.integers(0, len(self.pairs)))]
                if view.edge_in_msf(*pair):
                    continue
            if pair not in staged:
                return pair

    def _add(self, pair, weight):
        self.live[pair] = weight
        self.pos[pair] = len(self.pairs)
        self.pairs.append(pair)

    def _remove(self, pair):
        del self.live[pair]
        i = self.pos.pop(pair)
        last = self.pairs.pop()
        if last != pair:
            self.pairs[i] = last
            self.pos[last] = i

    def reference_weight(self, seq, Edges):
        """Sequential Kruskal on the edge set this script asked for."""
        import numpy as np

        rows = np.array([(u, v, w) for (u, v), w in self.live.items()],
                        dtype=np.int64).reshape(-1, 3)
        return seq.msf_weight(Edges(rows[:, 0], rows[:, 1], rows[:, 2]),
                              self.n)


def run_serve(spec, args):
    import numpy as np

    import repro.graphgen as graphgen
    import repro.seq as seq
    import repro.serve as serve
    from repro.core import BoruvkaConfig
    from repro.dgraph.edges import Edges
    from repro.serve import protocol

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer)
        tracer.op = "setup"
    graph = graphgen.gen_family(spec["family"], spec["n"], spec["m"],
                                seed=args.seed)
    n = graph.n_vertices
    reference = seq.msf_weight(graph.edges, n)
    session = serve.GraphSession(n, graph.edges, n_procs=spec["procs"],
                                 seed=7, cfg=BoruvkaConfig(base_case_min=64))
    build_ok = session.view.total_weight == reference
    script = ChurnScript(args.seed, n, graph.edges)
    setup_s = time.perf_counter() - _T0
    if tracer is not None:
        tracer.uninstall()
    if args.mode == "setup":
        session.close()
        return {"setup_s": setup_s, "failed": int(not build_ok)}

    min_epochs = spec["min_epochs"]
    traced = range(0)
    if tracer is not None:
        # Fixed windows, whatever --seconds says: the counts of a window of
        # epochs repeat exactly only if it always holds the same epochs.
        first = spec["untraced_epochs"]
        traced = range(first, first + spec["traced_epochs"])
        min_epochs, args.seconds = traced.stop, 0.0

    epoch_s, read_s, log = [], [], {"requests": [], "responses": []}
    state = {"bad": 0, "sim_prefix": None}
    window = []  # snapshots at the start and the end of the traced window
    reader_rng = np.random.default_rng([args.seed, 1])

    def snapshot():
        return {"epochs": dict(session.epoch_counts), "reads": len(read_s),
                "pool": session.machine.pool.stats()}

    async def writer(queue, done):
        start = time.perf_counter()
        index = 0
        while (index < min_epochs or time.perf_counter() - start
               + 0.5 * epoch_s[-1] < args.seconds):
            if tracer is not None:
                if index == traced.start:
                    install(tracer)
                    window.append(snapshot())
                tracer.op = index
            requests = script.epoch(session.view, index)
            t0 = time.perf_counter()
            tasks = [asyncio.ensure_future(queue.submit(r))
                     for r in requests]
            # One loop turn: the mutations stage before the flush commits.
            await asyncio.sleep(0)
            flush = {"id": f"e{index}flush", "op": "flush"}
            responses = [await queue.submit(flush)]
            responses += await asyncio.gather(*tasks)
            epoch_s.append(time.perf_counter() - t0)
            state["bad"] += sum(not r["ok"] for r in responses)
            if index in traced:
                log["requests"] += requests + [flush]
                log["responses"] += responses
            index += 1
            if index == spec["min_epochs"]:
                state["sim_prefix"] = session.total_simulated_seconds
            if tracer is not None and index == traced.stop:
                tracer.uninstall()
                window.append(snapshot())
        done.set()
        return time.perf_counter() - start

    async def reader(queue, done):
        """One closed-loop client cycling through the four query ops."""
        ops = ("msf_weight", "stats", "components", "edge_in_msf")
        i = 0
        while not done.is_set():
            req = {"id": f"r{i}", "op": ops[i % 4]}
            if req["op"] == "edge_in_msf":
                u, v = (int(x) for x in reader_rng.integers(0, n, 2))
                req.update(u=u, v=v if v != u else (u + 1) % n)
            t0 = time.perf_counter()
            resp = await queue.submit(req)
            read_s.append(time.perf_counter() - t0)
            state["bad"] += not resp["ok"]
            i += 1

    async def main():
        # Epochs commit only on the writer's explicit flush.
        queue = serve.RequestQueue(session, max_depth=64,
                                   epoch_max_batch=1 << 30,
                                   epoch_max_delay_s=3600.0)
        done = asyncio.Event()
        try:
            wall, _ = await asyncio.gather(writer(queue, done),
                                           reader(queue, done))
            return wall, queue.summary()
        finally:
            queue.close()

    wall, summary = asyncio.run(main())
    view = session.view
    final_ok = (view.total_weight == script.reference_weight(seq, Edges)
                and view.n_undirected_edges == len(script.live))
    failed = state["bad"] + int(not final_ok) + int(not build_ok)
    attempted = len(epoch_s) * (EPOCH_MUTATIONS + 1) + len(read_s) + 2
    out = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "op_s": epoch_s,
        "end_to_end": {
            "op_ms_p10": percentile(epoch_s, 10) * 1e3,
            "ops_per_s": len(epoch_s) / wall,
            "sim_seconds": state["sim_prefix"],
        },
        "report": {
            "serve_mutations_per_s": [
                EPOCH_MUTATIONS * len(epoch_s) / wall, "1/s"],
            "serve_epoch_ms_p50": [statistics.median(epoch_s) * 1e3, "ms"],
            "serve_epoch_ms_p80": [percentile(epoch_s, 80) * 1e3, "ms"],
            "serve_read_ms_p99": [percentile(read_s, 99) * 1e3, "ms"],
            "serve_reads": [len(read_s), "count"],
            "serve_epochs": [dict(session.epoch_counts), "count"],
        },
        "problems": [],
    }
    if tracer is not None:
        out["per_layer"] = serve_per_layer(
            tracer, traced, window, read_s, epoch_s, summary, log, protocol)
        out["untraced_ops"] = traced.start
        if args.dump:
            tracer.dump(args.dump)
    session.close()
    return out


def serve_per_layer(tracer, traced, window, read_s, epoch_s, summary, log,
                    protocol):
    """Per-layer metrics over the traced window of epochs: span seconds
    are per epoch (window sum / epochs), counts are window totals."""
    totals = tracer.totals_by_op()
    n = len(traced)
    merged = {}
    for index in traced:
        for span, fields in totals[index].items():
            row = merged.setdefault(span, {})
            for f, value in fields.items():
                row[f] = row.get(f, 0) + value
    for fields in merged.values():
        for f in ("s", "self_s"):
            fields[f] = fields.get(f, 0.0) / n
    out = layers.span_metric_values(merged, totals["setup"])

    before, after = window
    hits, misses = (after["pool"][k] - before["pool"][k]
                    for k in ("hits", "misses"))
    out["kernels.pool_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    kinds = {k: after["epochs"].get(k, 0) - before["epochs"].get(k, 0)
             for k in ("noop", "sparsified", "replay", "full")}
    for kind, count in kinds.items():
        out[f"serve.epochs_{kind}"] = count
    out["serve.incremental_epoch_ratio"] = 1.0 - kinds["full"] / n
    out["serve.queue_wait_ms_mean"] = summary["mean_queue_wait_ms"]
    reads = read_s[before["reads"]:after["reads"]]
    out["serve.read_ms_p50"] = percentile(reads, 50) * 1e3
    out["serve.read_ms_p99"] = percentile(reads, 99) * 1e3
    out["serve.reads_completed"] = len(reads)

    # The in-process queue takes parsed requests; the wire codec is timed
    # directly over the window's traffic.
    lines = [json.dumps(r) for r in log["requests"]]
    passes = 10
    t0 = time.perf_counter()
    for _ in range(passes):
        for line in lines:
            protocol.parse_request(line)
    t1 = time.perf_counter()
    for _ in range(passes):
        for resp in log["responses"]:
            protocol.encode_response(resp)
    t2 = time.perf_counter()
    out["serve.protocol_parse_us"] = (t1 - t0) / (passes * len(lines)) * 1e6
    out["serve.protocol_encode_us"] = (
        (t2 - t1) / (passes * len(log["responses"])) * 1e6)
    out["perfbench.trace_overhead_ratio"] = (
        statistics.median(epoch_s[traced.start:traced.stop])
        / statistics.median(epoch_s[:traced.start]))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--dump", help="write the traced spans here")
    args = parser.parse_args(argv)

    spec = dict(WORKLOADS[args.workload])
    if args.quick:
        spec.update(spec["quick"])
    spec.setdefault("threads", 1)
    run = run_batch if spec["kind"] == "batch" else run_serve
    out = run(spec, args)
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
