"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``gen``     generate an instance (weak-scaling family or Table-I stand-in)
            and save it as ``.npz``;
``mst``     compute an MSF on a simulated machine, printing weight, timings
            and the phase breakdown;
``cc``      count connected components;
``sweep``   run a weak- or strong-scaling sweep and print the series table;
``profile`` run one algorithm with event tracing on and export a
            Chrome/Perfetto trace plus a JSON metrics dump;
``faults``  run one algorithm twice -- fault-free and under an injected
            fault schedule -- verify the recovered MST weight matches
            bit-for-bit, and report the recovery overhead;
``report``  render an ASCII (and optionally self-contained HTML) report
            from a recorded artifact: a ``.trace.json`` (critical path,
            phase x PE heatmap, round imbalance), a run ledger
            (``ledger.jsonl`` -- run history + latest-vs-previous diff),
            or BENCH records vs ``--baseline`` (the perf-regression
            gate; ``--check`` exits non-zero on failures);
``info``    show instance statistics of a saved ``.npz`` graph;
``serve``   keep a session alive and answer NDJSON MSF queries/mutations
            over stdin/stdout or localhost TCP, recomputing the forest
            incrementally under edge churn (docs/serving.md).

Runs of ``mst``/``profile`` append one row to the run ledger when one is
active (``REPRO_LEDGER`` or ``REPRO_TRACE_DIR`` set; see
docs/observability.md).

Examples
--------
::

    python -m repro gen --family GNM -n 4096 -m 16384 -o gnm.npz
    python -m repro mst gnm.npz --algorithm filter-boruvka --procs 16 --threads 4
    python -m repro sweep --family 2D-RGG --cores 4,16,64 --algorithms boruvka,mnd-mst
    python -m repro profile --algo boruvka --procs 16 --trace-out b.trace.json
    python -m repro faults --algo boruvka --procs 16 \\
        --schedule "seed=7,pe_fail=0.05,msg_drop=0.01,corrupt=0.05"
    python -m repro info gnm.npz
    python -m repro report traces/profile.trace.json --html report.html
    python -m repro report benchmarks/results --baseline /tmp/base --check
    python -m repro gen --family GNM -n 512 -m 2048 -o g.npz
    echo '{"id":1,"op":"msf_weight"}' | python -m repro serve g.npz
"""

from __future__ import annotations

import argparse
import os
import sys


def _add_gen(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("gen", help="generate a graph instance")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", choices=_families(),
                       help="weak-scaling family (Section VII)")
    group.add_argument("--instance", choices=_instances(),
                       help="Table-I real-world stand-in")
    p.add_argument("-n", type=int, default=1024, help="vertices")
    p.add_argument("-m", type=int, default=4096,
                   help="undirected edges (families only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, help="output .npz path")


def _add_mst(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("mst", help="compute a minimum spanning forest")
    p.add_argument("graph", help="instance .npz (from `repro gen`)")
    p.add_argument("--algorithm", default="boruvka",
                   help="boruvka | filter-boruvka | awerbuch-shiloach | "
                        "mnd-mst")
    p.add_argument("--procs", type=int, default=8, help="MPI processes")
    p.add_argument("--threads", type=int, default=1,
                   help="OpenMP threads per process")
    p.add_argument("--alltoall", default="auto",
                   choices=["auto", "direct", "grid", "grid3", "hypercube"])
    p.add_argument("--no-preprocessing", action="store_true")
    p.add_argument("--verify", action="store_true",
                   help="check against sequential Kruskal")
    p.add_argument("--simsan", action="store_true",
                   help="run under the runtime invariant sanitizer "
                        "(see docs/sanitizer.md)")
    p.add_argument("--output", help="save the MSF edge list as .npz")


def _add_cc(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("cc", help="count connected components")
    p.add_argument("graph", help="instance .npz")
    p.add_argument("--procs", type=int, default=8)
    p.add_argument("--simsan", action="store_true",
                   help="run under the runtime invariant sanitizer")


def _add_sweep(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("sweep", help="run a scaling sweep")
    p.add_argument("--family", choices=_families(), default="GNM")
    p.add_argument("--cores", default="4,16,64",
                   help="comma-separated core counts")
    p.add_argument("--per-core-vertices", type=int, default=256)
    p.add_argument("--per-core-edges", type=int, default=1024)
    p.add_argument("--algorithms",
                   default="boruvka,filter-boruvka",
                   help="comma-separated algorithm names")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--strong", action="store_true",
                   help="strong scaling (fixed size = per-core x max cores)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--simsan", action="store_true",
                   help="run under the runtime invariant sanitizer")


def _add_profile(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "profile",
        help="run one algorithm traced; export Chrome trace + metrics")
    p.add_argument("graph", nargs="?",
                   help="instance .npz (default: a generated instance)")
    p.add_argument("--algo", "--algorithm", dest="algorithm",
                   default="boruvka",
                   help="boruvka | filter-boruvka | awerbuch-shiloach | "
                        "mnd-mst | dist-prim | dist-kruskal")
    p.add_argument("--procs", type=int, default=8)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--family", choices=_families(), default="GNM",
                   help="generated family when no graph file is given")
    p.add_argument("-n", type=int, default=4096, help="generated vertices")
    p.add_argument("-m", type=int, default=16384, help="generated edges")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alltoall", default="auto",
                   choices=["auto", "direct", "grid", "grid3", "hypercube"])
    p.add_argument("--base-case-min", type=int, default=64,
                   help="base-case vertex threshold (small keeps more "
                        "distributed rounds visible in the profile)")
    p.add_argument("--trace-out", default=None,
                   help="Chrome/Perfetto trace JSON output path (default: "
                        "profile.trace.json under $REPRO_TRACE_DIR, which "
                        "itself defaults to ./traces)")
    p.add_argument("--metrics-out", default=None,
                   help="metrics JSON output path (default: "
                        "profile.metrics.json under $REPRO_TRACE_DIR)")
    p.add_argument("--simsan", action="store_true",
                   help="run under the runtime invariant sanitizer")


def _add_faults(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "faults",
        help="inject a fault schedule, verify recovery, report overhead")
    p.add_argument("graph", nargs="?",
                   help="instance .npz (default: a generated instance)")
    p.add_argument("--algo", "--algorithm", dest="algorithm",
                   default="boruvka",
                   help="any round-looped algorithm: boruvka | "
                        "filter-boruvka | awerbuch-shiloach | mnd-mst | "
                        "dist-prim (dist-kruskal refuses fail-stop "
                        "schedules -- its merge tree cannot replay)")
    p.add_argument("--schedule", default="seed=0,pe_fail=0.05,msg_drop=0.01,"
                                         "corrupt=0.05,straggle=0.02",
                   help="fault spec string (grammar in docs/faults.md)")
    p.add_argument("--procs", type=int, default=8)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--family", choices=_families(), default="GNM",
                   help="generated family when no graph file is given")
    p.add_argument("-n", type=int, default=4096, help="generated vertices")
    p.add_argument("-m", type=int, default=16384, help="generated edges")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base-case-min", type=int, default=64,
                   help="base-case vertex threshold (small keeps more "
                        "distributed rounds exposed to fail-stop events)")
    p.add_argument("--simsan", action="store_true",
                   help="run both the baseline and the faulty run under "
                        "the runtime invariant sanitizer")


def _add_report(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "report",
        help="render reports / perf-regression diffs from run artifacts")
    p.add_argument("target",
                   help="a .trace.json, a ledger.jsonl, a BENCH_*.json, or "
                        "a directory of BENCH records")
    p.add_argument("--baseline", default=None,
                   help="baseline BENCH record or directory to gate the "
                        "target against (regression table)")
    p.add_argument("--html", default=None, metavar="OUT",
                   help="also write a self-contained HTML report here")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero when any gate fails (wall ratio > "
                        "--max-ratio, simulated drift, schema problems)")
    p.add_argument("--max-ratio", type=float, default=2.0,
                   help="wall-clock regression tolerance (default 2.0)")


def _add_info(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("info", help="show instance statistics")
    p.add_argument("graph", help="instance .npz")


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve", help="serve MSF queries/mutations over a live session")
    p.add_argument("graph", help="initial instance .npz (from `repro gen`)")
    p.add_argument("--procs", type=int, default=8, help="MPI processes")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--schedule", default=None,
                   help="fault schedule active during epoch recomputes "
                        "(docs/faults.md grammar)")
    p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                   help="listen on TCP instead of stdin/stdout "
                        "(port 0 picks an ephemeral port)")
    p.add_argument("--max-depth", type=int, default=64,
                   help="in-flight request bound (backpressure)")
    p.add_argument("--readers", type=int, default=4,
                   help="query reader threads")
    p.add_argument("--epoch-batch", type=int, default=32,
                   help="mutations per epoch before a forced commit")
    p.add_argument("--epoch-delay-ms", type=float, default=50.0,
                   help="max staging delay before an epoch commits")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="default per-request deadline")
    p.add_argument("--simsan", action="store_true",
                   help="run the session machine under the sanitizer")


def _families():
    from .graphgen import FAMILIES

    return list(FAMILIES)


def _instances():
    from .graphgen import TABLE_I

    return sorted(TABLE_I)


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to the subcommand handlers."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="kamsta-py: distributed MST algorithms on a simulated "
                    "machine (Sanders & Schimek, IPDPS 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen(sub)
    _add_mst(sub)
    _add_cc(sub)
    _add_sweep(sub)
    _add_profile(sub)
    _add_faults(sub)
    _add_report(sub)
    _add_info(sub)
    _add_serve(sub)
    args = parser.parse_args(argv)
    from .simmpi.machine import reject_retired_env

    try:
        # Checked once here, so a set retired knob is a usage error like the
        # retired --engine flag rather than a traceback from Machine().
        reject_retired_env()
    except ValueError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "simsan", False):
        # Machines default their sanitize= argument from this variable, so
        # every machine the subcommand creates runs under the checker.
        os.environ["REPRO_SIMSAN"] = "1"
    handler = {
        "gen": _cmd_gen,
        "mst": _cmd_mst,
        "cc": _cmd_cc,
        "sweep": _cmd_sweep,
        "profile": _cmd_profile,
        "faults": _cmd_faults,
        "report": _cmd_report,
        "info": _cmd_info,
        "serve": _cmd_serve,
    }[args.command]
    try:
        return handler(args)
    except _GraphFileError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1


class _GraphFileError(Exception):
    """A graph file the CLI cannot read (reported in one line, exit 1)."""


def _load_graph(path: str):
    """:func:`~repro.graphgen.load_npz`, failing with
    :class:`_GraphFileError`."""
    import zipfile

    from .graphgen import load_npz

    try:
        return load_npz(path)
    except OSError as exc:
        raise _GraphFileError(
            f"cannot read graph {path}: {exc.strerror or exc}") from None
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise _GraphFileError(
            f"cannot read graph {path}: not a saved instance ({exc})"
        ) from None


def _cmd_gen(args) -> int:
    from .graphgen import gen_family, gen_realworld, save_npz

    if args.family:
        g = gen_family(args.family, args.n, args.m, seed=args.seed)
    else:
        g = gen_realworld(args.instance, n=args.n, seed=args.seed)
    save_npz(g, args.output)
    print(f"wrote {args.output}: {g.name} n={g.n_vertices} "
          f"m={g.n_undirected_edges}")
    return 0


def _cmd_mst(args) -> int:
    import time

    from .core import BoruvkaConfig, FilterConfig, minimum_spanning_forest
    from .graphgen import save_npz
    from .simmpi import Machine

    g = _load_graph(args.graph)
    machine = Machine(args.procs, threads=args.threads)
    b = BoruvkaConfig(alltoall=args.alltoall,
                      local_preprocessing=not args.no_preprocessing)
    config = (FilterConfig(boruvka=b)
              if args.algorithm == "filter-boruvka" else b)
    wall0 = time.perf_counter()
    result = minimum_spanning_forest(g.distribute(machine),
                                     algorithm=args.algorithm,
                                     config=config)
    wall_seconds = time.perf_counter() - wall0
    print(f"instance        : {g.name} (n={g.n_vertices}, "
          f"m={g.n_undirected_edges})")
    print(f"machine         : {args.procs} procs x {args.threads} threads "
          f"= {machine.cores} cores")
    print(f"algorithm       : {result.algorithm}")
    print(f"MSF weight      : {result.total_weight}")
    print(f"MSF edges       : {len(result.msf_edges())}")
    print(f"simulated time  : {result.elapsed * 1e3:.4f} ms")
    print(f"throughput      : {g.n_directed_edges / result.elapsed:.3e} "
          f"edges/s")
    print("phase breakdown :")
    for phase, t in sorted(result.phase_times.items(), key=lambda kv: -kv[1]):
        print(f"  {phase:20s} {t * 1e3:10.4f} ms")
    if args.verify:
        from .seq import VerificationError, verify_msf

        try:
            verify_msf(result.msf_edges(), g.edges, g.n_vertices,
                       check_edges=False)
        except VerificationError as exc:
            print(f"repro mst: verification failed: {exc}", file=sys.stderr)
            return 1
        print("verification    : OK (matches sequential Kruskal)")
    if args.output:
        from .graphgen.base import GeneratedGraph

        out = GeneratedGraph(name=f"{g.name}-msf",
                             n_vertices=g.n_vertices,
                             edges=result.msf_edges(),
                             params={"algorithm": result.algorithm})
        save_npz(out, args.output)
        print(f"MSF saved       : {args.output}")
    _append_ledger("cli", f"mst-{result.algorithm}", machine=machine,
                   config={"instance": g.name, "algorithm": result.algorithm,
                           "procs": args.procs, "threads": args.threads,
                           "alltoall": args.alltoall},
                   simulated=[{"label": f"{g.name}-{result.algorithm}"
                                        f"-p{args.procs}",
                               "simulated_seconds": result.elapsed}],
                   rounds=getattr(result, "rounds", None),
                   wall_seconds=wall_seconds)
    return 0


def _append_ledger(kind, name, **kwargs) -> None:
    """Append one run-ledger row when a ledger is active (else no-op)."""
    from .obs import append_record, ledger_path, make_record

    if ledger_path() is None:
        return
    path = append_record(make_record(kind, name, **kwargs))
    print(f"ledger          : appended to {path}")


def _cmd_cc(args) -> int:
    from .core import connected_components
    from .simmpi import Machine

    g = _load_graph(args.graph)
    machine = Machine(args.procs)
    res = connected_components(g.distribute(machine))
    print(f"{g.name}: {res.n_components} connected components "
          f"({res.elapsed * 1e3:.4f} simulated ms on {args.procs} PEs)")
    return 0


def _cmd_sweep(args) -> int:
    from .analysis import series_table, speedup_summary, strong_scaling, weak_scaling
    from .graphgen import gen_family

    cores = [int(c) for c in args.cores.split(",")]
    algorithms = args.algorithms.split(",")

    if args.strong:
        g = gen_family(args.family, args.per_core_vertices * max(cores),
                       args.per_core_edges * max(cores), seed=args.seed)
        results = strong_scaling(g, algorithms, cores,
                                 threads=args.threads, seed=args.seed)
    else:
        results = weak_scaling(
            lambda n, m, seed: gen_family(args.family, n, m, seed=seed),
            algorithms, cores, args.per_core_vertices, args.per_core_edges,
            threads=args.threads, seed=args.seed,
        )
    mode = "strong" if args.strong else "weak"
    print(f"{args.family} {mode} scaling "
          f"({args.per_core_vertices}v/{args.per_core_edges}e per core)")
    print(series_table(results, value="throughput"))
    print(speedup_summary(results))
    return 0


def _cmd_profile(args) -> int:
    import time

    from .core import BoruvkaConfig, FilterConfig, minimum_spanning_forest
    from .graphgen import gen_family
    from .obs import (
        TruncatedTraceError,
        analyze,
        chrome_trace,
        kernel_pool_table,
        progress_table,
        validate_chrome_trace,
        write_chrome_trace,
        write_metrics,
    )
    from .simmpi import Machine

    if args.graph:
        g = _load_graph(args.graph)
    else:
        g = gen_family(args.family, args.n, args.m, seed=args.seed)
    machine = Machine(args.procs, threads=args.threads, trace_events=True)
    b = BoruvkaConfig(alltoall=args.alltoall,
                      base_case_min=args.base_case_min)
    config = (FilterConfig(boruvka=b)
              if args.algorithm == "filter-boruvka" else b)
    wall0 = time.perf_counter()
    result = minimum_spanning_forest(g.distribute(machine),
                                     algorithm=args.algorithm,
                                     config=config)
    wall_seconds = time.perf_counter() - wall0
    meta = {"instance": g.name, "algorithm": result.algorithm,
            "procs": args.procs, "threads": args.threads}
    # Default outputs live under REPRO_TRACE_DIR (./traces), not the CWD:
    # profile artifacts are run products, not repository content.
    trace_dir = os.environ.get("REPRO_TRACE_DIR", "traces")
    trace_out = args.trace_out or os.path.join(trace_dir,
                                               "profile.trace.json")
    metrics_out = args.metrics_out or os.path.join(trace_dir,
                                                   "profile.metrics.json")
    for path in (trace_out, metrics_out):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
    write_chrome_trace(machine.events, trace_out, metadata=meta)
    write_metrics(machine.metrics, metrics_out)
    problems = validate_chrome_trace(chrome_trace(machine.events, meta))
    print(f"instance        : {g.name} (n={g.n_vertices}, "
          f"m={g.n_undirected_edges})")
    print(f"algorithm       : {result.algorithm} on {args.procs} procs "
          f"x {args.threads} threads")
    print(f"MSF weight      : {result.total_weight}")
    print(f"simulated time  : {result.elapsed * 1e3:.4f} ms")
    print(f"events recorded : {len(machine.events)} "
          f"({machine.events.dropped} dropped)")
    print(f"trace           : {trace_out} "
          f"({'valid' if not problems else 'INVALID'})")
    print(f"metrics         : {metrics_out}")
    critpath_summary = None
    try:
        analysis = analyze(machine.events)
        critpath_summary = analysis.summary()
        print(f"critical path   : {analysis.length * 1e3:.4f} ms "
              f"(anchor PE {analysis.anchor_rank}; "
              f"compute {analysis.by_kind.get('compute', 0.0) * 1e3:.4f} ms, "
              f"collective "
              f"{analysis.by_kind.get('collective', 0.0) * 1e3:.4f} ms)")
        print(f"wave estimate   : {analysis.wave_benefit_s * 1e3:.4f} ms "
              f"overlappable slack across {len(analysis.rounds)} rounds")
    except TruncatedTraceError as exc:
        print(f"critical path   : unavailable -- {exc}", file=sys.stderr)
    print()
    print(progress_table(machine.metrics))
    print()
    print(kernel_pool_table(machine.metrics))
    _append_ledger("cli", f"profile-{result.algorithm}", machine=machine,
                   config={"instance": g.name, "algorithm": result.algorithm,
                           "procs": args.procs, "threads": args.threads,
                           "alltoall": args.alltoall},
                   simulated=[{"label": f"{g.name}-{result.algorithm}"
                                        f"-p{args.procs}",
                               "simulated_seconds": result.elapsed}],
                   rounds=getattr(result, "rounds", None),
                   wall_seconds=wall_seconds,
                   critical_path=critpath_summary)
    if problems:
        for msg in problems[:10]:
            print(f"trace problem   : {msg}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path

    from .analysis import report_for_directory, report_for_target

    target = Path(args.target)
    if not target.exists():
        print(f"repro report: {target}: no such file or directory",
              file=sys.stderr)
        return 2
    try:
        if target.is_dir():
            text, html_doc, failures = report_for_directory(
                target, args.baseline, args.max_ratio)
        else:
            text, html_doc, failures = report_for_target(
                target, args.baseline, args.max_ratio)
    except ValueError as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        return 2
    print(text)
    if args.html:
        out = Path(args.html)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(html_doc)
        print(f"\nHTML report: {out}")
    if failures:
        print()
        for msg in failures:
            print(f"CHECK FAIL: {msg}",
                  file=sys.stderr if args.check else sys.stdout)
        if args.check:
            return 1
    elif args.check:
        print("\ncheck: all gates pass")
    return 0


def _cmd_faults(args) -> int:
    from .core import BoruvkaConfig, FilterConfig, minimum_spanning_forest
    from .faults import FaultSchedule
    from .graphgen import gen_family
    from .simmpi import Machine

    schedule = FaultSchedule.parse(args.schedule)
    if args.graph:
        g = _load_graph(args.graph)
    else:
        g = gen_family(args.family, args.n, args.m, seed=args.seed)

    def run(faults):
        machine = Machine(args.procs, threads=args.threads, faults=faults)
        b = BoruvkaConfig(base_case_min=args.base_case_min)
        config = (FilterConfig(boruvka=b)
                  if args.algorithm == "filter-boruvka" else b)
        result = minimum_spanning_forest(g.distribute(machine),
                                         algorithm=args.algorithm,
                                         config=config)
        return machine, result

    _, clean = run(faults=False)
    machine, faulty = run(faults=schedule)

    print(f"instance        : {g.name} (n={g.n_vertices}, "
          f"m={g.n_undirected_edges})")
    print(f"algorithm       : {faulty.algorithm} on {args.procs} procs "
          f"x {args.threads} threads")
    print(f"schedule        : {args.schedule}")
    print(f"fault-free time : {clean.elapsed * 1e3:.4f} ms "
          f"({clean.rounds} rounds)")
    print(f"faulty time     : {faulty.elapsed * 1e3:.4f} ms "
          f"({faulty.rounds} rounds)")
    print(f"recovery cost   : {(faulty.elapsed / clean.elapsed - 1) * 100:+.2f}%")
    counts = machine.faults.summary() if machine.faults is not None else {}
    print("injected events :" + ("" if counts else " none"))
    for kind, n in counts.items():
        print(f"  {kind:20s} {n:6d}")
    ok = faulty.total_weight == clean.total_weight
    verdict = ("OK, matches fault-free run" if ok
               else f"MISMATCH vs {clean.total_weight}")
    print(f"MSF weight      : {faulty.total_weight} ({verdict})")
    return 0 if ok else 1


def _cmd_info(args) -> int:
    from .graphgen import graph_statistics

    g = _load_graph(args.graph)
    s = graph_statistics(g)
    print(f"name        : {g.name}")
    print(f"vertices    : {s.n_vertices}")
    print(f"edges       : {s.m_undirected} undirected "
          f"({g.n_directed_edges} directed)")
    print(f"avg degree  : {s.avg_degree:.2f}")
    print(f"max degree  : {s.max_degree}")
    print(f"degree gini : {s.degree_gini:.3f} (0 = regular, 1 = one hub)")
    print(f"locality    : {s.locality_fraction:.1%} local edges on "
          f"{s.locality_parts} PEs")
    print(f"weights     : [{s.weight_min}, {s.weight_max}]")
    if g.params:
        print(f"params      : {g.params}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import GraphSession, serve_stdio, serve_tcp

    g = _load_graph(args.graph)
    session = GraphSession(
        g.n_vertices, g.edges,
        n_procs=args.procs, threads=args.threads, seed=args.seed,
        faults=args.schedule,
    )
    queue_opts = dict(
        max_depth=args.max_depth,
        readers=args.readers,
        epoch_max_batch=args.epoch_batch,
        epoch_max_delay_s=args.epoch_delay_ms / 1e3,
        default_deadline_s=(args.deadline_ms / 1e3
                            if args.deadline_ms else None),
    )
    # Responses own stdout in stdio mode; humans read stderr.
    print(f"serving {g.name} (n={g.n_vertices}, "
          f"m={g.n_undirected_edges}) on {args.procs} procs, "
          f"weight={session.view.total_weight}", file=sys.stderr)
    try:
        if args.tcp:
            host, _, port = args.tcp.rpartition(":")
            summary = asyncio.run(serve_tcp(
                session, host or "127.0.0.1", int(port),
                ready=lambda hp: print(f"listening on {hp[0]}:{hp[1]}",
                                       file=sys.stderr, flush=True),
                **queue_opts))
        else:
            summary = serve_stdio(session, **queue_opts)
    finally:
        session.close()
    print(f"served {summary.get('requests', 0)} requests, "
          f"{summary.get('errors', 0)} errors; epochs="
          f"{summary.get('epochs', {})}; p99="
          f"{summary.get('p99_latency_ms', 0.0):.2f} ms", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
