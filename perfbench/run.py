"""The host-time benchmark of the repro simulator (see perfbench/README.md).

    python3 perfbench/run.py                    all workloads, end to end
    python3 perfbench/run.py --trace            all workloads, per layer
    python3 perfbench/run.py --repeat 2         run the set twice and compare
    python3 perfbench/run.py --workload gnm_p64 --seed 3 --seconds 20 --trace 0

The last form is the one ``BENCHMARK.json`` names: one workload, one JSON
object on the last line of standard output.  Every workload runs alone in a
fresh subprocess (``worker.py``), one at a time, with every ``REPRO_*``
variable removed from its environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh processes that do set-up only, besides the measured one; setup_s
#: is the median of all of them.
EXTRA_SETUPS = 2
#: No run may take longer than the driver's limit of 180 s.
WORKER_TIMEOUT_S = 170
#: Native thread pools stay at one thread: a single load-generating process.
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env():
    """The parent's environment without any REPRO_* knob (engine, kernels,
    dtypes, trace, simsan, faults, ledger, trace dir, scale, max cores,
    pool, heap trim, MP knobs), with ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["PYTHONHASHSEED"] = "0"
    env.update({name: "1" for name in ONE_THREAD})
    return env


def run_worker(workload, seed, seconds, trace, mode="run", quick=False,
               dump=None):
    """Start one worker, wait for it, and return its result object."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--mode", mode]
    if quick:
        cmd.append("--quick")
    if dump:
        cmd += ["--dump", dump]
    # subprocess.run kills the child and waits for it when the time is up.
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, quick=False, dump=None):
    """One run of one workload: ``(result line, worker output)``.

    The result line is the object the benchmark contract asks for; with
    ``trace`` it carries the per-layer metrics, without it the end-to-end
    ones (and set-up is repeated in fresh processes for its median).
    """
    bench = load_benchmark()
    setups, failed = [], 0
    if not trace:
        for _ in range(EXTRA_SETUPS):
            extra = run_worker(workload, seed, seconds, 0, mode="setup",
                               quick=quick)
            setups.append(extra["setup_s"])
            failed += extra["failed"]
    out = run_worker(workload, seed, seconds, trace, quick=quick, dump=dump)
    setups.append(out["setup_s"])
    failed += out["failed"]
    if trace:
        values = out["per_layer"]
        declared = bench["per_layer"]
    else:
        values = dict(out["end_to_end"], setup_s=statistics.median(setups),
                      peak_rss_mb=out["peak_rss_mb"])
        declared = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    line = {"correct": failed == 0 and not out["problems"],
            "attempted": out["attempted"], "failed": failed,
            "metrics": metrics}
    return line, out


def environment(seed):
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, text=True)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": commit, "seed": seed}


def print_run(workload, line, out):
    ops = out["op_s"]
    q = (statistics.quantiles(ops, n=4) if len(ops) > 1 else [ops[0]] * 3)
    print(f"\n== {workload}: {len(ops)} ops, op host s min/q1/median/q3 = "
          f"{min(ops):.4f}/{q[0]:.4f}/{q[1]:.4f}/{q[2]:.4f}; "
          f"attempted {line['attempted']}, failed {line['failed']}, "
          f"failed_ops_ratio {line['failed'] / line['attempted']:.6f}")
    for name, m in line["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    for name, (value, unit) in out.get("report", {}).items():
        if isinstance(value, dict):
            value = " ".join(f"{k}:{v}" for k, v in sorted(value.items()))
            print(f"{name:36s} {value:>16s} {unit}   (not gated)")
        else:
            print(f"{name:36s} {value:>16.6g} {unit}   (not gated)")
    for problem in out["problems"]:
        print(f"PROBLEM {problem}")


def compare(bench, first, second, trace):
    """Print both readings of every metric and whether the second is within
    the metric's bound of the first; returns True when all are."""
    declared = bench["per_layer" if trace else "end_to_end"]
    ok = True
    print(f"\n{'workload':16s} {'metric':34s} {'first':>13s} {'second':>13s} "
          f"{'worse by':>9s}  verdict")
    for workload in first:
        for m in declared:
            a = first[workload]["metrics"][m["name"]]["value"]
            b = second[workload]["metrics"][m["name"]]["value"]
            exact = m["unit"] in ("count", "sim_s")
            worse = 0.0
            if a:
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            if exact:
                verdict = "same" if a == b else "DIFFERS"
            elif "bound" in m:
                verdict = "pass" if worse <= m["bound"] else "FAIL"
            else:
                verdict = ""
            ok = ok and verdict not in ("DIFFERS", "FAIL")
            print(f"{workload:16s} {m['name']:34s} {a:13.6g} {b:13.6g} "
                  f"{worse:+9.2%}  {verdict}")
    return ok


def main(argv=None):
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("perfbench: src/repro not found beside perfbench/; "
                 "run from a checkout of the repository")
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run this workload only and end with the "
                             "result line (default: all, as a report)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds "
                             "of BENCHMARK.json; 0 with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run with per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set this many times and compare "
                             "each later set with the first")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and a fixed number of ops "
                             "(smoke test)")
    parser.add_argument("--out", help="also write every result as JSON here")
    parser.add_argument("--trace-dump",
                        help="with --trace and --workload: write the spans "
                             "of the run to this file")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.quick else float(bench["run_seconds"])

    if args.workload:
        line, out = measure(args.workload, args.seed, seconds, args.trace,
                            args.quick, args.trace_dump)
        for problem in out["problems"]:
            print(f"PROBLEM {problem}", file=sys.stderr)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump({"environment": environment(args.seed),
                           "result": line, "worker": out}, fh, indent=1)
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    env = environment(args.seed)
    print("perfbench " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" seconds={seconds:g} trace={args.trace}")
    sets, ok = [], True
    for _ in range(args.repeat):
        lines = {}
        for workload in names:
            line, out = measure(workload, args.seed, seconds, args.trace,
                                args.quick)
            print_run(workload, line, out)
            ok = ok and line["correct"]
            lines[workload] = line
        sets.append(lines)
    for later in sets[1:]:
        ok = compare(bench, sets[0], later, args.trace) and ok
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": env, "sets": sets}, fh, indent=1)
    print("\nperfbench: " + ("all checks passed" if ok else "CHECKS FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
