"""Smoke test of the host-time benchmark at its ``--quick`` size.

Run with ``python -m pytest perfbench/tests -q`` from the repository root
(outside tier-1's ``testpaths``; takes well under a minute).
"""

from __future__ import annotations

import importlib
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import layers, run  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

BENCH = run.load_benchmark()
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
BATCH = [w for w in WORKLOADS if w != "serve_churn"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def quick():
    """Per workload: one untraced and two traced quick runs."""
    return {w: {"plain": run.measure(w, 3, 0.0, 0, quick=True),
                "traced": [run.measure(w, 3, 0.0, 1, quick=True)
                           for _ in range(2)]}
            for w in WORKLOADS}


def test_benchmark_json_names_are_well_formed():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += WORKLOADS
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] \
        == layers.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(quick, workload):
    for kind, (line, _out) in (("end_to_end", quick[workload]["plain"]),
                               ("per_layer", quick[workload]["traced"][0])):
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        declared = {m["name"]: m["unit"] for m in BENCH[kind]}
        assert {n: m["unit"] for n, m in line["metrics"].items()} == declared
        for m in line["metrics"].values():
            assert isinstance(m["value"], (int, float))
    for m in quick[workload]["plain"][0]["metrics"].values():
        assert m["value"] > 0  # end-to-end metrics are never 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_simulated_seconds_repeat_exactly(quick, workload):
    (first, out1), (second, out2) = quick[workload]["traced"]
    for m in BENCH["per_layer"]:
        if m["unit"] == "count":
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]]
    # Tracing must not move the simulated clock either.
    sims = {out["end_to_end"]["sim_seconds"]
            for out in (out1, out2, quick[workload]["plain"][1])}
    assert len(sims) == 1


@pytest.mark.parametrize("workload", BATCH)
def test_spans_tile_each_traced_op(quick, workload):
    """The self times of the spans below an op's root add up to the op:
    the harness itself accounts for under 2 % of it."""
    for _line, out in quick[workload]["traced"]:
        assert out["op_covered_ratio"]
        assert min(out["op_covered_ratio"]) > 0.98


def _bindings():
    """Identity of everything the tracer may rebind."""
    import repro.core

    repro.core.available_algorithms()
    for target in layers.FUNCTIONS + layers.METHODS:
        importlib.import_module(target[1])
    seen = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro"
                               or modname.startswith("repro.")):
            continue
        for key, value in vars(mod).items():
            seen[modname, key] = id(value)
            if type(value) is dict and not key.startswith("__"):
                for dkey, dvalue in value.items():
                    seen[modname, key, dkey] = id(dvalue)
    for _span, modname, clsname, attr, _measure in layers.METHODS:
        cls = getattr(sys.modules[modname], clsname)
        seen[modname, clsname, attr] = id(vars(cls)[attr])
    return seen


def test_rebinding_reaches_importers_and_is_fully_undone():
    import repro.core.boruvka as boruvka
    import repro.simmpi.alltoall as alltoall
    from repro.dgraph.edges import Edges

    before = _bindings()
    original = alltoall.route_rows
    tracer = Tracer()
    tracer.install(layers.FUNCTIONS, layers.METHODS)
    try:
        assert alltoall.route_rows is not original
        # ``from ..simmpi.alltoall import route_rows`` in an importer, and
        # the dispatch dict, are rebound too.
        assert boruvka.route_rows is alltoall.route_rows
        assert alltoall.ALLTOALL_METHODS["direct"] \
            is alltoall.alltoallv_direct
        assert alltoall.alltoallv_direct.__wrapped__ is not None
        assert hasattr(vars(Edges)["take"], "__wrapped__")
        assert _bindings() != before
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert alltoall.route_rows is original


def test_refuses_to_run_without_the_repository(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ the
    command exits non-zero without a result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
