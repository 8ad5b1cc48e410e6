"""Tests for the reporting/regression layer (repro.analysis.report).

Exercises the BENCH perf gate (wall ratio + bit-for-bit simulated
series), directory matching across benchmark families, ledger diffing,
the ASCII/HTML renderers on a real traced run, and the ``repro report``
CLI including the ``--check`` exit code contract shared with
``benchmarks/check_perf.py``.
"""

import json

import pytest

from repro.analysis.report import (
    classify_artifact,
    compare_bench,
    ledger_diff,
    perf_check,
    perf_failures,
    regression_html,
    regression_text,
    report_for_directory,
    report_for_target,
    simulated_diffs,
)
from repro.cli import main as cli_main
from repro.core import BoruvkaConfig, minimum_spanning_forest
from repro.graphgen import gen_family
from repro.obs import append_record, make_record, write_chrome_trace
from repro.simmpi import Machine


def _bench(name="fam", wall=1.0, sims=((0.5, "a"), (0.25, "b"))):
    """A minimal BENCH-shaped record."""
    return {"schema_version": "1.0", "name": name, "wall_seconds": wall,
            "simulated": [{"label": lbl, "simulated_seconds": s}
                          for s, lbl in sims]}


class TestPerfGate:
    def test_identical_records_pass(self):
        row = compare_bench(_bench(), _bench())
        assert row["failures"] == []
        assert row["ratio"] == 1.0
        assert row["simulated_ok"]

    def test_wall_regression_fails(self):
        row = compare_bench(_bench(wall=5.0), _bench(wall=1.0),
                            max_ratio=2.0)
        assert any("wall-clock regression" in f for f in row["failures"])

    def test_wall_within_ratio_passes(self):
        row = compare_bench(_bench(wall=1.9), _bench(wall=1.0),
                            max_ratio=2.0)
        assert row["failures"] == []

    def test_simulated_drift_fails(self):
        fresh = _bench(sims=((0.5 + 1e-15, "a"),))
        row = compare_bench(fresh, _bench(sims=((0.5, "a"),)))
        assert not row["simulated_ok"]
        assert any("drifted" in f for f in row["failures"])

    def test_simulated_label_mismatch_fails(self):
        diffs = simulated_diffs(_bench(sims=((0.5, "a"),)),
                                _bench(sims=((0.5, "zzz"),)))
        assert diffs and "series mismatch" in diffs[0]

    def test_directory_matching_covers_every_family(self, tmp_path):
        fresh, base = tmp_path / "fresh", tmp_path / "base"
        fresh.mkdir(), base.mkdir()
        for d in (fresh, base):
            (d / "BENCH_one.json").write_text(json.dumps(_bench("one")))
        (fresh / "BENCH_two.json").write_text(
            json.dumps(_bench("two", wall=9.0)))
        (base / "BENCH_two.json").write_text(json.dumps(_bench("two")))
        (base / "BENCH_gone.json").write_text(json.dumps(_bench("gone")))
        results = perf_check(fresh, base, max_ratio=2.0)
        assert [r["name"] for r in results] == ["BENCH_gone.json", "one",
                                                "two"]
        failures = perf_failures(results)
        assert any("missing fresh run" in f for f in failures)
        assert any("wall-clock regression" in f for f in failures)

    def test_single_file_mode(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(_bench()))
        b.write_text(json.dumps(_bench()))
        results = perf_check(a, b)
        assert len(results) == 1 and results[0]["failures"] == []

    def test_committed_baselines_pass_their_own_gate(self):
        # The gate verdict on the checked-in records must be reproducible:
        # every committed family compared against itself passes at 2x.
        results = perf_check("benchmarks/results", "benchmarks/results",
                             max_ratio=2.0)
        assert len(results) >= 16
        assert perf_failures(results) == []


class TestLedgerDiff:
    def test_latest_vs_previous(self):
        rows = [dict(_bench("run"), kind="cli"),
                dict(_bench("run", wall=10.0), kind="cli")]
        diffs = ledger_diff(rows, max_ratio=2.0)
        assert len(diffs) == 1
        assert any("wall-clock regression" in f
                   for f in diffs[0]["failures"])

    def test_first_run_has_no_baseline(self):
        diffs = ledger_diff([dict(_bench("solo"), kind="cli")])
        assert diffs[0]["wall_base"] is None
        assert diffs[0]["failures"] == []


class TestRenderers:
    def test_regression_text_and_html(self):
        rows = [compare_bench(_bench(wall=5.0), _bench(wall=1.0))]
        text = regression_text(rows)
        assert "FAIL" in text and "5" in text
        html_doc = regression_html(rows)
        assert html_doc.startswith("<!doctype html>")
        assert "FAIL" in html_doc


@pytest.fixture(scope="module")
def traced_artifacts(tmp_path_factory):
    """One traced run exported to disk: trace JSON + a two-row ledger."""
    tmp = tmp_path_factory.mktemp("report")
    g = gen_family("GNM", 1024, 4096, seed=2)
    machine = Machine(8, trace_events=True)
    res = minimum_spanning_forest(g.distribute(machine),
                                  algorithm="boruvka",
                                  config=BoruvkaConfig(base_case_min=64))
    trace = tmp / "run.trace.json"
    write_chrome_trace(machine.events, trace,
                       metadata={"n_procs": machine.n_procs})
    ledger = tmp / "ledger.jsonl"
    # The second row has the shape rows had while there were engines to
    # name (``engine``, ``dtype_policy``; earlier ``utilization``,
    # ``config.kernels``): old ledgers must keep validating and rendering.
    legacy = {"engine": "batched", "dtype_policy": "narrow",
              "utilization": {"engine": "batched", "pe_map_calls": 0},
              "config": {"kernels": "batched", "engine": "batched"}}
    for extra in (None, legacy):
        append_record(
            make_record("cli", "mst-boruvka", machine=machine,
                        simulated=[{"label": "gnm-p8",
                                    "simulated_seconds": res.elapsed}],
                        wall_seconds=0.5, extra=extra),
            ledger)
    return {"trace": trace, "ledger": ledger, "elapsed": res.elapsed}


class TestReportTargets:
    def test_classify(self, traced_artifacts, tmp_path):
        assert classify_artifact(traced_artifacts["trace"])[0] == "trace"
        assert classify_artifact(traced_artifacts["ledger"])[0] == "ledger"
        bench = tmp_path / "BENCH_x.json"
        bench.write_text(json.dumps(_bench()))
        assert classify_artifact(bench)[0] == "bench"
        junk = tmp_path / "junk.json"
        junk.write_text("{}")
        with pytest.raises(ValueError):
            classify_artifact(junk)

    def test_trace_report(self, traced_artifacts):
        text, html_doc, failures = report_for_target(
            traced_artifacts["trace"])
        assert failures == []
        assert "critical path:" in text
        assert "per-round load imbalance" in text
        assert html_doc.startswith("<!doctype html>")
        assert "heatmap" in html_doc.lower()

    def test_ledger_report(self, traced_artifacts):
        text, html_doc, failures = report_for_target(
            traced_artifacts["ledger"])
        assert failures == []
        assert "run ledger: 2 rows" in text
        assert "mst-boruvka" in text

    def test_directory_without_baseline_needs_ledger(self, tmp_path):
        with pytest.raises(ValueError, match="ledger"):
            report_for_directory(tmp_path)

    def test_bench_schema_major_mismatch_fails_check(self, tmp_path):
        bench = tmp_path / "BENCH_x.json"
        bench.write_text(json.dumps(dict(_bench(), schema_version="9.0")))
        _, _, failures = report_for_target(bench)
        assert failures and "major" in failures[0]


class TestReportCli:
    def test_trace_target(self, traced_artifacts, tmp_path, capsys):
        out = tmp_path / "r.html"
        rc = cli_main(["report", str(traced_artifacts["trace"]),
                       "--html", str(out)])
        assert rc == 0
        assert out.read_text().startswith("<!doctype html>")
        assert "critical path:" in capsys.readouterr().out

    def test_check_pass_and_fail(self, tmp_path, capsys):
        fresh, base = tmp_path / "fresh", tmp_path / "base"
        fresh.mkdir(), base.mkdir()
        (fresh / "BENCH_a.json").write_text(json.dumps(_bench("a")))
        (base / "BENCH_a.json").write_text(json.dumps(_bench("a")))
        assert cli_main(["report", str(fresh), "--baseline", str(base),
                         "--check"]) == 0
        (fresh / "BENCH_a.json").write_text(
            json.dumps(_bench("a", wall=9.0)))
        assert cli_main(["report", str(fresh), "--baseline", str(base),
                         "--check"]) == 1
        capsys.readouterr()

    def test_missing_target(self, capsys):
        assert cli_main(["report", "/nonexistent/x.json"]) == 2
        capsys.readouterr()
