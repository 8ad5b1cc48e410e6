"""Tests for the run ledger (repro.obs.ledger) and its schema policy.

Covers path resolution precedence, row construction from a real machine,
validation-before-append, the JSONL round trip, and the shared
``schema_version`` compatibility checks used by every exported artifact.
"""

import json
import warnings

import pytest

from repro.core import BoruvkaConfig, minimum_spanning_forest
from repro.graphgen import gen_family
from repro.obs import (
    SCHEMA_VERSION,
    append_record,
    check_schema_version,
    ledger_path,
    make_record,
    read_ledger,
    validate_ledger_record,
)
from repro.obs.ledger import latest_by_name, peak_rss_bytes
from repro.simmpi import Machine


@pytest.fixture
def no_ledger_env(monkeypatch):
    """Clear every knob the ledger path resolution reads."""
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)


class TestLedgerPath:
    def test_no_env_means_no_ledger(self, no_ledger_env):
        assert ledger_path() is None

    def test_explicit_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "env.jsonl"))
        assert ledger_path(tmp_path / "explicit.jsonl") == \
            tmp_path / "explicit.jsonl"

    def test_repro_ledger_beats_trace_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "led.jsonl"))
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        assert ledger_path() == tmp_path / "led.jsonl"

    def test_trace_dir_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        assert ledger_path() == tmp_path / "ledger.jsonl"

    def test_append_without_path_is_noop(self, no_ledger_env):
        assert append_record(make_record("test", "noop")) is None


def _run_machine(procs=8):
    """A small finished run whose machine feeds make_record."""
    g = gen_family("GNM", 512, 2048, seed=0)
    machine = Machine(procs)
    res = minimum_spanning_forest(g.distribute(machine),
                                  algorithm="boruvka",
                                  config=BoruvkaConfig(base_case_min=64))
    return machine, res


class TestRecords:
    def test_machine_record_round_trip(self, tmp_path):
        machine, res = _run_machine()
        record = make_record(
            "test", "unit-run",
            config={"algorithm": "boruvka"},
            machine=machine,
            simulated=[{"label": "gnm-p8",
                        "simulated_seconds": res.elapsed}],
            rounds=res.rounds, wall_seconds=0.25,
            critical_path={"length_s": res.elapsed})
        assert record["schema_version"] == SCHEMA_VERSION
        assert not {"engine", "dtype_policy", "utilization"} & set(record)
        assert record["n_procs"] == machine.n_procs
        assert 0.0 <= record["pool"]["hit_rate"] <= 1.0
        assert record["fault_schedule"] is None
        assert validate_ledger_record(record) == []

        path = tmp_path / "ledger.jsonl"
        assert append_record(record, path) == path
        assert append_record(record, path) == path
        rows = read_ledger(path)
        assert len(rows) == 2
        assert rows[0] == json.loads(json.dumps(record))

    def test_append_rejects_invalid_rows(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        bad = make_record("test", "x", wall_seconds=1.0)
        bad["kind"] = ""
        with pytest.raises(ValueError, match="refusing"):
            append_record(bad, path)
        assert not path.exists()

    def test_validator_catches_problems(self):
        assert validate_ledger_record([]) != []
        assert validate_ledger_record({"schema_version": SCHEMA_VERSION,
                                       "kind": "t", "name": ""}) != []
        rec = make_record("test", "x", wall_seconds=float("nan"))
        assert any("wall_seconds" in p for p in validate_ledger_record(rec))
        rec = make_record("test", "x",
                          simulated=[{"label": 3,
                                      "simulated_seconds": 1.0}])
        assert any("label" in p for p in validate_ledger_record(rec))

    def test_latest_by_name(self):
        rows = [{"name": "a", "v": 1}, {"name": "b", "v": 2},
                {"name": "a", "v": 3}]
        assert latest_by_name(rows) == {"a": {"name": "a", "v": 3},
                                        "b": {"name": "b", "v": 2}}

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="ledger line"):
            read_ledger(path)

    def test_peak_rss_positive(self):
        rss = peak_rss_bytes()
        assert rss is None or rss > 1024 * 1024


class TestSchemaPolicy:
    def test_current_version_clean(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_schema_version(SCHEMA_VERSION, "here") == []

    def test_missing_version_warns(self):
        with pytest.warns(UserWarning, match="no schema_version"):
            assert check_schema_version(None, "here") == []

    def test_unknown_major_rejected(self):
        problems = check_schema_version("99.0", "here")
        assert problems and "major" in problems[0]

    def test_newer_minor_warns(self):
        with pytest.warns(UserWarning, match="newer than this reader"):
            assert check_schema_version("1.99", "here") == []

    def test_malformed_rejected(self):
        assert check_schema_version("banana", "here") != []
