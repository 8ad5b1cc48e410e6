"""Tests for the command-line interface (repro.cli)."""

import numpy as np
import pytest

from repro.cli import main
from repro.graphgen import load_npz
from repro.simmpi.machine import RETIRED_ENV

from helpers import run_python


@pytest.fixture
def instance(tmp_path):
    path = tmp_path / "g.npz"
    assert main(["gen", "--family", "GNM", "-n", "256", "-m", "1024",
                 "-o", str(path)]) == 0
    return path


class TestGen:
    def test_family(self, tmp_path):
        out = tmp_path / "grid.npz"
        assert main(["gen", "--family", "2D-GRID", "-n", "256",
                     "-o", str(out)]) == 0
        g = load_npz(out)
        assert g.name == "2D-GRID"

    def test_instance(self, tmp_path):
        out = tmp_path / "road.npz"
        assert main(["gen", "--instance", "US-road", "-n", "1024",
                     "-o", str(out)]) == 0
        g = load_npz(out)
        assert g.name == "US-road"

    def test_family_and_instance_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen", "--family", "GNM", "--instance", "US-road",
                  "-o", str(tmp_path / "x.npz")])


class TestMst:
    def test_runs_and_verifies(self, instance, capsys):
        assert main(["mst", str(instance), "--procs", "4",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "MSF weight" in out
        assert "verification    : OK" in out

    @pytest.mark.parametrize("alg", ["filter-boruvka", "mnd-mst",
                                     "awerbuch-shiloach"])
    def test_algorithms(self, instance, alg, capsys):
        assert main(["mst", str(instance), "--algorithm", alg,
                     "--procs", "4", "--verify"]) == 0

    def test_saves_msf(self, instance, tmp_path, capsys):
        out = tmp_path / "msf.npz"
        assert main(["mst", str(instance), "--procs", "4",
                     "--output", str(out)]) == 0
        msf = load_npz(out)
        assert msf.name.endswith("-msf")
        assert len(msf.edges) == 255  # spanning tree of 256 connected verts

    def test_alltoall_choice(self, instance, capsys):
        assert main(["mst", str(instance), "--procs", "8",
                     "--alltoall", "grid3", "--verify"]) == 0

    def test_no_preprocessing(self, instance, capsys):
        assert main(["mst", str(instance), "--procs", "4",
                     "--no-preprocessing", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "local_preprocessing" not in out


class TestOthers:
    def test_cc(self, instance, capsys):
        assert main(["cc", str(instance), "--procs", "4"]) == 0
        assert "connected components" in capsys.readouterr().out

    def test_info(self, instance, capsys):
        assert main(["info", str(instance)]) == 0
        out = capsys.readouterr().out
        assert "vertices    : 256" in out

    def test_sweep_weak(self, capsys):
        assert main(["sweep", "--family", "GNM", "--cores", "2,4",
                     "--per-core-vertices", "64",
                     "--per-core-edges", "256"]) == 0
        out = capsys.readouterr().out
        assert "cores" in out and "boruvka" in out

    def test_sweep_strong(self, capsys):
        assert main(["sweep", "--family", "GNM", "--cores", "2,4",
                     "--strong", "--per-core-vertices", "64",
                     "--per-core-edges", "256"]) == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("command", ["mst", "profile", "serve"])
    def test_retired_engine_name_exits_2(self, instance, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(instance), "--engine", "multiprocess"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --engine" in err


class TestBoundaryErrors:
    """Bad input at the command line is one ``repro <cmd>: ...`` line on
    stderr and an exit code, never a traceback."""

    @staticmethod
    def _one_line(err, command):
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith(f"repro {command}: ")
        return lines[0]

    def test_retired_knob_exits_2(self, instance, tmp_path):
        proc = run_python(["-m", "repro", "mst", str(instance)],
                          cwd=tmp_path, REPRO_POOL_MAX_MB="4")
        assert proc.returncode == 2
        line = self._one_line(proc.stderr, "mst")
        assert "REPRO_POOL_MAX_MB is retired" in line
        assert proc.stdout == ""

    def test_missing_graph_exits_1(self, tmp_path):
        proc = run_python(["-m", "repro", "mst", "missing.npz"],
                          cwd=tmp_path)
        assert proc.returncode == 1
        line = self._one_line(proc.stderr, "mst")
        assert "missing.npz" in line and "No such file" in line

    @pytest.mark.parametrize("name", RETIRED_ENV)
    @pytest.mark.parametrize("command", ["mst", "cc", "info", "serve"])
    def test_every_retired_knob_in_process(self, instance, monkeypatch,
                                           capsys, name, command):
        monkeypatch.setenv(name, "1")
        assert main([command, str(instance)]) == 2
        self._one_line(capsys.readouterr().err, command)

    @pytest.mark.parametrize("command", ["mst", "cc", "info", "profile",
                                         "faults", "serve"])
    @pytest.mark.parametrize("content", [None, b"not a graph", "other"])
    def test_unreadable_graph_in_process(self, tmp_path, capsys, command,
                                         content):
        path = tmp_path / "g.npz"
        if content == "other":  # an npz archive, but not a saved instance
            np.savez(path, a=np.arange(3))
        elif content is not None:
            path.write_bytes(content)
        assert main([command, str(path)]) == 1
        line = self._one_line(capsys.readouterr().err, command)
        assert f"cannot read graph {path}" in line


class TestFaults:
    def test_recovers_and_reports(self, capsys):
        assert main(["faults", "--procs", "4", "-n", "512", "-m", "2048",
                     "--schedule",
                     "seed=3, pe_fail@0:1, msg_drop=0.02, corrupt=0.05",
                     "--base-case-min", "16"]) == 0
        out = capsys.readouterr().out
        assert "OK, matches fault-free run" in out
        assert "pe_fail" in out and "round_replay" in out

    def test_saved_instance_and_filter_boruvka(self, instance, capsys):
        assert main(["faults", str(instance), "--algo", "filter-boruvka",
                     "--procs", "4", "--schedule", "seed=1, corrupt=0.1",
                     "--base-case-min", "16"]) == 0
        assert "OK, matches fault-free run" in capsys.readouterr().out

    def test_rejects_malformed_schedule(self):
        with pytest.raises(ValueError, match="fault spec"):
            main(["faults", "--procs", "4", "-n", "128", "-m", "512",
                  "--schedule", "nonsense"])


class TestServe:
    """NDJSON round-trip through ``repro serve`` on stdio."""

    def _serve(self, instance, monkeypatch, capsys, reqs, extra=()):
        import io
        import json
        lines = "".join(json.dumps(r) + "\n" for r in reqs)
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["serve", str(instance), "--procs", "2",
                     "--epoch-batch", "100000",
                     "--epoch-delay-ms", "600000.0", *extra]) == 0
        captured = capsys.readouterr()
        out = [json.loads(t) for t in captured.out.splitlines() if t]
        return out, captured.err

    def test_roundtrip(self, instance, monkeypatch, capsys):
        out, err = self._serve(instance, monkeypatch, capsys, [
            {"id": 1, "op": "stats"},
            {"id": 2, "op": "msf_weight"},
            {"id": 3, "op": "edge_in_msf", "u": 0, "v": 1},
            {"id": 4, "op": "shutdown"},
        ])
        by_id = {r["id"]: r for r in out}
        assert by_id[1]["result"]["n_vertices"] == 256
        assert by_id[2]["ok"] and by_id[2]["result"]["weight"] > 0
        assert by_id[3]["ok"] and by_id[4]["ok"]
        assert "serving" in err and "served 4 requests" in err
        # stats must agree with the mst command's idea of the graph
        assert by_id[1]["result"]["n_edges"] == 1024

    def test_mutation_and_ledger(self, instance, tmp_path, monkeypatch,
                                 capsys):
        import json
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        g = load_npz(instance)
        half = g.edges.u < g.edges.v
        u = int(g.edges.u[half][0])
        v = int(g.edges.v[half][0])
        out, err = self._serve(instance, monkeypatch, capsys, [
            {"id": 1, "op": "delete_edges", "edges": [[u, v]]},
            {"id": 2, "op": "flush"},
            {"id": 3, "op": "shutdown"},
        ])
        by_id = {r["id"]: r for r in out}
        assert by_id[1]["ok"] and by_id[1]["result"]["applied"]
        assert by_id[2]["result"]["committed"] is True
        rows = [json.loads(t) for t in
                ledger.read_text().splitlines() if t]
        serve_rows = [r for r in rows if r["kind"] == "serve"]
        assert len(serve_rows) == 1
        assert serve_rows[0]["serving"]["requests"] == 3

    def test_retired_log_rounds_flag_exits_2(self, instance, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", str(instance), "--log-rounds", "8"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --log-rounds" in err

    def test_bad_request_line(self, instance, monkeypatch, capsys):
        out, _ = self._serve(instance, monkeypatch, capsys, [
            {"id": 1, "op": "frobnicate"},
            {"id": 2, "op": "shutdown"},
        ])
        by_id = {r["id"]: r for r in out}
        assert not by_id[1]["ok"]
        assert by_id[1]["error"]["code"] == "bad_request"
