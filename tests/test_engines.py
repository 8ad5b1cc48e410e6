"""Engine selection and conformance (docs/kernels.md, "two paths, one
selector").

* selection: ``Machine(engine=...)`` beats ``REPRO_ENGINE`` beats the
  ``batched`` default; unknown and retired names (``multiprocess``, a set
  ``REPRO_KERNELS``) are rejected at ``Machine`` construction;
* conformance matrix: both engines run the full algorithms over several
  graph families and must produce bit-identical simulated seconds, phase
  breakdowns, communication traces and MSF weights -- including ``p=1``
  and graphs so small that PEs sit empty (``helpers.assert_engines_agree``;
  ``tests/test_kernels.py`` runs the same harness over threads and
  all-to-all schemes);
* determinism: same-seed deterministic exports are byte-identical;
* subsystems: a fault schedule behaves the same on both engines (the
  sanitizer detections per engine live in ``tests/test_kernels.py``).
"""

import json

import numpy as np
import pytest

from repro.competitors import awerbuch_shiloach_msf
from repro.core import (
    BoruvkaConfig,
    FilterConfig,
    distributed_boruvka,
    distributed_filter_boruvka,
)
from repro.graphgen import gen_family
from repro.kernels import ENGINE_NAMES, batched_for, resolve_engine
from repro.obs.export import chrome_trace, metrics_to_dict
from repro.simmpi import Machine

from helpers import assert_engines_agree, random_simple_graph


# ----------------------------------------------------------------------
# Selection.
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_engine_names_constant(self):
        assert set(ENGINE_NAMES) == {"inprocess", "batched"}

    def test_default_is_batched(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine() == "batched"
        assert Machine(2).engine == "batched"

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_env_selects_engine(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_ENGINE", name)
        assert Machine(2).engine == name

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "inprocess")
        assert Machine(2, engine="batched").engine == "batched"

    def test_unknown_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "gpu")
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            Machine(2)

    def test_unknown_argument_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            Machine(2, engine="vectorised")
        with pytest.raises(ValueError):
            resolve_engine("gpu")

    def test_retired_names_rejected(self, monkeypatch):
        """The removed engine and the retired knob fail loudly."""
        with pytest.raises(ValueError, match="inprocess.*batched"):
            Machine(2, engine="multiprocess")
        monkeypatch.setenv("REPRO_ENGINE", "multiprocess")
        with pytest.raises(ValueError, match="inprocess.*batched"):
            Machine(2)
        monkeypatch.delenv("REPRO_ENGINE")
        # A stale REPRO_KERNELS=loop must not silently run the batched path.
        monkeypatch.setenv("REPRO_KERNELS", "loop")
        with pytest.raises(ValueError, match="REPRO_ENGINE=inprocess"):
            Machine(2)
        with pytest.raises(ValueError, match="REPRO_KERNELS is retired"):
            Machine(2, engine="inprocess")

    def test_engine_drives_kernel_dispatch(self):
        assert not batched_for(Machine(2, engine="inprocess"))
        assert batched_for(Machine(2, engine="batched"))
        # Objects without an engine fall back to the env default.
        assert batched_for(object()) == (resolve_engine() == "batched")

    def test_machine_is_context_manager(self):
        with Machine(2, engine="batched") as machine:
            assert machine.engine == "batched"
            machine.pool.give(machine.pool.take(64, np.int64))
            assert machine.pool.held_bytes > 0
        assert machine.pool.held_bytes == 0


# ----------------------------------------------------------------------
# Conformance matrix: bit-identical simulated behaviour.
# ----------------------------------------------------------------------
ALGOS = [
    ("boruvka", distributed_boruvka, BoruvkaConfig(base_case_min=16)),
    ("filter_boruvka", distributed_filter_boruvka,
     FilterConfig(boruvka=BoruvkaConfig(base_case_min=16))),
    ("awerbuch_shiloach", awerbuch_shiloach_msf, None),
]


class TestEngineConformance:
    @pytest.mark.parametrize("algo_name,algo,cfg", ALGOS,
                             ids=[a[0] for a in ALGOS])
    @pytest.mark.parametrize("family", ["GNM", "2D-GRID", "RHG"])
    def test_families_bit_identical(self, family, algo_name, algo, cfg):
        g = gen_family(family, 250, 1000, seed=11)
        assert_engines_agree(g, 6, algo, cfg)

    @pytest.mark.parametrize("algo_name,algo,cfg", ALGOS,
                             ids=[a[0] for a in ALGOS])
    def test_single_pe(self, algo_name, algo, cfg):
        g = gen_family("GNM", 120, 500, seed=5)
        assert_engines_agree(g, 1, algo, cfg)

    @pytest.mark.parametrize("algo_name,algo,cfg", ALGOS,
                             ids=[a[0] for a in ALGOS])
    def test_empty_pes(self, algo_name, algo, cfg):
        # Far fewer edges than PEs: several PEs hold no edges at all.
        g = gen_family("GNM", 12, 18, seed=3)
        assert_engines_agree(g, 8, algo, cfg)

    def test_raw_edges_input(self):
        edges = random_simple_graph(np.random.default_rng(9), 60, 240)
        assert_engines_agree(edges, 5, distributed_boruvka,
                             BoruvkaConfig(base_case_min=16))


class TestDeterminism:
    @staticmethod
    def _one_export(engine):
        with Machine(6, seed=123, trace=True, trace_events=True,
                     engine=engine) as machine:
            dg = gen_family("GNM", 300, 1200, seed=7).distribute(machine)
            distributed_boruvka(dg, BoruvkaConfig(base_case_min=16))
            trace = json.dumps(
                chrome_trace(machine.events, deterministic=True),
                sort_keys=True)
            metrics = json.dumps(
                metrics_to_dict(machine.metrics, deterministic=True),
                sort_keys=True)
        return trace, metrics

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_exports_byte_identical(self, engine):
        first = self._one_export(engine)
        second = self._one_export(engine)
        assert first[0] == second[0], "chrome traces differ between runs"
        assert first[1] == second[1], "metrics dumps differ between runs"

    def test_deterministic_mode_omits_wall_clock(self):
        with Machine(3, trace_events=True, engine="batched") as machine:
            dg = gen_family("GNM", 60, 200, seed=1).distribute(machine)
            distributed_boruvka(dg, BoruvkaConfig(base_case_min=16))
            det = chrome_trace(machine.events, deterministic=True)
            full = chrome_trace(machine.events)
            det_m = metrics_to_dict(machine.metrics, deterministic=True)
            full_m = metrics_to_dict(machine.metrics)
        assert not any("wall_s" in ev.get("args", {})
                       for ev in det["traceEvents"])
        assert any("wall_s" in ev.get("args", {})
                   for ev in full["traceEvents"])
        assert not any(k.endswith("/host_seconds") for k in det_m["counters"])
        # The non-deterministic dump keeps them (kernel sink is attached).
        assert set(det_m["counters"]) <= set(full_m["counters"])


class TestEngineUnderSubsystems:
    def test_faults_identical_across_engines(self):
        spec = "seed=5,msg_drop=0.02"
        outs = {}
        for name in ENGINE_NAMES:
            with Machine(5, faults=spec, engine=name) as machine:
                dg = gen_family("GNM", 150, 600, seed=4).distribute(machine)
                res = distributed_boruvka(dg,
                                          BoruvkaConfig(base_case_min=16))
                outs[name] = (res.total_weight, machine.clock.copy(),
                              machine.faults.summary())
        assert outs["batched"][0] == outs["inprocess"][0]
        assert np.array_equal(outs["batched"][1], outs["inprocess"][1])
        assert outs["batched"][2] == outs["inprocess"][2]
