"""One path, one oracle (docs/kernels.md): conformance of production to the
per-PE reference loops kept under ``tests/_loop_reference.py``.

* retired selectors: a set ``REPRO_ENGINE`` / ``REPRO_KERNELS`` /
  ``REPRO_DTYPES`` is rejected at ``Machine`` construction, and
  ``Machine`` takes no ``engine`` argument;
* conformance matrix: production and the substituted loop oracles run the
  full algorithms over several graph families and must produce
  bit-identical simulated seconds, phase breakdowns, communication traces
  and MSF weights -- including ``p=1`` and graphs so small that PEs sit
  empty -- and so must production with ``int64`` storage everywhere
  (``helpers.assert_engines_agree``; ``tests/test_kernels.py`` runs the
  same harness over threads and all-to-all schemes,
  ``tests/test_loop_oracles.py`` compares the ten sites one by one);
* determinism: same-seed deterministic exports are byte-identical between
  runs, on production and on the oracles;
* subsystems: a fault schedule behaves the same on both (the sanitizer
  detections per path live in ``tests/test_kernels.py``).
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
from repro.obs.export import chrome_trace, metrics_to_dict
from repro.simmpi import Machine

from helpers import (
    ENGINE_NAMES,
    assert_engines_agree,
    on_path,
    random_simple_graph,
)


# ----------------------------------------------------------------------
# Selection.
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_unknown_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "gpu")
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            Machine(2)

    def test_retired_names_rejected(self, monkeypatch):
        """The retired selectors fail loudly, whatever they are set to."""
        with pytest.raises(TypeError, match="engine"):
            Machine(2, engine="batched")
        # A stale REPRO_KERNELS=loop / REPRO_ENGINE=inprocess must not
        # silently run the one path that is left, nor REPRO_DTYPES=wide
        # silently store narrow.
        for name, value in (("REPRO_KERNELS", "loop"),
                            ("REPRO_ENGINE", "inprocess"),
                            ("REPRO_ENGINE", "batched"),
                            ("REPRO_DTYPES", "wide"),
                            ("REPRO_DTYPES", "narrow")):
            monkeypatch.setenv(name, value)
            with pytest.raises(ValueError,
                               match=f"{name} is retired.*under tests/"):
                Machine(2)
            monkeypatch.setenv(name, " ")  # set but empty: not a request
            Machine(2)
            monkeypatch.delenv(name)

    def test_machine_is_context_manager(self):
        with Machine(2) as machine:
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

    @pytest.mark.parametrize("p", [2, 6])
    def test_forced_samplesort(self, p):
        # ``auto`` sorts inputs this small with the hypercube sorter; force
        # the sample sort so its sites (local sort, splitter search) run.
        g = gen_family("GNM", 250, 1000, seed=11)
        assert_engines_agree(g, p, distributed_boruvka,
                             BoruvkaConfig(base_case_min=16,
                                           sorter="samplesort"))

    def test_raw_edges_input(self):
        edges = random_simple_graph(np.random.default_rng(9), 60, 240)
        assert_engines_agree(edges, 5, distributed_boruvka,
                             BoruvkaConfig(base_case_min=16))


class TestDeterminism:
    @staticmethod
    def _one_export(engine):
        with on_path(engine), Machine(6, seed=123, trace=True,
                                      trace_events=True) as machine:
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
        with Machine(3, trace_events=True) as machine:
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
            with on_path(name), Machine(5, faults=spec) as machine:
                dg = gen_family("GNM", 150, 600, seed=4).distribute(machine)
                res = distributed_boruvka(dg,
                                          BoruvkaConfig(base_case_min=16))
                outs[name] = (res.total_weight, machine.clock.copy(),
                              machine.faults.summary())
        assert outs["batched"][0] == outs["inprocess"][0]
        assert np.array_equal(outs["batched"][1], outs["inprocess"][1])
        assert outs["batched"][2] == outs["inprocess"][2]
