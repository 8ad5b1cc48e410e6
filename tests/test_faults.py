"""The fault-injection and recovery subsystem (repro.faults, docs/faults.md).

Covers the three subsystem layers and their contracts:

* schedule parsing -- grammar, defaults, validation errors, env handling;
* checksums -- single-bit-flip and transposition detection;
* injection + recovery -- the bit-identical-MST invariant for every fault
  kind (under the sanitizer), honest cost charging, deterministic replay
  via ``Machine.reset``, and the ``UnrecoverableFault`` budget paths.
"""

import numpy as np
import pytest

from repro.competitors import awerbuch_shiloach_msf, mnd_mst
from repro.core import (
    BoruvkaConfig,
    FilterConfig,
    distributed_boruvka,
    distributed_filter_boruvka,
)
from repro.dgraph import DistGraph
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    UnrecoverableFault,
    buffer_checksum,
    faults_env_spec,
    flip_bit,
)
from repro.graphgen import gen_gnm
from repro.kernels import dtypes
from repro.simmpi import Machine

from helpers import random_simple_graph


# ----------------------------------------------------------------------
# Shared fixtures: one mid-sized instance with enough distributed rounds
# for fail-stop events to have checkpoints to hit.
# ----------------------------------------------------------------------

N, M = 2000, 12000
CFG = BoruvkaConfig(base_case_min=64)


@pytest.fixture(scope="module")
def graph_edges():
    return random_simple_graph(np.random.default_rng(42), N, M)


def run_mst(edges, faults, algo=distributed_boruvka, cfg=CFG, procs=8,
            sanitize=True):
    machine = Machine(procs, sanitize=sanitize, faults=faults)
    g = DistGraph.from_global_edges(machine, edges)
    result = algo(g, cfg)
    return machine, result


# ----------------------------------------------------------------------
# Schedule parsing.
# ----------------------------------------------------------------------

class TestScheduleParsing:
    def test_defaults_inject_nothing(self):
        s = FaultSchedule()
        assert not s.injects_anything
        assert not s.protects_rounds

    def test_full_grammar_round_trip(self):
        s = FaultSchedule.parse(
            "seed=7; pe_fail=0.1, pe_fail@3:2, msg_drop=0.01,"
            "corrupt=0.05, straggle=0.02x16, slow_link=1x6, slow_link=4,"
            "timeout=2e-4, retries=3, max_replays=4")
        assert s.seed == 7
        assert s.pe_fail == 0.1
        assert s.pe_fail_at == [(3, 2)]
        assert s.msg_drop == 0.01
        assert s.corrupt == 0.05
        assert s.straggle == 0.02 and s.straggle_factor == 16.0
        assert s.slow_links == {1: 6.0, 4: 4.0}
        assert s.timeout == 2e-4
        assert s.retries == 3
        assert s.max_replays == 4
        assert s.injects_anything and s.protects_rounds

    def test_knobs_only_schedule_is_empty(self):
        s = FaultSchedule.parse("seed=99, timeout=1e-3, retries=2")
        assert not s.injects_anything

    @pytest.mark.parametrize("spec", [
        "msg_drop=oops",          # not a number
        "pe_fail=1.5",            # probability out of range
        "corrupt=-0.1",           # negative probability
        "straggle=0.1x0.5",       # slowdown factor below 1
        "pe_fail@3",              # missing :PE
        "pe_fail@a:b",            # non-integer round/PE
        "pe_fail@-1:0",           # negative round
        "retries=0",              # budget below 1
        "max_replays=0",
        "timeout=-1",
        "frobnicate=1",           # unknown key
        "justaword",              # not KEY=VALUE
    ])
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError, match="fault spec"):
            FaultSchedule.parse(spec)

    def test_env_disabled_values(self, monkeypatch):
        for off in ("", "0", "false", "NO", "off"):
            monkeypatch.setenv("REPRO_FAULTS", off)
            assert faults_env_spec() is None
            assert FaultSchedule.from_env() is None
        monkeypatch.delenv("REPRO_FAULTS")
        assert faults_env_spec() is None

    def test_env_spec_attaches_to_machine(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=5, msg_drop=0.1")
        m = Machine(4)
        assert m.faults is not None
        assert m.faults.schedule.msg_drop == 0.1
        # Explicit faults=False overrides the environment.
        assert Machine(4, faults=False).faults is None

    def test_machine_rejects_bad_faults_argument(self):
        with pytest.raises(TypeError):
            Machine(4, faults=3.14)
        with pytest.raises(ValueError, match="fault spec"):
            Machine(4, faults="nonsense spec")

    def test_slow_link_pe_out_of_range(self):
        with pytest.raises(ValueError, match="slow_link PE 9"):
            Machine(4, faults="slow_link=9x2")


# ----------------------------------------------------------------------
# Checksums.
# ----------------------------------------------------------------------

class TestChecksum:
    def test_detects_every_single_bit_flip(self, rng):
        buf = rng.integers(0, 2 ** 60, 16, dtype=np.int64)
        clean = buffer_checksum(buf)
        for pos in (0, 7, 15):
            for bit in (0, 31, 63):
                assert buffer_checksum(flip_bit(buf, pos, bit)) != clean

    def test_detects_transposition(self, rng):
        buf = rng.integers(0, 2 ** 60, 8, dtype=np.int64)
        swapped = buf.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        assert buffer_checksum(swapped) != buffer_checksum(buf)

    def test_empty_and_odd_width_buffers(self):
        assert buffer_checksum(np.empty(0, dtype=np.int64)) == 0
        narrow = np.array([1, 2, 3], dtype=np.int32)
        assert buffer_checksum(narrow) == buffer_checksum(
            narrow.astype(np.int64))

    def test_flip_bit_leaves_original_untouched(self):
        buf = np.zeros(4, dtype=np.int64)
        out = flip_bit(buf, 2, 5)
        assert buf[2] == 0
        assert out[2] == 1 << 5


# ----------------------------------------------------------------------
# Recovery invariants (the heart of the subsystem).
# ----------------------------------------------------------------------

COMM_FAULT_SPECS = [
    "seed=1, msg_drop=0.05",
    "seed=2, corrupt=0.10",
    "seed=3, straggle=0.05x8",
    "seed=4, slow_link=2x4, slow_link=5x2",
    "seed=5, msg_drop=0.02, corrupt=0.05, straggle=0.02",
]

FAILSTOP_SPECS = [
    "seed=6, pe_fail=0.05",
    "seed=7, pe_fail@0:3",
    "seed=8, pe_fail@1:0, pe_fail@1:5",
    "seed=9, pe_fail=0.04, msg_drop=0.02, corrupt=0.05, straggle=0.02",
]


class TestRecoveryInvariants:
    @pytest.mark.parametrize("spec", COMM_FAULT_SPECS + FAILSTOP_SPECS)
    def test_surviving_run_is_bit_identical(self, graph_edges, spec):
        _, clean = run_mst(graph_edges, faults=False)
        machine, faulty = run_mst(graph_edges, faults=spec)
        assert faulty.total_weight == clean.total_weight
        assert len(faulty.msf_edges()) == len(clean.msf_edges())
        assert machine.faults.counts, f"{spec!r} injected nothing"
        assert faulty.elapsed > clean.elapsed, (
            f"{machine.faults.summary()} recovered for free")

    def test_filter_boruvka_recovers_from_fail_stop(self, graph_edges):
        algo = distributed_filter_boruvka
        cfg = FilterConfig(boruvka=CFG)
        _, clean = run_mst(graph_edges, faults=False, algo=algo, cfg=cfg)
        machine, faulty = run_mst(
            graph_edges, faults="seed=13, pe_fail=0.05", algo=algo, cfg=cfg)
        assert faulty.total_weight == clean.total_weight
        assert machine.faults.counts.get("pe_fail", 0) > 0

    def test_one_shot_events_fire_exactly_once(self, graph_edges):
        machine, faulty = run_mst(graph_edges, faults="seed=0, pe_fail@0:2")
        s = machine.faults.summary()
        assert s["pe_fail"] == 1
        assert s["round_replay"] == 1

    def test_empty_schedule_identity_bitwise(self, graph_edges):
        _, clean = run_mst(graph_edges, faults=False)
        _, empty = run_mst(graph_edges, faults="seed=12345")
        assert empty.total_weight == clean.total_weight
        assert empty.elapsed == clean.elapsed
        assert empty.phase_times == clean.phase_times

    def test_machine_reset_rearms_injector(self, graph_edges):
        spec = "seed=6, pe_fail=0.05, msg_drop=0.02, corrupt=0.05"
        machine = Machine(8, sanitize=True, faults=spec)
        g = DistGraph.from_global_edges(machine, graph_edges)
        r1 = distributed_boruvka(g, CFG)
        c1 = machine.faults.summary()
        machine.reset()
        g = DistGraph.from_global_edges(machine, graph_edges)
        r2 = distributed_boruvka(g, CFG)
        assert r2.total_weight == r1.total_weight
        assert r2.elapsed == r1.elapsed
        assert machine.faults.summary() == c1

    def test_recovery_charges_are_visible_in_phases(self, graph_edges):
        machine, faulty = run_mst(graph_edges, faults="seed=7, pe_fail@0:3")
        assert faulty.phase_times.get("fault_checkpoint", 0.0) > 0.0
        assert faulty.phase_times.get("fault_recovery", 0.0) > 0.0
        # Comm-only schedules never checkpoint (no fail-stop possible).
        machine, faulty = run_mst(graph_edges, faults="seed=1, msg_drop=0.05")
        assert "fault_checkpoint" not in faulty.phase_times

    def test_fault_events_reach_tracer_and_metrics(self, graph_edges):
        machine = Machine(8, sanitize=True, trace_events=True,
                          faults="seed=6, pe_fail=0.05, corrupt=0.1")
        g = DistGraph.from_global_edges(machine, graph_edges)
        distributed_boruvka(g, CFG)
        from repro.obs import chrome_trace, validate_chrome_trace

        trace = chrome_trace(machine.events, {})
        assert not validate_chrome_trace(trace)
        instants = [e for e in trace["traceEvents"]
                    if e.get("ph") == "i" and e.get("cat") == "fault"]
        assert instants
        fault_counters = {name: c.value
                          for name, c in machine.metrics._counters.items()
                          if name.startswith("faults/")}
        assert any(v > 0 for v in fault_counters.values())


class TestCheckpointLogicalBytes:
    """ArrayCheckpoint charges its snapshot and re-fetch in logical bytes
    (8 per integer element), like every exchange and collective, so a
    fail-stop run's clock does not depend on the host storage width."""

    @staticmethod
    def _elapsed(algo, storage):
        graph = gen_gnm(160, 640, seed=3)
        assert graph.edges.u.dtype == storage
        with Machine(3, faults="pe_fail@0:1") as machine:
            result = algo(graph.distribute(machine))
            assert machine.faults.summary()["pe_fail"] == 1
        return result.elapsed

    @pytest.mark.parametrize("algo,want", [
        (awerbuch_shiloach_msf, 0.004230779),
        (mnd_mst, 0.001115968),
    ])
    def test_pe_fail_clock_ignores_storage_width(self, algo, want,
                                                 monkeypatch):
        narrow = self._elapsed(algo, np.uint32)
        monkeypatch.setattr(dtypes, "NARROWING", False)
        wide = self._elapsed(algo, np.int64)
        assert narrow == wide
        assert round(wide, 9) == want


# ----------------------------------------------------------------------
# Unrecoverable paths: exhausted budgets must raise, not corrupt.
# ----------------------------------------------------------------------

class TestUnrecoverable:
    def test_msg_drop_retry_budget(self, graph_edges):
        # Drop probability ~1 makes the eventual retry-budget blowout
        # deterministic within the first collectives.
        with pytest.raises(UnrecoverableFault, match="retries"):
            run_mst(graph_edges, faults="seed=0, msg_drop=0.999, retries=2")

    def test_replay_budget(self, graph_edges):
        spec = ("seed=0, pe_fail@1:0, pe_fail@1:1, pe_fail=0.97, "
                "max_replays=2")
        with pytest.raises(UnrecoverableFault, match="max_replays=2"):
            run_mst(graph_edges, faults=spec)

    def test_pe_fail_at_out_of_range(self, graph_edges):
        with pytest.raises(ValueError, match="names PE 99"):
            run_mst(graph_edges, faults="seed=0, pe_fail@0:99")


# ----------------------------------------------------------------------
# Injector unit behaviour (no full MST run needed).
# ----------------------------------------------------------------------

class TestInjectorUnits:
    def test_inactive_injector_is_identity(self):
        m = Machine(4, faults="seed=3")
        cost = np.full(4, 1e-5)
        out = m.faults.on_collective("bcast", np.arange(4), cost, 64.0)
        assert out is cost  # not even copied
        assert m.faults.poll_pe_failures(0).size == 0

    def test_slow_link_multiplies_deterministically(self):
        m = Machine(4, faults="slow_link=2x4")
        cost = np.full(4, 1e-5)
        out = m.faults.on_collective("bcast", np.arange(4), cost, 64.0)
        assert out[2] == pytest.approx(4e-5)
        assert out[[0, 1, 3]] == pytest.approx(1e-5)

    def test_adjusted_costs_stay_positive_finite(self):
        m = Machine(8, faults="seed=1, msg_drop=0.3, straggle=0.3x8, "
                              "slow_link=0x9")
        cost = np.full(8, 1e-6)
        for _ in range(50):
            try:
                out = m.faults.on_collective("x", np.arange(8), cost, 8.0)
            except UnrecoverableFault:
                continue
            out = np.asarray(out, dtype=np.float64)
            assert np.isfinite(out).all() and (out > 0).all()

    def test_same_seed_injects_identically(self):
        counts = []
        for _ in range(2):
            m = Machine(8, faults="seed=17, msg_drop=0.2, retries=50")
            cost = np.full(8, 1e-6)
            for _ in range(100):
                m.faults.on_collective("x", np.arange(8), cost, 8.0)
            counts.append(m.faults.summary())
        assert counts[0] == counts[1]

    def test_injector_requires_schedule_object(self):
        m = Machine(4)
        with pytest.raises(AttributeError):
            FaultInjector(m, "seed=1")  # spec strings must be parsed first
