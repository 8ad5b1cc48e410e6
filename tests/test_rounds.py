"""The unified round scheduler (repro.core.rounds, docs/rounds.md).

Covers the scheduler's own lifecycle contracts with a scripted dummy body
(counting, convergence conventions, divergence, fault refusal), the
canonical round-count accounting of every ported driver (the regression
pins for the Awerbuch-Shiloach termination-round bug and MND-MST's
``level - 1`` numbering), the fail-stop conformance invariant -- any
surviving ``pe_fail`` schedule recovers the bit-identical MSF weight on
every round-looped algorithm -- and the degenerate shapes: zero-round
graphs, ``max_rounds`` divergence, replay-budget exhaustion, p=1 and
empty-PE machines, on production and on the loop oracles.
"""

import numpy as np
import pytest

from repro.competitors import (
    awerbuch_shiloach_msf,
    dist_kruskal,
    dist_prim,
    mnd_mst,
)
from repro.core import (
    BoruvkaConfig,
    FilterConfig,
    MSTRun,
    RoundBody,
    RoundScheduler,
    RoundStats,
    UnsupportedFaultSchedule,
    distributed_boruvka,
    distributed_filter_boruvka,
)
from repro.faults import UnrecoverableFault
from repro.graphgen import gen_family
from repro.seq import msf_weight
from repro.simmpi import Machine

from helpers import ENGINE_NAMES, on_path

GRAPH = gen_family("GNM", 400, 1600, seed=7)
REF_WEIGHT = msf_weight(GRAPH.edges, GRAPH.n_vertices)

#: Every driver ported onto the RoundScheduler, with the config it takes.
ROUND_LOOPED = {
    "boruvka": (distributed_boruvka, BoruvkaConfig(base_case_min=32)),
    "filter-boruvka": (distributed_filter_boruvka,
                       FilterConfig(boruvka=BoruvkaConfig(base_case_min=32))),
    "awerbuch-shiloach": (awerbuch_shiloach_msf, None),
    "mnd-mst": (mnd_mst, None),
    "dist-prim": (dist_prim, None),
}


def run_algo(name, p=6, threads=1, faults=False, graph=GRAPH):
    algo, cfg = ROUND_LOOPED[name]
    machine = Machine(p, threads=threads, sanitize=True, faults=faults)
    dg = graph.distribute(machine)
    result = algo(dg, cfg) if cfg is not None else algo(dg)
    return machine, result


# ----------------------------------------------------------------------
# Scheduler lifecycle with a scripted body (no graph machinery).
# ----------------------------------------------------------------------

class ScriptedBody(RoundBody):
    """Converges after ``work_rounds`` rounds, via the chosen mechanism."""

    label = "scripted"
    divergence_error = "scripted body exceeded max_rounds"

    def __init__(self, work_rounds, mode="prologue"):
        self.work_rounds = work_rounds
        self.mode = mode
        self.seen = []

    def prologue(self, round_no):
        """Stop before the round when in prologue mode and work is done."""
        if self.mode == "prologue" and len(self.seen) >= self.work_rounds:
            return None
        return RoundStats(100 - round_no, 1000)

    def round(self, round_no):
        """Record the round id; converge in-round when in round mode."""
        self.seen.append(round_no)
        return (self.mode == "round"
                and len(self.seen) >= self.work_rounds)


class TestSchedulerLifecycle:
    def test_prologue_convergence_counts_completed_rounds_only(self):
        run = MSTRun(Machine(4, sanitize=True), BoruvkaConfig())
        body = ScriptedBody(3, mode="prologue")
        assert RoundScheduler(run, 64).run_rounds(body) == 3
        assert body.seen == [0, 1, 2]
        assert run.rounds == 3

    def test_in_round_convergence_counts_the_detecting_round(self):
        # The Awerbuch-Shiloach convention: the round that detects
        # convergence did real work and collectives, so it counts.
        run = MSTRun(Machine(4, sanitize=True), BoruvkaConfig())
        body = ScriptedBody(3, mode="round")
        assert RoundScheduler(run, 64).run_rounds(body) == 3
        assert run.rounds == 3

    def test_zero_round_body(self):
        run = MSTRun(Machine(4, sanitize=True), BoruvkaConfig())
        body = ScriptedBody(0, mode="prologue")
        assert RoundScheduler(run, 64).run_rounds(body) == 0
        assert body.seen == []
        assert run.rounds == 0

    def test_round_ids_continue_across_invocations(self):
        # Filter-Borůvka's kernel phase: per-invocation budgets, canonical
        # ids counting on across schedulers sharing one run.
        run = MSTRun(Machine(4, sanitize=True), BoruvkaConfig())
        first = ScriptedBody(2, mode="prologue")
        RoundScheduler(run, 64).run_rounds(first)
        second = ScriptedBody(2, mode="prologue")
        assert RoundScheduler(run, 64).run_rounds(second) == 2
        assert second.seen == [2, 3]
        assert run.rounds == 4

    def test_max_rounds_divergence_raises_body_message(self):
        run = MSTRun(Machine(4, sanitize=True), BoruvkaConfig())
        body = ScriptedBody(10 ** 9, mode="prologue")
        with pytest.raises(RuntimeError, match="scripted body exceeded"):
            RoundScheduler(run, 5).run_rounds(body)
        assert body.seen == [0, 1, 2, 3, 4]

    def test_fail_stop_schedule_without_checkpoint_state_refused(self):
        machine = Machine(4, sanitize=True, faults="seed=0, pe_fail@0:1")
        run = MSTRun(machine, BoruvkaConfig())
        with pytest.raises(UnsupportedFaultSchedule, match="scripted"):
            RoundScheduler(run, 64).run_rounds(ScriptedBody(3))

    def test_comm_only_schedule_runs_without_checkpoint_state(self):
        machine = Machine(4, sanitize=True, faults="seed=0, straggle=0.5")
        run = MSTRun(machine, BoruvkaConfig())
        assert RoundScheduler(run, 64).run_rounds(ScriptedBody(3)) == 3


# ----------------------------------------------------------------------
# Canonical round accounting (the satellite bug fixes, pinned).
# ----------------------------------------------------------------------

class TestRoundAccounting:
    """Regression pins on one fixed instance (GNM n=400 m=1600 seed=7).

    Awerbuch-Shiloach's pre-scheduler driver ``break``-ed out of its final
    iteration -- which runs the full resolve/scan work plus the
    candidate allreduce -- *before* counting it, reporting 4 here; MND-MST
    reported its 1-based ``level``; distributed Prim reported 0 always.
    All now follow the scheduler's canonical counting.
    """

    PINS = {
        "boruvka": 2,
        "filter-boruvka": 2,
        "awerbuch-shiloach": 5,   # was 4: detection round now counts
        "mnd-mst": 1,             # one 6-PE merge level into the leader
        "dist-prim": 400,         # was 0: n-1 growth + per-component detect
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_reported_rounds(self, name):
        _, result = run_algo(name)
        assert result.rounds == self.PINS[name], (
            f"{name} reported {result.rounds} rounds, expected "
            f"{self.PINS[name]}")
        assert result.total_weight == REF_WEIGHT

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_accounting_is_engine_invariant(self, engine):
        with on_path(engine):
            for name in ("awerbuch-shiloach", "mnd-mst"):
                _, result = run_algo(name)
                assert result.rounds == self.PINS[name]

    def test_single_pe_machine(self):
        # p=1: Borůvka contracts everything locally (0 distributed
        # rounds); AS still needs its full pointer-jumping rounds.
        _, r = run_algo("boruvka", p=1)
        assert r.rounds == 0 and r.total_weight == REF_WEIGHT
        _, r = run_algo("awerbuch-shiloach", p=1)
        assert r.rounds == 5 and r.total_weight == REF_WEIGHT

    def test_empty_pe_rounds(self):
        # More PEs than needed leaves some blocks empty every round; the
        # scheduler and the bodies must not special-case them.
        tiny = gen_family("GNM", 12, 20, seed=3)
        for name in sorted(ROUND_LOOPED):
            _, result = run_algo(name, p=8, graph=tiny)
            assert result.total_weight == msf_weight(tiny.edges,
                                                     tiny.n_vertices), name

    def test_zero_round_graphs(self):
        # Below the base-case threshold nothing enters the round loop.
        small = gen_family("GNM", 24, 48, seed=1)
        _, result = run_algo("boruvka", p=2, graph=small)
        assert result.rounds == 0
        assert result.total_weight == msf_weight(small.edges,
                                                 small.n_vertices)

    def test_divergence_guard_fires_for_real_drivers(self):
        # A 1-round scheduler budget (cfg.max_rounds stays large, so the
        # in-round pointer doubling is unaffected) must hit the guard.
        from repro.core.boruvka import BoruvkaRoundBody

        machine = Machine(6, sanitize=True)
        dg = GRAPH.distribute(machine)
        run = MSTRun(machine, BoruvkaConfig(base_case_min=32))
        with pytest.raises(RuntimeError, match="exceeded max_rounds"):
            RoundScheduler(run, 1).run_rounds(BoruvkaRoundBody(dg, run))
        machine = Machine(6, sanitize=True)
        dg = GRAPH.distribute(machine)
        with pytest.raises(RuntimeError, match="failed to converge"):
            awerbuch_shiloach_msf(dg, BoruvkaConfig(max_rounds=2))


# ----------------------------------------------------------------------
# Fail-stop conformance: no silent no-op recovery, ever.
# ----------------------------------------------------------------------

class TestFailStopConformance:
    """Satellite invariant: a fail-stop schedule either recovers to the
    bit-identical MSF weight or raises -- never a silent no-op."""

    @pytest.mark.parametrize("name", sorted(ROUND_LOOPED))
    def test_surviving_pe_fail_recovers_exact_weight(self, name):
        machine, faulty = run_algo(name, p=6, faults="seed=5, pe_fail@0:2")
        assert faulty.total_weight == REF_WEIGHT, (
            f"{name} lost MSF weight across a fail-stop recovery")
        assert machine.faults.summary().get("pe_fail", 0) == 1
        assert machine.faults.summary().get("round_replay", 0) == 1
        _, clean = run_algo(name, p=6)
        assert faulty.elapsed > clean.elapsed, (
            f"{name} recovered for free (no simulated-time charge)")

    def test_mnd_deep_hierarchy_recovers_mid_merge(self):
        machine = Machine(8, sanitize=True, faults="seed=5, pe_fail@2:3")
        dg = GRAPH.distribute(machine)
        result = mnd_mst(dg, group_size=2)  # 3 merge levels: 8 -> 4 -> 2 -> 1
        assert result.total_weight == REF_WEIGHT
        assert machine.faults.summary()["round_replay"] == 1

    def test_dist_kruskal_refuses_fail_stop_schedules(self):
        machine = Machine(6, sanitize=True, faults="seed=5, pe_fail@0:2")
        dg = GRAPH.distribute(machine)
        with pytest.raises(UnsupportedFaultSchedule, match="dist-kruskal"):
            dist_kruskal(dg)

    def test_dist_kruskal_accepts_comm_only_schedules(self):
        machine = Machine(6, sanitize=True,
                          faults="seed=5, msg_drop=0.05, straggle=0.05")
        dg = GRAPH.distribute(machine)
        assert dist_kruskal(dg).total_weight == REF_WEIGHT

    @pytest.mark.parametrize("name", ["awerbuch-shiloach", "dist-prim"])
    def test_replay_budget_exhaustion_mid_scheduler(self, name):
        spec = ("seed=0, pe_fail@1:0, pe_fail@1:1, pe_fail=0.97, "
                "max_replays=2")
        with pytest.raises(UnrecoverableFault, match="max_replays=2"):
            run_algo(name, p=6, faults=spec)

    def test_replays_do_not_consume_max_rounds(self):
        # One replayed round must not push a tight-but-sufficient
        # max_rounds budget over the divergence guard.
        _, clean = run_algo("awerbuch-shiloach", p=6)
        machine = Machine(6, sanitize=True, faults="seed=5, pe_fail@1:3")
        dg = GRAPH.distribute(machine)
        result = awerbuch_shiloach_msf(
            dg, BoruvkaConfig(max_rounds=clean.rounds))
        assert result.total_weight == REF_WEIGHT
        assert result.rounds == clean.rounds
        assert machine.faults.summary()["round_replay"] == 1
