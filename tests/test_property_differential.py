"""Property-based differential tests (DESIGN invariant 1).

Random graphs from every generator family, distributed over random machine
shapes and algorithm configurations, must yield the same MSF weight and
component structure as sequential Kruskal -- for distributed Borůvka,
Filter-Borůvka and both competitor reimplementations.  The whole layer runs
under the runtime sanitizer (``sanitize=True`` explicitly, so it holds even
with ``--simsan=off``), making every example also a distribution-discipline
and cost-accounting check.

The default ("quick") hypothesis profile keeps this inside the tier-1 time
budget; the ``slow``-marked soak tests and the ``deep`` profile
(``REPRO_HYPOTHESIS_PROFILE=deep pytest -m slow``) explore much further.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.competitors import awerbuch_shiloach_msf, dist_prim, mnd_mst
from repro.faults import UnrecoverableFault
from repro.core import (
    BoruvkaConfig,
    FilterConfig,
    distributed_boruvka,
    distributed_filter_boruvka,
)
from repro.dgraph import DistGraph
from repro.graphgen import FAMILIES, gen_family
from repro.obs.export import chrome_trace, metrics_to_dict
from repro.seq import msf_weight, spans_same_components
from repro.simmpi import Machine

from helpers import ENGINE_NAMES, assert_engines_agree, on_path

DEEP_EXAMPLES = int(os.environ.get("REPRO_DEEP_EXAMPLES", "60"))


@st.composite
def instances(draw, max_n=120):
    """A generated graph plus a random machine shape."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(16, max_n))
    m = draw(st.integers(n // 2, 4 * n))
    seed = draw(st.integers(0, 2 ** 16))
    p = draw(st.integers(1, 8))
    threads = draw(st.sampled_from([1, 2, 8]))
    return gen_family(family, n, m, seed=seed), p, threads


@st.composite
def boruvka_configs(draw):
    return BoruvkaConfig(
        alltoall=draw(st.sampled_from(
            ["auto", "direct", "grid", "grid3", "hypercube"])),
        sorter=draw(st.sampled_from(["auto", "hypercube", "samplesort"])),
        local_preprocessing=draw(st.booleans()),
        base_case_min=draw(st.sampled_from([8, 64, 512])),
    )


def check_against_kruskal(algo, graph, p, threads, cfg=None):
    """Run ``algo`` distributed and compare with sequential Kruskal."""
    machine = Machine(p, threads=threads, sanitize=True)
    dg = graph.distribute(machine)
    result = algo(dg, cfg) if cfg is not None else algo(dg)
    ref_weight = msf_weight(graph.edges, graph.n_vertices)
    assert result.total_weight == ref_weight, (
        f"{algo.__name__} weight {result.total_weight} != Kruskal "
        f"{ref_weight} (p={p}, threads={threads}, cfg={cfg})")
    msf = result.msf_edges()
    assert spans_same_components(msf, graph.edges, graph.n_vertices), (
        f"{algo.__name__} forest spans different components "
        f"(p={p}, threads={threads}, cfg={cfg})")


class TestDifferential:
    @given(inst=instances(), cfg=boruvka_configs())
    def test_boruvka_matches_kruskal(self, inst, cfg):
        graph, p, threads = inst
        check_against_kruskal(distributed_boruvka, graph, p, threads, cfg)

    @given(inst=instances(), inner=boruvka_configs(),
           min_epp=st.sampled_from([8, 64, 256]))
    def test_filter_boruvka_matches_kruskal(self, inst, inner, min_epp):
        graph, p, threads = inst
        cfg = FilterConfig(boruvka=inner, min_edges_per_proc=min_epp)
        check_against_kruskal(distributed_filter_boruvka, graph, p, threads,
                              cfg)

    @given(inst=instances(max_n=80))
    def test_awerbuch_shiloach_matches_kruskal(self, inst):
        graph, p, threads = inst
        check_against_kruskal(awerbuch_shiloach_msf, graph, p, threads)

    @given(inst=instances(max_n=80))
    def test_mnd_matches_kruskal(self, inst):
        graph, p, threads = inst
        check_against_kruskal(mnd_mst, graph, p, threads)


class TestFaultIdentity:
    """Fault-subsystem identities over random instances (docs/faults.md).

    An *empty* schedule (``REPRO_FAULTS`` set but injecting nothing) must be
    arithmetically invisible -- bit-for-bit identical simulated seconds, not
    just the same weight -- and any *surviving* schedule must recover to the
    bit-identical MSF weight while charging strictly more time than the
    fault-free run.
    """

    @given(inst=instances(max_n=100), cfg=boruvka_configs(),
           fseed=st.integers(0, 2 ** 16),
           algo=st.sampled_from([distributed_boruvka,
                                 distributed_filter_boruvka,
                                 awerbuch_shiloach_msf, mnd_mst]))
    def test_empty_schedule_is_bitwise_identity(self, inst, cfg, fseed,
                                                algo):
        graph, p, threads = inst
        takes_cfg = algo is distributed_boruvka

        def run(faults):
            m = Machine(p, threads=threads, sanitize=True, faults=faults)
            dg = graph.distribute(m)
            return algo(dg, cfg) if takes_cfg else algo(dg)

        r0 = run(False)
        r1 = run(f"seed={fseed}")
        assert r1.total_weight == r0.total_weight
        assert r1.elapsed == r0.elapsed, (
            f"an empty fault schedule changed {algo.__name__}'s simulated "
            f"time ({r1.elapsed} != {r0.elapsed})")
        assert r1.phase_times == r0.phase_times

    @given(inst=instances(max_n=100), fseed=st.integers(0, 2 ** 16),
           rate=st.sampled_from([0.01, 0.05, 0.15]))
    def test_surviving_schedule_recovers_bit_identical_weight(
            self, inst, fseed, rate):
        graph, p, threads = inst
        cfg = BoruvkaConfig(base_case_min=8)
        base = Machine(p, threads=threads, sanitize=True, faults=False)
        r0 = distributed_boruvka(graph.distribute(base), cfg)
        # Generous retry/replay budgets: this property is about *surviving*
        # schedules, so draws that exhaust recovery anyway are rejected.
        spec = (f"seed={fseed}, pe_fail={rate}, msg_drop={rate / 4}, "
                f"corrupt={rate}, straggle={rate}, retries=10, "
                f"max_replays=64")
        faulted = Machine(p, threads=threads, sanitize=True, faults=spec)
        try:
            r1 = distributed_boruvka(graph.distribute(faulted), cfg)
        except UnrecoverableFault:
            assume(False)
        assert r1.total_weight == r0.total_weight, (
            f"recovery changed the MSF weight under {spec!r}")
        if faulted.faults.counts:
            assert r1.elapsed > r0.elapsed, (
                f"{faulted.faults.summary()} injected but recovered for "
                "free (no simulated-time charge)")

    @given(inst=instances(max_n=60), fseed=st.integers(0, 2 ** 16),
           algo=st.sampled_from([awerbuch_shiloach_msf, mnd_mst,
                                 dist_prim]))
    @settings(max_examples=15, deadline=None)
    def test_scheduler_recovers_every_round_looped_algorithm(
            self, inst, fseed, algo):
        # The unified RoundScheduler owns the checkpoint/replay bracket for
        # all round-looped drivers, so the bit-identical-weight recovery
        # property must hold for the competitors exactly as for Borůvka.
        graph, p, threads = inst
        base = Machine(p, threads=threads, sanitize=True, faults=False)
        r0 = algo(graph.distribute(base))
        spec = f"seed={fseed}, pe_fail=0.02, retries=10, max_replays=64"
        faulted = Machine(p, threads=threads, sanitize=True, faults=spec)
        try:
            r1 = algo(graph.distribute(faulted))
        except UnrecoverableFault:
            assume(False)
        assert r1.total_weight == r0.total_weight, (
            f"{algo.__name__} recovery changed the MSF weight under "
            f"{spec!r}")
        if faulted.faults.counts:
            assert r1.elapsed > r0.elapsed, (
                f"{algo.__name__}: {faulted.faults.summary()} injected "
                "but recovered for free (no simulated-time charge)")


class TestEngineIdentity:
    """Oracle axis (docs/kernels.md): random instances, bit-identical runs.

    Production must be simulated-behaviour identical to the per-PE
    reference loops (``inprocess``: the oracles substituted) on arbitrary
    instances, and two runs of the same seed on one path must export
    byte-identical deterministic-mode metrics and trace dumps.
    """

    @given(inst=instances(max_n=100), cfg=boruvka_configs(),
           algo=st.sampled_from([distributed_boruvka,
                                 distributed_filter_boruvka,
                                 awerbuch_shiloach_msf, mnd_mst]))
    @settings(max_examples=15, deadline=None)
    def test_engine_is_bitwise_identity(self, inst, cfg, algo):
        graph, p, threads = inst
        if algo is not distributed_boruvka:  # the others run on defaults
            cfg, algo = None, (lambda dg, _cfg, algo=algo: algo(dg))
        assert_engines_agree(graph, p, algo, cfg, threads)

    @given(inst=instances(max_n=80), seed=st.integers(0, 2 ** 16),
           engine=st.sampled_from(ENGINE_NAMES))
    @settings(max_examples=10, deadline=None)
    def test_exports_are_deterministic(self, inst, seed, engine):
        graph, p, threads = inst
        cfg = BoruvkaConfig(base_case_min=16)

        def run():
            with on_path(engine), Machine(p, threads=threads, seed=seed,
                                          trace_events=True) as m:
                dg = graph.distribute(m)
                distributed_boruvka(dg, cfg)
                return (
                    json.dumps(chrome_trace(m.events, deterministic=True),
                               sort_keys=True),
                    json.dumps(
                        metrics_to_dict(m.metrics, deterministic=True),
                        sort_keys=True),
                )

        first, second = run(), run()
        assert first[0] == second[0], (
            "deterministic trace export differs between same-seed "
            f"{engine} runs")
        assert first[1] == second[1], (
            "deterministic metrics export differs between same-seed "
            f"{engine} runs")


class TestServingDifferential:
    """Serving epochs (docs/serving.md): random churn == sequential Kruskal.

    A persistent :class:`~repro.serve.GraphSession` driven through random
    insert/delete epochs must report the exact sequential-Kruskal MSF
    weight after every commit -- whichever incremental strategy each epoch
    picked, on production and on the loop oracles, and with a fail-stop
    fault schedule injecting during the epoch recomputes.
    """

    @given(seed=st.integers(0, 2 ** 16), n=st.integers(16, 64),
           engine=st.sampled_from(ENGINE_NAMES),
           faulted=st.booleans(), epochs=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_churn_epochs_match_kruskal(self, seed, n, engine, faulted,
                                        epochs):
        from repro.dgraph.edges import Edges
        from repro.serve import GraphSession

        rng = np.random.default_rng(seed)
        live = {}
        while len(live) < 2 * n:
            a, b = (int(x) for x in rng.integers(0, n, 2))
            if a != b:
                live[(min(a, b), max(a, b))] = \
                    int(rng.integers(1, 1_000_000))
        rows = [[u, v, w] for (u, v), w in sorted(live.items())]
        faults = (f"seed={seed % 97}, pe_fail=0.04, retries=10, "
                  f"max_replays=64") if faulted else False
        cfg = BoruvkaConfig(base_case_min=16, base_case_factor=1,
                            local_preprocessing=False)

        def expected():
            u = np.array([k[0] for k in live], dtype=np.int64)
            v = np.array([k[1] for k in live], dtype=np.int64)
            w = np.array(list(live.values()), dtype=np.int64)
            return msf_weight(Edges(u, v, w), n) if len(live) else 0

        try:
            with on_path(engine), \
                    GraphSession(n, rows, n_procs=int(rng.integers(1, 6)),
                                 cfg=cfg, faults=faults) as session:
                for _ in range(epochs):
                    ops = []
                    for _ in range(int(rng.integers(1, 5))):
                        pairs = sorted(live)
                        if rng.random() < 0.5 and pairs:
                            pair = pairs[int(rng.integers(0, len(pairs)))]
                            ops.append(("delete", [list(pair)]))
                            live.pop(pair)
                        else:
                            while True:
                                a, b = (int(x) for x in
                                        rng.integers(0, n, 2))
                                key = (min(a, b), max(a, b))
                                if a != b and key not in live:
                                    break
                            w = int(rng.integers(1, 1_000_000))
                            ops.append(("insert", [[key[0], key[1], w]]))
                            live[key] = w
                    outcomes, _ = session.apply_epoch(ops)
                    assert all(o is None for o in outcomes), outcomes
                    assert session.view.total_weight == expected(), (
                        f"serving weight diverged from Kruskal (seed="
                        f"{seed}, engine={engine}, faulted={faulted})")
        except UnrecoverableFault:
            assume(False)


@pytest.mark.slow
class TestDifferentialDeep:
    """Soak variants: bigger graphs, more examples (pytest -m slow)."""

    @settings(max_examples=DEEP_EXAMPLES, deadline=None)
    @given(inst=instances(max_n=400), cfg=boruvka_configs())
    def test_boruvka_matches_kruskal_deep(self, inst, cfg):
        graph, p, threads = inst
        check_against_kruskal(distributed_boruvka, graph, p, threads, cfg)

    @settings(max_examples=DEEP_EXAMPLES, deadline=None)
    @given(inst=instances(max_n=400),
           min_epp=st.sampled_from([8, 64, 1000]))
    def test_filter_boruvka_matches_kruskal_deep(self, inst, min_epp):
        graph, p, threads = inst
        check_against_kruskal(distributed_filter_boruvka, graph, p, threads,
                              FilterConfig(min_edges_per_proc=min_epp))

    @settings(max_examples=DEEP_EXAMPLES, deadline=None)
    @given(inst=instances(max_n=250),
           algo=st.sampled_from([awerbuch_shiloach_msf, mnd_mst]))
    def test_competitors_match_kruskal_deep(self, inst, algo):
        graph, p, threads = inst
        check_against_kruskal(algo, graph, p, threads)
