"""Site-level differentials: each production hot path against its per-PE
loop oracle (``tests/_loop_reference.py``), in the form of the all-to-all and
hypercube differentials (``_alltoall_reference.py``, ``test_sorting.py``).

Every test builds two identically seeded, fully observed machines (sanitizer,
CommTrace, event tracer, and -- in the ``faults`` mode -- a message-fault
schedule), brings both to the same state with *production* code, then runs
the site under test with production on one and the oracle on the other.
Outputs (values and dtypes), per-PE clocks, collective and byte counters,
the CommTrace matrix, the sanitizer's shadow matrix, the deterministic event
and metrics exports, the fault summary and the fault and per-PE RNG states
(= draw order) must be equal.

Outputs are dtype-exact, with one documented licence, host-side only:

* ``exchange_labels`` compares per-PE ghost tables, and the loop oracle
  builds an ``int64`` placeholder table for a PE that receives nothing,
  where production's push (read as tables by ``ghost_tables``) keeps the
  payload's own ``uint32``.  That site's integer outputs are compared
  widened to ``int64`` (``widen=True``); values, shapes and non-integer
  dtypes are always equal.  The graph is one resident block, so no other
  site's dtype depends on an empty PE.
"""

import sys
from contextlib import nullcontext

import numpy as np
import pytest

from repro import core
from repro.analysis.runner import default_configs
from repro.competitors import awerbuch_shiloach as AS
from repro.core import BoruvkaConfig, MSTRun
from repro.dgraph import DistGraph
from repro.dgraph.edges import Edges
from repro.graphgen import gen_family
from repro.kernels import dtypes
from repro.simmpi import Comm, Machine
from repro.simmpi.alltoall import route_rows
from repro.sorting import rebalance_blocks, sort_samplesort
from repro.sorting.common import local_lexsort_parts

import _loop_reference as oracle
from _alltoall_reference import _assert_equal
from helpers import loop_oracles, observed_machine, parts_of

#: The module, not the function the package re-exports under its name.
lp = sys.modules["repro.core.local_preprocessing"]

SIZES = [1, 2, 3, 64]
FAULTS = "seed=3,msg_drop=0.05,corrupt=0.3,straggle=0.2"
MODES = {"plain": {}, "faults": {"faults": FAULTS}}


def _machine(p, **mode):
    return Machine(p, **{"seed": 5, "trace": True, "sanitize": True,
                         "trace_events": True, "faults": False, **mode})


def _plain(x, widen):
    """Outputs as nested lists/dicts of arrays for ``_assert_equal``;
    ``widen`` applies the storage-width licence of the module docstring."""
    if isinstance(x, Edges):
        x = {"u": x.u, "v": x.v, "w": x.w, "id": x.id}
    elif isinstance(x, (core.ChosenEdges, oracle.GhostTable)):
        x = vars(x)
    if isinstance(x, dict):
        return {k: _plain(v, widen) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v, widen) for v in x]
    x = np.asarray(x)  # scalars compare as 0-d arrays
    return dtypes.widen(x) if widen else x


def _differential(setup, production, reference, p, mode=None, widen=False):
    """``setup(machine)`` -> argument tuple; then the site on each side."""
    seen = []
    for fn in (production, reference):
        machine = _machine(p, **(mode or {}))
        out = fn(*setup(machine))
        # One charge call per PE in the loops, one per step in production.
        seen.append({"out": _plain(out, widen),
                     "machine": observed_machine(machine, ("charges",))})
    _assert_equal(*seen)
    return seen[0]["out"]


def _graph_of(redistribute):
    """``redistribute`` returning what it rebuilt: the parts and the
    replicated metadata of the new ``DistGraph``."""
    def site(run, machine, relabelled):
        g = redistribute(run, machine, *relabelled, check=True)
        return {"parts": parts_of(g), "min_keys": g.min_keys,
                "sizes": g.part_sizes, "first_src": g.first_src,
                "last_src": g.last_src, "shared_first": g.shared_first}
    return site


# ----------------------------------------------------------------------
# Row-level sites: route_rows, the sorters' helpers, Awerbuch-Shiloach.
# ----------------------------------------------------------------------
def _row_shapes(rng, p):
    def parts(sizes, hi, dtype=np.int64, width=4):
        return [rng.integers(0, hi, (int(k), width)).astype(dtype)
                for k in sizes]

    yield "0-30 rows/PE", parts(rng.integers(0, 31, p), 1000)
    yield "every other PE empty", parts(
        rng.integers(1, 20, p) * (np.arange(p) % 2), 50)
    yield "3-valued keys, uint32", parts(rng.integers(0, 40, p), 3,
                                         np.uint32)
    yield "all empty", parts(np.zeros(p, dtype=np.int64), 5)


def _resolve_cases(rng, p, method):
    """``(f, n, labels, seg, method)`` arguments of Awerbuch-Shiloach's
    ``_resolve``: random parent pointers, and per-PE label arrays of random
    lengths, with every other PE empty, and all empty."""
    n = 5 * p + 3
    f = rng.integers(0, n, n).astype(dtypes.index_dtype(n - 1))
    for counts, dtype in ((rng.integers(0, 25, p), np.int64),
                          (rng.integers(1, 9, p) * (np.arange(p) % 2),
                           f.dtype),
                          (np.zeros(p, dtype=np.int64), np.int64)):
        seg = np.repeat(np.arange(p), counts)
        yield f, n, rng.integers(0, n, len(seg)).astype(dtype), seg, method


class TestRowSites:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("method", ["auto", "direct", "grid", "grid3",
                                        "hypercube"])
    @pytest.mark.parametrize("p", SIZES)
    def test_route_rows(self, p, method, mode):
        rng = np.random.default_rng(p)
        for name, rows in _row_shapes(rng, p):
            dests = [rng.integers(0, p, len(r)) for r in rows]

            def setup(machine):
                return Comm(machine), rows, dests, method

            _differential(setup, route_rows, oracle.route_rows, p,
                          MODES[mode])

    @pytest.mark.parametrize("p", SIZES)
    def test_local_lexsort_parts(self, p):
        rng = np.random.default_rng(p)
        for name, rows in _row_shapes(rng, p):
            got = local_lexsort_parts(rows, 3)
            _assert_equal(got, oracle.local_lexsort_parts(rows, 3), name)

    @pytest.mark.parametrize("p", SIZES)
    def test_dedup_sorted_parts(self, p):
        """REDISTRIBUTE's one adjacent compare over the sorted block equals
        the per-PE dedup plus the boundary pass it replaced."""
        rng = np.random.default_rng(p)
        for name, rows in _row_shapes(rng, p):
            # Few distinct (u, v) pairs: long runs, also across PE bounds.
            parts = [Edges(*(r % 4).T) for r in rows]
            block = (Edges.concat(parts), oracle._offsets(parts))

            def setup(machine):
                return MSTRun(machine, BoruvkaConfig()), machine, block

            _differential(setup, _graph_of(core.redistribute),
                          _graph_of(oracle.redistribute), p)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("p", SIZES)
    def test_rebalance_blocks(self, p, mode):
        rng = np.random.default_rng(p)
        for name, rows in _row_shapes(rng, p):
            rows = local_lexsort_parts(rows, 3)

            def setup(machine):
                return Comm(machine), rows

            _differential(setup, rebalance_blocks, oracle.rebalance_blocks,
                          p, MODES[mode])

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("p", SIZES)
    def test_sort_samplesort(self, p, mode):
        rng = np.random.default_rng(p)
        for name, rows in _row_shapes(rng, p):
            for n_key_cols in (1, 2, 3):
                def setup(machine):
                    return Comm(machine), rows, n_key_cols

                _differential(setup, sort_samplesort,
                              oracle.sort_samplesort, p, MODES[mode])

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("method", ["direct", "grid"])
    @pytest.mark.parametrize("p", SIZES)
    def test_awerbuch_shiloach_resolve(self, p, method, mode):
        rng = np.random.default_rng(p)
        for args in _resolve_cases(rng, p, method):
            def setup(machine):
                return (Comm(machine),) + args

            _differential(setup, AS._resolve, oracle._resolve, p,
                          MODES[mode])


# ----------------------------------------------------------------------
# Graph-level sites: one Borůvka round, stage by stage.
# ----------------------------------------------------------------------
def _shared_vertex_graph():
    """The corner case ``exchange_labels`` documents, as an instance.

    A star around vertex 1 on two PEs: the block boundary falls inside
    vertex 1's group, so 1 is shared -- PE 0 holds (1, 0), (1, 2), (1, 3),
    PE 1 holds (1, 4).  Edge (2, 1) sits on PE 1 and is *local* there (PE 1
    co-owns its destination), yet its reverse (1, 2) lives on PE 0 as a cut
    edge: PE 0 still needs vertex 2's label, which only the
    reverse-edge-home rule sends.
    """
    u = np.array([0, 1, 1, 1], dtype=np.int64)
    v = np.array([1, 2, 3, 4], dtype=np.int64)
    w = np.array([5, 4, 3, 2], dtype=np.int64)
    sym = Edges(np.concatenate([u, v]), np.concatenate([v, u]),
                np.concatenate([w, w])).sort_lex()
    sym.id[:] = np.arange(len(sym))
    return sym


def _instances(p):
    for family in ("GNM", "2D-GRID"):
        g = gen_family(family, 40 * min(p, 8), 160 * min(p, 8), seed=p)
        yield family, g.edges, True
    # Far fewer edges than PEs: most PEs hold nothing.
    yield "empty PEs", gen_family("GNM", 12, 18, seed=3).edges, True
    # A plain block partition cuts vertex groups: shared vertices.
    yield "shared vertices", gen_family("RHG", 60, 400, seed=p).edges, False


STAGES = ["min_edges", "contract_components", "exchange_labels", "relabel"]


def _push_as_tables(dg, vids, labels, voff, run):
    """Production EXCHANGELABELS, its push read as the receivers' ghost
    tables (the oracles' type)."""
    return oracle.ghost_tables(
        core.exchange_labels(dg, vids, labels, voff, run), len(voff) - 1)


def _tables_from_push(relabel):
    """A ghost-table RELABEL fed production's push."""
    def site(dg, vids, labels, voff, push, run):
        return relabel(dg, vids, labels, voff,
                       oracle.ghost_tables(push, len(voff) - 1), run)
    return site


PRODUCTION = {
    "min_edges": core.min_edges,
    "contract_components": core.contract_components,
    "exchange_labels": _push_as_tables,
    "relabel": core.relabel,
}
ORACLE = {
    "min_edges": oracle._min_edges_loop,
    "contract_components": oracle._contract_loop,
    "exchange_labels": oracle._exchange_labels_loop,
    "relabel": _tables_from_push(oracle._relabel_loop),
}


def _round_stage(stage, edges, avoid_shared, method):
    """``setup`` running production up to ``stage`` of one Borůvka round."""
    def setup(machine):
        dg = DistGraph.from_global_edges(machine, edges,
                                         avoid_shared=avoid_shared)
        run = MSTRun(machine, BoruvkaConfig(alltoall=method))
        if stage == "min_edges":
            return (dg,)
        chosen = core.min_edges(dg)
        if stage == "contract_components":
            return dg, chosen, run
        state = (dg, chosen.vids, core.contract_components(dg, chosen, run),
                 chosen.voff)
        if stage == "exchange_labels":
            return (*state, run)
        return (*state, core.exchange_labels(*state, run), run)

    return setup


class TestRoundSites:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("p", SIZES)
    def test_round_stage(self, p, stage, mode):
        faults = MODES[mode]
        for name, edges, avoid_shared in _instances(p):
            for method in ("auto", "grid"):
                _differential(
                    _round_stage(stage, edges, avoid_shared, method),
                    PRODUCTION[stage], ORACLE[stage], p, faults,
                    widen=stage == "exchange_labels")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("sorter", ["samplesort", "auto"])
    @pytest.mark.parametrize("p", SIZES + [256])
    def test_redistribute(self, p, sorter, mode):
        """The sort charged from counts and the one-block dedup against
        the row-moving sort, per-PE dedup and boundary pass they replaced
        (the oracle routes through the loop ``route_rows``)."""
        for name, edges, avoid_shared in _instances(p):
            def setup(machine):
                dg = DistGraph.from_global_edges(machine, edges,
                                                 avoid_shared=avoid_shared)
                run = MSTRun(machine, BoruvkaConfig(sorter=sorter))
                chosen = core.min_edges(dg)
                state = (dg, chosen.vids,
                         core.contract_components(dg, chosen, run),
                         chosen.voff)
                push = core.exchange_labels(*state, run)
                return run, machine, core.relabel(*state, push, run)

            _differential(setup, _graph_of(core.redistribute),
                          _graph_of(oracle.redistribute), p, MODES[mode])

    @pytest.mark.parametrize("stage", STAGES)
    def test_shared_vertex_corner_case(self, stage):
        edges = _shared_vertex_graph()
        out = _differential(_round_stage(stage, edges, False, "direct"),
                            PRODUCTION[stage], ORACLE[stage], 2,
                            widen=stage == "exchange_labels")
        if stage != "exchange_labels":
            return
        # The instance is the corner case, not just a graph with a shared
        # vertex: (2, 1) is local on PE 1, and PE 0 learns 2's label.
        machine = _machine(2)
        dg = DistGraph.from_global_edges(machine, edges)
        assert list(dg.shared_vertex_set()) == [1]
        on_pe = [set(zip(part.u.tolist(), part.v.tolist()))
                 for part in parts_of(dg)]
        assert (2, 1) in on_pe[1] and (1, 4) in on_pe[1]
        assert (1, 2) in on_pe[0]
        assert out[0]["ghosts"].tolist() == [2, 3]


# ----------------------------------------------------------------------
# Host paths that read what they already hold: local preprocessing's
# handed-in vertex layout and the by-reference input snapshot.
# ----------------------------------------------------------------------
HOST_PATH_ORACLES = ("_contract_block", "InputSnapshot", "redistribute_mst")
ALGORITHMS = ("awerbuch-shiloach", "boruvka", "dist-kruskal", "dist-prim",
              "filter-boruvka", "mnd-mst")
RUN_MODES = {
    "plain": {},
    "simsan": {"sanitize": True},
    "msgfaults": {"faults": FAULTS},
    "pe_fail": {"faults": "seed=7,pe_fail=0.05"},
}
FAMILIES = ("2D-RGG", "3D-RGG", "GNM", "2D-GRID", "ties")
RUN_SIZES = (1, 2, 3, 8, 64)


def _family_graph(family, n=300, m=1200, seed=5):
    """A generated instance; ``ties`` is GNM with every weight equal."""
    g = gen_family("GNM" if family == "ties" else family, n, m, seed=seed)
    if family == "ties":
        g.edges = Edges(g.edges.u, g.edges.v, np.ones_like(g.edges.w),
                        g.edges.id)
    return g


def _whole_run(graph, algo, p, threads, mode):
    """One observed run: MSF parts, weight, rounds and the machine."""
    with Machine(p, threads=threads, seed=3, trace=True, trace_events=True,
                 **{"faults": False, **RUN_MODES[mode]}) as machine:
        dg = graph.distribute(machine)
        try:
            res = core.minimum_spanning_forest(
                dg, algorithm=algo, config=default_configs(256).get(algo))
        except Exception as exc:  # the same refusal on both sides
            return {"raised": repr(exc)}
        return {"msf": res.msf_parts, "weight": res.total_weight,
                "rounds": res.rounds,
                "machine": observed_machine(machine, ("charges",))}


def assert_host_paths_agree(family, algo, p, threads, mode):
    """Production against the three replaced host paths, whole run."""
    graph = _family_graph(family)
    prod = _whole_run(graph, algo, p, threads, mode)
    with loop_oracles(only=HOST_PATH_ORACLES):
        ref = _whole_run(graph, algo, p, threads, mode)
    _assert_equal(_plain(prod, False), _plain(ref, False))


def _matrix():
    """Every algorithm under every mode; family, p and threads rotate so
    each of their values occurs (the full product is in EXPERIMENTS.md)."""
    for k, (algo, mode) in enumerate(
            (a, m) for a in ALGORITHMS for m in RUN_MODES):
        yield (FAMILIES[k % len(FAMILIES)], algo,
               RUN_SIZES[(k + k // len(RUN_SIZES)) % len(RUN_SIZES)],
               (1, 8)[k // 2 % 2], mode)


class TestHostPaths:
    @pytest.mark.parametrize("family,algo,p,threads,mode", list(_matrix()))
    def test_whole_run(self, family, algo, p, threads, mode):
        assert_host_paths_agree(family, algo, p, threads, mode)

    def test_matrix_covers_every_value(self):
        rows = list(_matrix())
        for axis, values in enumerate((FAMILIES, ALGORITHMS, RUN_SIZES,
                                       (1, 8), tuple(RUN_MODES))):
            assert {r[axis] for r in rows} == set(values)

    @pytest.mark.parametrize("use_filter", [True, False])
    @pytest.mark.parametrize("family", FAMILIES + ("RHG",))
    @pytest.mark.parametrize("p", RUN_SIZES)
    def test_contract_one_pe(self, p, family, use_filter):
        """Labels, MST ids and weights, rounds and their dtypes of one block
        contraction equal the version that searched its own layout, PE by
        PE."""
        graph = _family_graph(family, seed=p)
        machine = _machine(p)
        dg = DistGraph.from_global_edges(machine, graph.edges,
                                         avoid_shared=family != "RHG")
        runs, ro = dg.source_runs(), dg.run_offsets()
        at, local = lp.block_destinations(dg)
        mask = np.isin(dg.edges.u[runs], dg.shared_vertex_set())
        labels, ids, ws, mst_off, rounds = lp._contract_block(
            dg.edges, dg.offsets, runs, ro, at, local, mask, use_filter)
        for i, part in enumerate(parts_of(dg)):
            got = [labels[ro[i]:ro[i + 1]], ids[mst_off[i]:mst_off[i + 1]],
                   ws[mst_off[i]:mst_off[i + 1]], rounds[i]]
            vids = oracle.vertex_groups(dg, i)[0]
            want = oracle._contract_one_pe(part, vids, mask[ro[i]:ro[i + 1]],
                                           use_filter)
            _assert_equal(_plain(got, False), _plain(list(want), False))

    @pytest.mark.parametrize("mode", ["plain", "msgfaults", "pe_fail"])
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_output_charged_from_counts(self, algo, mode):
        """REDISTRIBUTEMST charged from its (PE, home) count matrix and
        read at the ids equals the routed output over the parts it
        replaced: MSF, clocks, trace, corruption draws and replays."""
        for p in (1, 3, 64):
            graph = _family_graph(("GNM", "2D-RGG")[p % 2], seed=p)
            prod = _whole_run(graph, algo, p, 1, mode)
            with loop_oracles(only=("InputSnapshotParts",
                                    "redistribute_mst_routed")):
                ref = _whole_run(graph, algo, p, 1, mode)
            _assert_equal(_plain(prod, False), _plain(ref, False))

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_snapshot_references_input(self, algo, monkeypatch):
        """The snapshot shares memory with the input parts, and a run
        leaves those parts as they were."""
        taken = []
        take = core.InputSnapshot.take.__func__

        def spy(cls, graph):
            taken.append((graph, take(cls, graph)))
            return taken[-1][1]

        monkeypatch.setattr(core.InputSnapshot, "take", classmethod(spy))
        graph = _family_graph("2D-RGG")
        with Machine(4, seed=3, sanitize=True) as machine:
            dg = graph.distribute(machine)
            before = [[c.copy() for c in (x.u, x.v, x.w, x.id)]
                      for x in parts_of(dg)]
            core.minimum_spanning_forest(
                dg, algorithm=algo, config=default_configs(256).get(algo))
            assert [g for g, _ in taken] == [dg]
            snap = taken[0][1]
            assert snap.edges is dg.edges
            assert np.array_equal(snap.offsets, dg.offsets)
            for part, cols in zip(parts_of(dg), before):
                assert np.shares_memory(snap.edges.u, part.u) or not len(part)
                for col, old in zip((part.u, part.v, part.w, part.id), cols):
                    assert np.array_equal(col, old)
                    assert col.dtype == old.dtype


# ----------------------------------------------------------------------
# Rounds answered in one host gather (``ask``) or charged from their counts
# (EXCHANGELABELS' push), against the routed rounds they replaced.
# ----------------------------------------------------------------------
ASK_ORACLES = ("_contract_routed", "_exchange_labels_routed",
               "_relabel_ghost_tables",
               "_resolve_routed", "DistributedLabelArray")
ASK_SIZES = [1, 2, 3, 5, 64, 256]
METHODS = ["auto", "direct", "grid", "grid3", "hypercube"]
ASK_MODES = {
    "simsan": {},
    "nosan": {"sanitize": False},
    "faults": {"faults": FAULTS},
}
ROUTED = {
    "contract_components": oracle._contract_routed,
    "exchange_labels": oracle._exchange_labels_routed,
}


def _forest_updates(rng, n, p):
    """Label-sink reports: every vertex points below itself (a forest), some
    are reported twice with different roots, and some PEs report nothing."""
    updates = []
    for pe in range(p):
        if pe % 3 == 1:
            continue
        for _ in range(int(rng.integers(1, 3))):
            verts = rng.integers(0, n, int(rng.integers(0, 2 * n // p + 2)))
            updates.append((pe, verts, rng.integers(0, verts + 1)))
    return updates


def _label_array(cls, method):
    """The P array's life in Filter-Borůvka: reports, contraction, then
    REQUESTLABELS, as one site."""
    def site(comm, n, updates, queries):
        P = cls(comm, n, alltoall=method)
        for pe, verts, roots in updates:
            P.sink(pe, verts, roots)
        P.contract()
        keys = np.concatenate(queries)
        seg = np.repeat(np.arange(len(queries)), [len(q) for q in queries])
        return {"P": P.assembled(), "labels": P.request(keys, seg)}
    return site


class TestAskSites:
    @pytest.mark.parametrize("mode", ASK_MODES)
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("p", ASK_SIZES)
    @pytest.mark.parametrize("stage", sorted(ROUTED))
    def test_round_stage(self, stage, p, method, mode):
        for name, edges, avoid_shared in _instances(min(p, 64)):
            _differential(
                _round_stage(stage, edges, avoid_shared, method),
                PRODUCTION[stage], ROUTED[stage], p, ASK_MODES[mode])

    @pytest.mark.parametrize("mode", ASK_MODES)
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("p", ASK_SIZES)
    def test_label_array(self, p, method, mode):
        rng = np.random.default_rng(p)
        for n in (max(p // 2, 1), 7 * p + 5):
            updates = _forest_updates(rng, n, p)
            queries = [rng.integers(0, n, int(k)) * (i % 4 != 2)
                       for i, k in enumerate(rng.integers(0, 30, p))]

            def setup(machine):
                return Comm(machine), n, updates, queries

            _differential(setup, _label_array(core.DistributedLabelArray,
                                              method),
                          _label_array(oracle.DistributedLabelArray, method),
                          p, ASK_MODES[mode])

    @pytest.mark.parametrize("mode", ASK_MODES)
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("p", ASK_SIZES)
    def test_awerbuch_shiloach_resolve(self, p, method, mode):
        rng = np.random.default_rng(p)
        for args in _resolve_cases(rng, p, method):
            def setup(machine):
                return (Comm(machine),) + args

            _differential(setup, AS._resolve, oracle._resolve_routed, p,
                          ASK_MODES[mode])


ASK_ALGORITHMS = ("boruvka", "filter-boruvka", "awerbuch-shiloach")


def _ask_matrix():
    """Each algorithm under every all-to-all method and run mode; p rotates
    so each size occurs."""
    sizes = (1, 2, 3, 5, 64)
    for k, (algo, method, mode) in enumerate(
            (a, m, r) for a in ASK_ALGORITHMS for m in METHODS
            for r in RUN_MODES):
        yield algo, method, mode, sizes[k % len(sizes)]


class TestAskWholeRuns:
    @pytest.mark.parametrize("algo,method,mode,p", list(_ask_matrix()))
    def test_whole_run(self, algo, method, mode, p):
        """MSF, clocks, CommTrace, events, fault draws and RNG states equal
        the run on the routed rounds, recovery from ``pe_fail`` included."""
        graph = _family_graph(("GNM", "2D-RGG")[p % 2], seed=p)
        b = BoruvkaConfig(base_case_min=64, alltoall=method)
        cfg = (core.FilterConfig(boruvka=b) if algo == "filter-boruvka"
               else b)

        faults = dict(RUN_MODES[mode])
        if mode == "pe_fail":  # two certain fail-stops: replays happen
            faults["faults"] = f"seed=7,pe_fail@0:0,pe_fail@1:{p - 1}"

        def run():
            with Machine(p, seed=3, trace=True, trace_events=True,
                         **{"faults": False, **faults}) as machine:
                dg = graph.distribute(machine)
                try:
                    res = core.minimum_spanning_forest(dg, algorithm=algo,
                                                       config=cfg)
                except Exception as exc:  # the same refusal on both sides
                    return {"raised": repr(exc)}
                return {"msf": res.msf_parts, "weight": res.total_weight,
                        "rounds": res.rounds,
                        "machine": observed_machine(machine, ("charges",))}

        prod = run()
        with loop_oracles(only=ASK_ORACLES):
            ref = run()
        _assert_equal(_plain(prod, False), _plain(ref, False))

    @pytest.mark.parametrize("method", METHODS)
    def test_connected_components(self, method):
        """Connectivity reads the P array after the same rounds."""
        graph = _family_graph("2D-RGG", seed=4)
        seen = []
        for ctx in (nullcontext(), loop_oracles(only=ASK_ORACLES)):
            with ctx, Machine(5, seed=3, trace=True, sanitize=True) as m:
                res = core.connected_components(
                    graph.distribute(m), BoruvkaConfig(alltoall=method))
                seen.append({"blocks": res.blocks,
                             "n": res.n_components,
                             "machine": observed_machine(m, ("charges",))})
        _assert_equal(*(_plain(x, False) for x in seen))


# ----------------------------------------------------------------------
# Many PEs, one pass: RELABEL from one lookup, the batched per-PE streams,
# the hypercube's per-level charges and the base case's one-call reduce,
# against the ghost tables, per-PE generators, per-node replay and
# pairwise fold they replaced.
# ----------------------------------------------------------------------
MANY_PE_ORACLES = ("_exchange_labels_ghost_tables", "_relabel_ghost_tables",
                   "sample_positions", "_replay_per_node", "base_case",
                   "_row_min")
MANY_PE_MODES = {
    "simsan": {"sanitize": True},
    "nosan": {"sanitize": False},
    "corrupt_straggle": {"faults": "seed=3,corrupt=0.3,straggle=0.2"},
    "pe_fail": {},  # two certain fail-stops, set per size
}


def _many_pe_matrix():
    """The label-pushing algorithms under every all-to-all method and run
    mode, the others under every run mode; p rotates so each size occurs
    (at 256 most PEs hold nothing)."""
    sizes = (1, 2, 3, 5, 64, 256)
    combos = [(a, m, r) for a in ("boruvka", "filter-boruvka")
              for m in METHODS for r in MANY_PE_MODES]
    combos += [(a, "auto", r) for a in ALGORITHMS
               if a not in ("boruvka", "filter-boruvka")
               for r in MANY_PE_MODES]
    for k, (algo, method, mode) in enumerate(combos):
        yield algo, method, mode, sizes[k % len(sizes)]


class TestManyPeWholeRuns:
    @pytest.mark.parametrize("algo,method,mode,p", list(_many_pe_matrix()))
    def test_whole_run(self, algo, method, mode, p):
        """MSF, clocks, CommTrace, the deterministic exports, the fault
        summary and the per-PE RNG states equal the run on the replaced
        paths, recovery from ``pe_fail`` included."""
        graph = _family_graph(("GNM", "2D-RGG")[p % 2], seed=p)
        b = BoruvkaConfig(base_case_min=64, alltoall=method)
        cfg = {"boruvka": b, "filter-boruvka": core.FilterConfig(boruvka=b)
               }.get(algo, default_configs(256).get(algo))
        faults = dict(MANY_PE_MODES[mode])
        if mode == "pe_fail":
            faults["faults"] = f"seed=7,pe_fail@0:0,pe_fail@1:{p - 1}"

        def run():
            with Machine(p, seed=3, trace=True, trace_events=True,
                         **{"faults": False, **faults}) as machine:
                dg = graph.distribute(machine)
                try:
                    res = core.minimum_spanning_forest(dg, algorithm=algo,
                                                       config=cfg)
                except Exception as exc:  # the same refusal on both sides
                    return {"raised": repr(exc)}
                return {"msf": res.msf_parts, "weight": res.total_weight,
                        "rounds": res.rounds,
                        "machine": observed_machine(machine, ("charges",))}

        prod = run()
        with loop_oracles(only=MANY_PE_ORACLES):
            ref = run()
        # Only a refusal of the schedule itself may end a run early.
        assert "UnsupportedFaultSchedule" in prod.get(
            "raised", "UnsupportedFaultSchedule")
        _assert_equal(_plain(prod, False), _plain(ref, False))
