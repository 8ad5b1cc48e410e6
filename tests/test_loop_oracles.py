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

One documented licence, host-side only:

* Storage width of the four graph-level sites' outputs: production
  concatenates all PEs' arrays into one block, so one ``int64`` array (an
  empty PE's placeholder) promotes every PE's slice where the loop keeps
  each PE's own ``uint32``, and ``relabel`` keeps the edges' ``uint32``
  where the loop takes ``result_type(labels, v)``.  Their integer outputs
  are therefore compared widened to ``int64`` (``widen=True``); values,
  shapes and non-integer dtypes are always equal, and the row-level sites'
  outputs are dtype-exact.
"""

import numpy as np
import pytest

from repro import core
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
from helpers import observed_machine

SIZES = [1, 2, 3, 64]
FAULTS = "seed=3,msg_drop=0.05,corrupt=0.3,straggle=0.2"
MODES = {"plain": {}, "faults": {"faults": FAULTS}}


def _machine(p, **mode):
    return Machine(p, seed=5, trace=True, sanitize=True, trace_events=True,
                   **{"faults": False, **mode})


def _plain(x, widen):
    """Outputs as nested lists/dicts of arrays for ``_assert_equal``;
    ``widen`` applies the storage-width licence of the module docstring."""
    if isinstance(x, Edges):
        x = {"u": x.u, "v": x.v, "w": x.w, "id": x.id}
    elif isinstance(x, (core.ChosenEdges, core.GhostTable)):
        x = vars(x)
    if isinstance(x, dict):
        return {k: _plain(v, widen) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v, widen) for v in x]
    x = np.asarray(x)  # a sanitizer PEArray view compares as its base
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
        g = redistribute(run, machine, relabelled, check=True)
        return {"parts": g.parts, "min_keys": g.min_keys,
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

            def setup(machine):
                return MSTRun(machine, BoruvkaConfig()), machine, parts

            _differential(setup, _graph_of(core.redistribute),
                          _graph_of(oracle.redistribute), p, widen=True)

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
        n = 5 * p + 3
        f_blocks = AS._identity_blocks(n, p)
        for blk in f_blocks:  # parent pointers: any vertex label < n
            blk[:] = rng.integers(0, n, len(blk))
        for labels in (
                [rng.integers(0, n, int(k)) for k in rng.integers(0, 25, p)],
                [rng.integers(0, n, int(k)).astype(f_blocks[0].dtype)
                 for k in rng.integers(1, 9, p) * (np.arange(p) % 2)],
                [np.empty(0, dtype=np.int64)] * p):
            def setup(machine):
                return Comm(machine), f_blocks, n, labels, method

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
ORACLE = {
    "min_edges": oracle._min_edges_loop,
    "contract_components": oracle._contract_loop,
    "exchange_labels": oracle._exchange_labels_loop,
    "relabel": oracle._relabel_loop,
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
        vids = [c.vids for c in chosen]
        labels = core.contract_components(dg, chosen, run)
        if stage == "exchange_labels":
            return dg, vids, labels, run
        ghosts = core.exchange_labels(dg, vids, labels, run)
        return dg, vids, labels, ghosts, run

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
                    getattr(core, stage), ORACLE[stage], p, faults,
                    widen=True)

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
                vids = [c.vids for c in chosen]
                labels = core.contract_components(dg, chosen, run)
                ghosts = core.exchange_labels(dg, vids, labels, run)
                return run, machine, core.relabel(dg, vids, labels, ghosts,
                                                  run)

            _differential(setup, _graph_of(core.redistribute),
                          _graph_of(oracle.redistribute), p, MODES[mode],
                          widen=True)

    @pytest.mark.parametrize("stage", STAGES)
    def test_shared_vertex_corner_case(self, stage):
        edges = _shared_vertex_graph()
        out = _differential(_round_stage(stage, edges, False, "direct"),
                            getattr(core, stage), ORACLE[stage], 2,
                            widen=True)
        if stage != "exchange_labels":
            return
        # The instance is the corner case, not just a graph with a shared
        # vertex: (2, 1) is local on PE 1, and PE 0 learns 2's label.
        machine = _machine(2)
        dg = DistGraph.from_global_edges(machine, edges)
        assert list(dg.shared_vertex_set()) == [1]
        on_pe = [set(zip(part.u.tolist(), part.v.tolist()))
                 for part in dg.parts]
        assert (2, 1) in on_pe[1] and (1, 4) in on_pe[1]
        assert (1, 2) in on_pe[0]
        assert out[0]["ghosts"].tolist() == [2, 3]
