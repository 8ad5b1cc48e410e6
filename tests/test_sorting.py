"""Tests for the distributed sorters (repro.sorting)."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dgraph.edges import WEIGHT_LIMIT
from repro.kernels import order_key
from repro.simmpi import Comm, Machine
from repro.sorting import (
    HYPERCUBE_THRESHOLD,
    is_globally_sorted,
    is_locally_sorted,
    local_lexsort,
    rebalance_blocks,
    sort_hypercube,
    sort_rows,
    sort_samplesort,
)
from repro.sorting.common import as_row_matrix
from repro.sorting.samplesort import stable_order

import _hypercube_reference as reference
import _loop_reference
from _alltoall_reference import SpyInjector, _assert_equal
from helpers import ENGINE_NAMES, observed_machine, on_path


def _multiset(parts):
    rows = [x for x in parts if len(x)]
    if not rows:
        return []
    cat = np.concatenate(rows)
    return sorted(map(tuple, cat.tolist()))


class TestHelpers:
    def test_as_row_matrix_1d(self):
        out = as_row_matrix(np.array([3, 1, 2]))
        assert out.shape == (3, 1)

    def test_as_row_matrix_empty_2d(self):
        out = as_row_matrix(np.empty((0, 4), dtype=np.int64))
        assert out.shape == (0, 4)

    def test_as_row_matrix_rejects_3d(self):
        with pytest.raises(ValueError):
            as_row_matrix(np.zeros((2, 2, 2)))

    def test_local_lexsort(self):
        rows = np.array([[2, 1, 9], [1, 5, 0], [2, 0, 3], [1, 5, 0]])
        out = local_lexsort(rows, 2)
        assert is_locally_sorted(out, 2)
        assert _multiset([out]) == _multiset([rows])

    def test_is_globally_sorted_detects_boundary_violation(self):
        a = np.array([[5, 0, 0]])
        b = np.array([[4, 0, 0]])
        assert not is_globally_sorted([a, b], 3)
        assert is_globally_sorted([b, a], 3)

    def test_is_locally_sorted_secondary_key(self):
        rows = np.array([[1, 2], [1, 1]])
        assert not is_locally_sorted(rows, 2)
        assert is_locally_sorted(rows, 1)


@pytest.mark.parametrize("method", ["hypercube", "samplesort", "auto"])
class TestSorters:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 16])
    @pytest.mark.parametrize("scale", [0, 3, 60, 900])
    def test_sorts_and_preserves_multiset(self, method, p, scale):
        rng = np.random.default_rng(p * 1000 + scale)
        parts = [rng.integers(0, 50, (int(rng.integers(0, scale + 1)), 4))
                 for _ in range(p)]
        out = sort_rows(Comm(Machine(p)), [x.copy() for x in parts],
                        n_key_cols=3, method=method)
        assert is_globally_sorted(out, 3)
        assert _multiset(out) == _multiset(parts)

    def test_rebalanced_output(self, method):
        rng = np.random.default_rng(0)
        p = 7
        parts = [rng.integers(0, 50, (int(rng.integers(0, 80)), 4))
                 for _ in range(p)]
        out = sort_rows(Comm(Machine(p)), parts, 3, method=method)
        sizes = [len(x) for x in out]
        assert max(sizes) - min(sizes) <= 1

    def test_all_equal_keys(self, method):
        p = 8
        parts = [np.full((20, 4), 7, dtype=np.int64) for _ in range(p)]
        out = sort_rows(Comm(Machine(p)), parts, 3, method=method)
        assert sum(len(x) for x in out) == 160
        assert is_globally_sorted(out, 3)

    def test_payload_columns_travel_with_keys(self, method):
        # Column 1 = key, column 2 = 2*key: the relation must survive.
        rng = np.random.default_rng(1)
        p = 4
        parts = []
        for _ in range(p):
            k = rng.integers(0, 1000, 30)
            parts.append(np.stack([k, 2 * k], axis=1))
        out = sort_rows(Comm(Machine(p)), parts, 1, method=method)
        for x in out:
            assert np.array_equal(x[:, 1], 2 * x[:, 0])


class TestDispatch:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            sort_rows(Comm(Machine(2)),
                      [np.zeros((1, 2), dtype=np.int64)] * 2, 1,
                      method="bogosort")

    def test_auto_threshold(self):
        assert HYPERCUBE_THRESHOLD == 512  # the paper's constant

    @pytest.mark.parametrize("parts, n_key_cols, named", [
        ([np.zeros((2, 4), dtype=np.int64)] * 3, 5, "n_key_cols"),
        ([np.zeros((2, 4), dtype=np.int64)] * 3, 0, "n_key_cols"),
        ([np.zeros((2, 4), dtype=np.int64)] * 2, 3, "parts"),
        ([np.zeros((2, 4), dtype=np.int64)] * 2
         + [np.zeros((2, 3), dtype=np.int64)], 3, "width"),
    ])
    @pytest.mark.parametrize("method", ["hypercube", "samplesort", "auto"])
    def test_bad_arguments_rejected_at_the_boundary(self, parts, n_key_cols,
                                                    named, method):
        """One ValueError naming the argument, not an IndexError / TypeError
        / numpy concatenate error from inside a sorter."""
        with pytest.raises(ValueError, match=named):
            sort_rows(Comm(Machine(3)), parts, n_key_cols, method=method)

    def test_duplicate_heavy_input(self):
        rng = np.random.default_rng(5)
        p = 6
        parts = [rng.integers(0, 3, (100, 2)) for _ in range(p)]
        out = sort_rows(Comm(Machine(p)), parts, 2)
        assert is_globally_sorted(out, 2)
        assert _multiset(out) == _multiset(parts)


class TestRebalance:
    def test_preserves_order_and_balances(self):
        p = 5
        comm = Comm(Machine(p))
        # Globally sorted but badly balanced parts.
        parts = [np.arange(0, 40).reshape(-1, 1),
                 np.empty((0, 1), dtype=np.int64),
                 np.arange(40, 45).reshape(-1, 1),
                 np.empty((0, 1), dtype=np.int64),
                 np.arange(45, 47).reshape(-1, 1)]
        out = rebalance_blocks(comm, parts)
        assert is_globally_sorted(out, 1)
        sizes = [len(x) for x in out]
        assert max(sizes) - min(sizes) <= 1
        assert np.array_equal(np.concatenate(out)[:, 0], np.arange(47))

    def test_empty_input(self):
        p = 3
        out = rebalance_blocks(Comm(Machine(p)),
                               [np.empty((0, 2), dtype=np.int64)] * p)
        assert all(len(x) == 0 for x in out)


class TestCostShape:
    def test_hypercube_cheaper_for_tiny_inputs(self):
        p = 32
        rng = np.random.default_rng(2)
        parts = [rng.integers(0, 100, (8, 3)) for _ in range(p)]
        mh, ms = Machine(p), Machine(p)
        sort_hypercube(Comm(mh), [x.copy() for x in parts], 3)
        sort_samplesort(Comm(ms), [x.copy() for x in parts], 3)
        assert mh.elapsed() < ms.elapsed()

    def test_samplesort_cheaper_for_large_inputs(self):
        p = 32
        rng = np.random.default_rng(3)
        parts = [rng.integers(0, 10 ** 6, (8192, 3)) for _ in range(p)]
        mh, ms = Machine(p), Machine(p)
        sort_hypercube(Comm(mh), [x.copy() for x in parts], 3)
        sort_samplesort(Comm(ms), [x.copy() for x in parts], 3)
        assert ms.elapsed() < mh.elapsed()


# ----------------------------------------------------------------------
# Level-synchronous hypercube quicksort vs. the recursion it replaced.
# ----------------------------------------------------------------------
DIFF_SIZES = [1, 2, 3, 4, 5, 7, 8, 13, 16, 32, 33, 64]
FAULTS = "seed=5,corrupt=0.3,msg_drop=0.05,straggle=0.2"
MODES = {
    "plain": {},
    "traced": {"trace_events": True, "trace": True},
    "sanitized": {"sanitize": True},
    "faults": {"faults": FAULTS},
}


def _payload(rng, keys):
    """``keys`` plus a payload column that tells equal keys apart."""
    return np.column_stack([keys, rng.integers(0, 10 ** 6, len(keys))])


def _shapes(rng, p):
    """The input shapes of the differential, as ``(name, parts)``."""
    def parts(lens, high, dtype=np.int64):
        return [_payload(rng, rng.integers(0, high, (int(k), 3))
                         ).astype(dtype) for k in lens]

    few = rng.integers(0, 3, p)
    yield "random", parts(rng.integers(0, 40, p), 50)
    yield "half empty", parts(rng.integers(1, 30, p)
                              * (rng.random(p) < 0.5), 1000)
    yield "0-2 rows/PE", parts(few, 1 << 20)
    yield "3-valued keys", parts(rng.integers(0, 40, p), 3)
    yield "all keys equal", [_payload(rng, np.full((int(k), 3), 7))
                             for k in rng.integers(0, 25, p)]
    if p <= 16:
        yield "100-600 rows/PE", parts(rng.integers(100, 601, p), 1 << 20)
    mixed = parts(rng.integers(0, 20, p), 1 << 16)
    yield "mixed dtypes", [x.astype(np.uint32) if i % 2 else x
                           for i, x in enumerate(mixed)]
    yield "all empty", parts(np.zeros(p, dtype=np.int64), 5, np.uint32)


def _observed(machine, out):
    """Everything a sort leaves behind, in comparable form."""
    # The leaves' sorts are one charge after the walk, one per leaf in the
    # recursion: the sanitizer's ``charges`` counter is meant to differ.
    seen = observed_machine(machine,
                            skip_checks=("sort_level_checks", "charges"))
    seen["out"] = [(x.dtype, x.shape, x.tolist()) for x in out]
    seen["victims"] = getattr(machine.faults, "hops", None)
    return seen


def _sort_observed(sorter, p, parts, ranks=None, spy=False, **machine_args):
    machine = Machine(p if ranks is None else 2 * p,
                      **{"sanitize": False, "faults": False, **machine_args})
    if spy:
        machine.faults = SpyInjector(machine, machine.faults.schedule)
    comm = Comm(machine) if ranks is None else Comm(machine).sub(ranks)
    return _observed(machine, sorter(comm, parts, 3))


class TestHypercubeMatchesRecursion:
    """Production walks the levels of the split tree and replays the
    charges; the recursion it replaced (tests/_hypercube_reference.py) must
    be indistinguishable from it -- to the caller, to every observer of the
    simulated machine, to the fault injector and to the per-PE RNGs."""

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("p", DIFF_SIZES)
    def test_differential(self, p, mode, engine, monkeypatch):
        if engine == "inprocess":
            # The recursion on the per-PE route_rows it was shipped with.
            monkeypatch.setattr(reference, "route_rows",
                                _loop_reference.route_rows)
        rng = np.random.default_rng(1000 * p + len(mode))
        for name, parts in _shapes(rng, p):
            _assert_equal(
                _sort_observed(sort_hypercube, p, parts, **MODES[mode]),
                _sort_observed(reference.sort_hypercube, p, parts,
                               **MODES[mode]), f"{name}")

    @pytest.mark.parametrize("mode", MODES)
    def test_many_pes_few_rows(self, mode):
        rng = np.random.default_rng(256)
        parts = [_payload(rng, rng.integers(0, 1 << 20, (int(k), 3)))
                 for k in rng.integers(0, 3, 256)]
        _assert_equal(
            _sort_observed(sort_hypercube, 256, parts, **MODES[mode]),
            _sort_observed(reference.sort_hypercube, 256, parts,
                           **MODES[mode]))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("p", [2, 5, 16, 33])
    def test_sub_communicator(self, p, mode):
        """``comm.ranks`` is neither the identity nor ascending."""
        rng = np.random.default_rng(p)
        ranks = rng.permutation(2 * p)[:p]
        for name, parts in _shapes(rng, p):
            _assert_equal(
                _sort_observed(sort_hypercube, p, parts, ranks=ranks,
                               **MODES[mode]),
                _sort_observed(reference.sort_hypercube, p, parts,
                               ranks=ranks, **MODES[mode]), name)

    @pytest.mark.parametrize("p", [4, 7, 16])
    def test_every_hop_payload(self, p):
        """The send side rebuilt on demand for a corruption victim holds the
        rows the recursion's own exchange would have held, rank by rank and
        hop by hop (the spy materialises all of them)."""
        rng = np.random.default_rng(p)
        detected = 0
        for name, parts in _shapes(rng, p):
            got = _sort_observed(sort_hypercube, p, parts, spy=True,
                                 faults="seed=1,corrupt=0.9")
            _assert_equal(got, _sort_observed(
                reference.sort_hypercube, p, parts, spy=True,
                faults="seed=1,corrupt=0.9"), name)
            detected += got["faults"].get("corrupt_detected", 0)
        assert detected > 0  # victims were drawn: not a vacuous comparison

    def test_no_per_group_routing(self, monkeypatch):
        """Host-cost guard without a clock: the sorter never enters
        ``route_rows`` -- one move per level, not one per sub-communicator."""
        from repro.simmpi.alltoall import route_rows

        def forbidden(*args, **kwargs):
            raise AssertionError("sort_hypercube called route_rows")

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and \
                    getattr(module, "route_rows", None) is route_rows:
                monkeypatch.setattr(module, "route_rows", forbidden)
        rng = np.random.default_rng(64)
        parts = [rng.integers(0, 1000, (int(k), 4))
                 for k in rng.integers(0, 50, 64)]
        out = sort_hypercube(Comm(Machine(64)), parts, 3)
        assert is_globally_sorted(out, 3)
        assert _multiset(out) == _multiset(parts)


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 40), st.integers(0, 10 ** 6))
    def test_sorted_and_multiset_preserved(self, p, max_rows, seed):
        rng = np.random.default_rng(seed)
        parts = [rng.integers(0, 20, (int(rng.integers(0, max_rows + 1)), 3))
                 for _ in range(p)]
        out = sort_rows(Comm(Machine(p)), [x.copy() for x in parts], 2)
        assert is_globally_sorted(out, 2)
        assert _multiset(out) == _multiset(parts)


# ----------------------------------------------------------------------
# Sample sort and rebalance charged from counts vs. the row-moving
# versions they replaced (tests/_loop_reference.py).
# ----------------------------------------------------------------------
ONCE_MODES = {
    "plain": {"trace": True, "trace_events": True},
    "sanitized": {"trace": True, "trace_events": True, "sanitize": True},
    "faults": {"trace": True, "trace_events": True, "faults": FAULTS},
}


def _tie_shapes(rng, p, dtype):
    """Four-column blocks whose last column is a distinct id: every full-key
    tie (any ``n_key_cols``) is told apart by its payload."""
    def parts(lens, high):
        lens = np.asarray(lens, dtype=np.int64)
        ids = rng.permutation(int(lens.sum()))
        keys = rng.integers(0, high, (len(ids), 3))
        block = np.column_stack([keys, ids]).astype(dtype)
        return np.split(block, np.cumsum(lens)[:-1])

    yield "3-valued keys", parts(rng.integers(0, 40, p), 3)
    yield "every other PE empty", parts(
        rng.integers(1, 30, p) * (np.arange(p) % 2), 1000)
    yield "all keys equal", parts(rng.integers(0, 25, p), 1)
    if p <= 64:  # above the 512-row average: auto takes sample sort
        yield "520-700 rows/PE", parts(rng.integers(520, 701, p), 1 << 12)
    yield "all empty", parts(np.zeros(p, dtype=np.int64), 5)


class TestSortOnceMatchesRowMoves:
    """``sort_rows`` with production's sample sort and rebalance against the
    same call on the substituted oracles (loop ``route_rows`` underneath):
    rows and dtypes, clocks, CommTrace, deterministic exports, fault summary
    and RNG, and the per-PE RNG states must all agree."""

    @pytest.mark.parametrize("mode", ONCE_MODES)
    @pytest.mark.parametrize("method", ["samplesort", "auto"])
    @pytest.mark.parametrize("p", [1, 2, 3, 64, 256])
    def test_differential(self, p, method, mode):
        rng = np.random.default_rng(p)
        for dtype in (np.int64, np.uint32):
            for name, parts in _tie_shapes(rng, p, dtype):
                for n_key_cols in (1, 2, 3):
                    seen = []
                    for engine in ("batched", "inprocess"):
                        machine = Machine(p, **{"sanitize": False,
                                                "faults": False,
                                                **ONCE_MODES[mode]})
                        with on_path(engine):
                            out = sort_rows(Comm(machine), parts,
                                            n_key_cols, method=method)
                        seen.append(_observed(machine, out))
                    _assert_equal(*seen, f"{name}, {np.dtype(dtype)}, "
                                         f"{n_key_cols} key columns")

    @pytest.mark.parametrize("method", ["samplesort", "auto"])
    @pytest.mark.parametrize("p", [2, 3, 64])
    def test_every_payload(self, p, method):
        """The send side rebuilt on demand for a corruption victim holds the
        rows the routed exchange held, rank by rank and hop by hop."""
        rng = np.random.default_rng(p)
        for name, parts in _tie_shapes(rng, p, np.int64):
            seen = []
            for engine in ("batched", "inprocess"):
                machine = Machine(p, faults="seed=1,corrupt=0.9")
                machine.faults = SpyInjector(machine, machine.faults.schedule)
                with on_path(engine):
                    out = sort_rows(Comm(machine), parts, 3, method=method)
                seen.append(_observed(machine, out))
            _assert_equal(*seen, name)


class TestSubCommunicator:
    """Every sorter on a communicator of some of the machine's PEs: only
    the members' clocks and streams move, and the output is a sorted
    permutation of the input (sample sort used to charge every PE of the
    machine and draw from the streams of the first ``size`` PEs)."""

    @pytest.mark.parametrize("rebalance", [False, True])
    @pytest.mark.parametrize("method", ["samplesort", "hypercube", "auto"])
    @pytest.mark.parametrize("ranks", [[4, 5], [1, 3, 5]])
    def test_members_only(self, ranks, method, rebalance):
        rng = np.random.default_rng(len(ranks))
        parts = [_payload(rng, rng.integers(0, 50, (int(k), 2)))
                 for k in rng.integers(20, 60, len(ranks))]
        machine = Machine(6, sanitize=False, faults=False)
        out = sort_rows(Comm(machine, ranks), parts, 2, method=method,
                        rebalance=rebalance)
        assert is_globally_sorted(out, 2)
        assert _multiset(out) == _multiset(parts)
        others = np.setdiff1d(np.arange(6), ranks)
        assert (machine.clock[ranks] > 0).all()
        assert (machine.clock[others] == 0).all()
        assert set(machine.rng_snapshot()) <= set(ranks)
        if method == "samplesort":
            assert set(machine.rng_snapshot()) == set(ranks)


class TestStableOrder:
    def test_fallback_arm(self):
        """Weights near WEIGHT_LIMIT and large ids pack into a key whose
        sort word would overflow 2^62: the stable-argsort arm runs, and it
        gives the permutation of the word arm (on the same rows' dense
        ranks) and of ``np.lexsort``."""
        rng = np.random.default_rng(11)
        n = 2048
        u = rng.integers(0, 1 << 20, n)
        v = rng.integers(0, 1 << 20, n)
        w = WEIGHT_LIMIT - 1 - rng.integers(0, 1 << 18, n)
        dup = rng.integers(0, n, n // 4)  # full-key ties
        u, v, w = (np.concatenate([x, x[dup]]) for x in (u, v, w))
        key = order_key((w, v, u))
        shift = (len(key) - 1).bit_length()
        assert int(key.max()) >= (1 << 62) >> shift  # fallback arm
        rank = np.unique(key, return_inverse=True)[1].astype(np.int64)
        assert int(rank.max()) < (1 << 62) >> shift  # word arm
        expected = np.lexsort((w, v, u))
        assert np.array_equal(stable_order(key), expected)
        assert np.array_equal(stable_order(rank), expected)

        # End to end: sample sort over these rows (ids as payload).
        block = np.column_stack([u, v, w, rng.permutation(len(u))])
        parts = np.split(block, [100, 100, 900, 1500])
        got = [_sort_observed(sort_samplesort, 5, parts),
               _sort_observed(_loop_reference.sort_samplesort, 5, parts)]
        _assert_equal(*got)
        assert is_globally_sorted([x for x in sort_samplesort(
            Comm(Machine(5)), parts, 3)], 3)
