"""Tests for the sparse all-to-all variants (repro.simmpi.alltoall).

The central contract: direct, two-level grid and hypercube deliveries return
bit-identical results (receive buffers source-major with per-pair order
preserved), differing only in charged cost.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import (
    Comm,
    Machine,
    alltoallv_auto,
    alltoallv_direct,
    alltoallv_grid,
    alltoallv_hypercube,
    route_rows,
    unsort,
)
from repro.simmpi.alltoall import (
    ALLTOALL_METHODS,
    _grid_intermediate,
    _grid_shape,
    _hop_plan,
)

import _alltoall_reference as reference
import _loop_reference

VARIANTS = [alltoallv_direct, alltoallv_grid, alltoallv_hypercube,
            alltoallv_auto]


def _random_send(rng, p, max_rows=12, cols=3):
    sendbufs, sendcounts = [], []
    for _ in range(p):
        k = int(rng.integers(0, max_rows))
        dest = np.sort(rng.integers(0, p, k))
        counts = np.zeros(p, dtype=np.int64)
        np.add.at(counts, dest, 1)
        sendbufs.append(rng.integers(0, 10 ** 6, (k, cols)))
        sendcounts.append(counts)
    return sendbufs, sendcounts


class TestEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8, 11, 16, 23, 32])
    def test_variants_agree(self, p, rng):
        sendbufs, sendcounts = _random_send(rng, p)
        ref, ref_counts = alltoallv_direct(
            Comm(Machine(p)), sendbufs, sendcounts)
        for fn in (alltoallv_grid, alltoallv_hypercube, alltoallv_auto):
            got, got_counts = fn(Comm(Machine(p)), sendbufs, sendcounts)
            for j in range(p):
                assert np.array_equal(ref[j], got[j]), (fn.__name__, j)
                assert np.array_equal(ref_counts[j], got_counts[j])

    def test_per_pair_order_preserved(self, rng):
        # All rows go 0 -> 1 carrying a sequence number.
        p = 4
        rows = np.arange(50).reshape(-1, 1)
        sendbufs = [rows] + [np.empty((0, 1), dtype=np.int64)] * 3
        counts0 = np.array([0, 50, 0, 0], dtype=np.int64)
        sendcounts = [counts0] + [np.zeros(p, dtype=np.int64)] * 3
        for fn in VARIANTS:
            recv, _ = fn(Comm(Machine(p)), sendbufs, sendcounts)
            assert np.array_equal(recv[1][:, 0], np.arange(50)), fn.__name__

    def test_source_major_order(self, rng):
        # Each PE i sends its rank to PE 0; PE 0 must receive 0,1,2,...
        p = 6
        sendbufs = [np.array([[i]]) for i in range(p)]
        counts = np.zeros(p, dtype=np.int64)
        counts[0] = 1
        sendcounts = [counts.copy() for _ in range(p)]
        for fn in VARIANTS:
            recv, rc = fn(Comm(Machine(p)), sendbufs, sendcounts)
            assert list(recv[0][:, 0]) == list(range(p)), fn.__name__
            assert list(rc[0]) == [1] * p


class TestValidation:
    def test_count_mismatch_rejected(self):
        p = 2
        bufs = [np.zeros((3, 1), dtype=np.int64)] * 2
        counts = [np.array([1, 1]), np.array([2, 1])]
        with pytest.raises(ValueError):
            alltoallv_direct(Comm(Machine(p)), bufs, counts)

    def test_wrong_count_length_rejected(self):
        p = 2
        bufs = [np.zeros((0, 1), dtype=np.int64)] * 2
        counts = [np.zeros(3, dtype=np.int64)] * 2
        with pytest.raises(ValueError):
            alltoallv_direct(Comm(Machine(p)), bufs, counts)


    @pytest.mark.parametrize("method", ["direct", "grid", "grid3",
                                        "hypercube", "auto"])
    def test_no_array_buffer_rejected(self, method):
        """Every scheme refuses an exchange without a single ndarray buffer
        with the same typed error (not StopIteration / AssertionError)."""
        p = 4
        with pytest.raises(ValueError, match="numpy array"):
            ALLTOALL_METHODS[method](
                Comm(Machine(p)), [[] for _ in range(p)],
                [np.zeros(p, dtype=np.int64) for _ in range(p)])

    def test_counts_matrix_accepted(self, rng):
        p = 5
        sendbufs, sendcounts = _random_send(rng, p)
        ref, ref_counts = alltoallv_grid(Comm(Machine(p)), sendbufs,
                                         sendcounts)
        got, got_counts = alltoallv_grid(Comm(Machine(p)), sendbufs,
                                         np.stack(sendcounts))
        for j in range(p):
            assert np.array_equal(ref[j], got[j])
            assert np.array_equal(ref_counts[j], got_counts[j])
        with pytest.raises(ValueError, match="matrix"):
            alltoallv_grid(Comm(Machine(p)), sendbufs,
                           np.zeros((p, p + 1), dtype=np.int64))

    def test_unconverged_hop_table_rejected(self):
        """A routing table that strands a cell is refused when the plan is
        built -- a real check, not an ``assert`` stripped under -O."""
        p = 4
        T = _grid_intermediate(p)
        dst = np.broadcast_to(np.arange(p), (p, p))
        _hop_plan(("a", "b"), (T, dst), (2, 2))
        stranded = dst.copy()
        stranded[1, 2] = 3
        with pytest.raises(RuntimeError, match="converge"):
            _hop_plan(("a", "b"), (T, stranded), (2, 2))


DIFF_SIZES = [4, 5, 7, 12, 16, 23, 30, 64]
CORRUPT = "seed=11,corrupt=0.6"
STORM = "seed=5,corrupt=0.5,msg_drop=0.1,straggle=0.05"


class TestAccountedHopsMatchReplay:
    """Production accounts the intermediate hops and moves the payload once;
    the replayed routing it replaced (tests/_alltoall_reference.py) must be
    indistinguishable from it -- to the caller, to every observer of the
    simulated machine, and to the fault injector."""

    @pytest.mark.parametrize("p", DIFF_SIZES)
    @pytest.mark.parametrize("faults", [None, CORRUPT, STORM])
    def test_grid(self, p, faults, rng):
        for cols, dtype in ((3, np.int64), (0, np.uint32), (2, np.uint32)):
            bufs, counts = reference.sparse_exchange(rng, p, cols, dtype)
            reference.assert_same_exchange(
                alltoallv_grid, reference.alltoallv_grid, p, bufs, counts,
                faults=faults)

    @pytest.mark.parametrize("p", DIFF_SIZES)
    @pytest.mark.parametrize("faults", [None, CORRUPT, STORM])
    def test_hypercube(self, p, faults, rng):
        # Non-powers of two fall back to the grid in both implementations.
        for cols, dtype in ((3, np.int64), (0, np.uint32)):
            bufs, counts = reference.sparse_exchange(rng, p, cols, dtype)
            reference.assert_same_exchange(
                alltoallv_hypercube, reference.alltoallv_hypercube, p, bufs,
                counts, faults=faults)

    @pytest.mark.parametrize("fn, ref_fn", [
        (alltoallv_grid, reference.alltoallv_grid),
        (alltoallv_hypercube, reference.alltoallv_hypercube)])
    @pytest.mark.parametrize("faults", [None, CORRUPT])
    def test_all_empty_exchange(self, fn, ref_fn, faults, rng):
        for p in (4, 7, 16):
            bufs, counts = reference.sparse_exchange(rng, p, empty=True)
            reference.assert_same_exchange(fn, ref_fn, p, bufs, counts,
                                           faults=faults)

    @pytest.mark.parametrize("fn, ref_fn", [
        (alltoallv_grid, reference.alltoallv_grid),
        (alltoallv_hypercube, reference.alltoallv_hypercube)])
    @pytest.mark.parametrize("faults", [None, CORRUPT])
    def test_sub_communicator(self, fn, ref_fn, faults, rng):
        for p in (4, 7, 16):
            ranks = np.sort(rng.permutation(2 * p)[:p])
            bufs, counts = reference.sparse_exchange(rng, p)
            reference.assert_same_exchange(fn, ref_fn, p, bufs, counts,
                                           faults=faults, ranks=ranks)

    def test_victim_payloads_were_compared(self, rng):
        """The corrupt schedule really draws victims, and the spy really saw
        a non-trivial payload on every hop (the comparison is not vacuous)."""
        p = 16
        bufs, counts = reference.sparse_exchange(rng, p, silent=0.0)
        got = reference.assert_same_exchange(
            alltoallv_grid, reference.alltoallv_grid, p, bufs, counts,
            faults="seed=1,corrupt=0.999")
        assert got["faults"]["corrupt_detected"] == 2
        assert [op for op, _, _ in got["hops"]] == [
            "alltoallv_grid/hop1", "alltoallv_grid/hop2"]
        for _, sizes, payloads in got["hops"]:
            assert sum(len(b) for b in payloads) == sum(map(len, bufs))
            assert [b.size for b in payloads] == list(sizes)


class TestGridRouting:
    @pytest.mark.parametrize("p", [4, 5, 7, 9, 12, 16, 20, 30])
    def test_intermediate_in_range_and_reachable(self, p):
        c, r = _grid_shape(p)
        T = _grid_intermediate(p)
        assert T.shape == (p, p)
        assert (T >= 0).all() and (T < p).all()
        i = np.arange(p)[:, None]
        # Phase 1 stays within the sender's grid column.
        assert ((T % c) == (i % c)).all()

    def test_cost_grid_beats_direct_at_scale(self):
        p = 256
        bufs = [np.zeros((p, 1), dtype=np.int64) for _ in range(p)]
        counts = [np.ones(p, dtype=np.int64) for _ in range(p)]
        md, mg = Machine(p), Machine(p)
        alltoallv_direct(Comm(md), bufs, counts)
        alltoallv_grid(Comm(mg), bufs, counts)
        assert mg.elapsed() < md.elapsed() / 2

    def test_grid_doubles_volume(self):
        p = 64
        bufs = [np.zeros((p, 1), dtype=np.int64) for _ in range(p)]
        counts = [np.ones(p, dtype=np.int64) for _ in range(p)]
        md, mg = Machine(p), Machine(p)
        alltoallv_direct(Comm(md), bufs, counts)
        alltoallv_grid(Comm(mg), bufs, counts)
        assert mg.bytes_communicated == pytest.approx(
            2 * md.bytes_communicated)


class TestAutoDispatch:
    def test_small_messages_take_grid(self):
        # Average bytes/message below the 500-byte threshold -> 2 exchanges.
        p = 16
        bufs = [np.zeros((p, 1), dtype=np.int64) for _ in range(p)]
        counts = [np.ones(p, dtype=np.int64) for _ in range(p)]
        m = Machine(p)
        alltoallv_auto(Comm(m), bufs, counts)
        assert m.n_collectives == 2  # the grid variant's two phases

    def test_large_messages_take_direct(self):
        p = 16
        rows = 2000  # 16 kB per message
        bufs = [np.zeros((rows * p, 1), dtype=np.int64) for _ in range(p)]
        counts = [np.full(p, rows, dtype=np.int64) for _ in range(p)]
        m = Machine(p)
        alltoallv_auto(Comm(m), bufs, counts)
        assert m.n_collectives == 1


class TestRouteRows:
    def test_request_reply_roundtrip(self, rng):
        p = 8
        comm = Comm(Machine(p))
        rows = [rng.integers(0, 100, (10, 2)) for _ in range(p)]
        dests = [rng.integers(0, p, 10) for _ in range(p)]
        recv, src, orders = route_rows(comm, rows, dests)
        replies = [r.sum(axis=1) for r in recv]
        back, _, _ = route_rows(comm, replies, src)
        for i in range(p):
            restored = unsort(orders[i], back[i])
            assert np.array_equal(restored, rows[i].sum(axis=1))

    def test_length_mismatch_rejected(self):
        comm = Comm(Machine(2))
        with pytest.raises(ValueError):
            route_rows(comm, [np.zeros((2, 1), dtype=np.int64),
                              np.zeros((0, 1), dtype=np.int64)],
                       [np.array([0]), np.empty(0, dtype=np.int64)])

    @pytest.mark.parametrize("method", ["auto", "direct", "grid", "grid3",
                                        "hypercube"])
    @pytest.mark.parametrize("stray", [-1, 4])
    def test_destination_out_of_range_rejected(self, method, stray):
        """A rank outside ``[0, size)`` is an error naming the PE and the
        value -- not a row delivered to the neighbouring segment's PE."""
        machine = Machine(4)
        rows = [np.arange(2 * k).reshape(k, 2) for k in (1, 3, 0, 2)]
        dests = [np.array([2]), np.array([0, stray, 3]),
                 np.empty(0, dtype=np.int64), np.array([1, 1])]
        with pytest.raises(ValueError, match=rf"PE 1: destination {stray} "
                                             rf"outside \[0, 4\)"):
            route_rows(Comm(machine), rows, dests, method=method)
        assert machine.n_collectives == 0 and not machine.clock.any()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 30), st.integers(1, 99))
    def test_conservation_property(self, p, k, seed):
        """Every row sent arrives exactly once, at the right PE."""
        rng = np.random.default_rng(seed)
        comm = Comm(Machine(p))
        rows = [rng.integers(0, 50, (k, 1)) for _ in range(p)]
        dests = [rng.integers(0, p, k) for _ in range(p)]
        recv, src, _ = route_rows(comm, rows, dests)
        assert sum(len(r) for r in recv) == p * k
        sent = sorted(np.concatenate([r[:, 0] for r in rows]).tolist())
        got = sorted(np.concatenate(
            [r[:, 0] for r in recv if len(r)]).tolist() if p * k else [])
        assert sent == got


    @pytest.mark.parametrize("method", ["auto", "direct", "grid", "grid3",
                                        "hypercube"])
    @pytest.mark.parametrize("p", [2, 4, 7, 16])
    def test_same_on_both_kernel_engines(self, method, p, rng):
        """The fused flat hand-off (production) and the per-PE list hand-off
        (the loop oracle) deliver the same rows, sources and send
        permutations."""
        rows = [rng.integers(0, 10 ** 6, (int(rng.integers(0, 14)), 2))
                for _ in range(p)]
        rows[0] = rows[0][:0]  # a PE that sends nothing
        dests = [rng.integers(0, p, len(r)) for r in rows]
        m_loop, m_batched = Machine(p), Machine(p)
        loop = _loop_reference.route_rows(Comm(m_loop), rows, dests,
                                          method=method)
        batched = route_rows(Comm(m_batched), rows, dests, method=method)
        assert np.array_equal(m_loop.clock, m_batched.clock)
        for part_loop, part_batched in zip(loop, batched):
            for i in range(p):
                assert np.array_equal(part_loop[i], part_batched[i])
        recv, src, orders = batched
        for i in range(p):
            # send_order sorts the PE's rows by destination, stably ...
            assert np.array_equal(orders[i],
                                  np.argsort(dests[i], kind="stable"))
            # ... and unsort undoes it.
            assert np.array_equal(unsort(orders[i], rows[i][orders[i]]),
                                  rows[i])
            assert len(src[i]) == len(recv[i])
            assert (np.diff(src[i]) >= 0).all()


@pytest.fixture
def rng():
    return np.random.default_rng(7)
