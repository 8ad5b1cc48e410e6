"""Tests for the d-dimensional indirect all-to-all (repro.simmpi.multilevel)."""

import numpy as np
import pytest

from repro.simmpi import (
    ALLTOALL_METHODS,
    Comm,
    Machine,
    alltoallv_direct,
    alltoallv_multilevel,
    grid_sides,
)

import _alltoall_reference as reference


def _random_send(rng, p, max_rows=10):
    sendbufs, sendcounts = [], []
    for _ in range(p):
        k = int(rng.integers(0, max_rows))
        dest = np.sort(rng.integers(0, p, k))
        counts = np.zeros(p, dtype=np.int64)
        np.add.at(counts, dest, 1)
        sendbufs.append(rng.integers(0, 10 ** 6, (k, 3)))
        sendcounts.append(counts)
    return sendbufs, sendcounts


class TestGridSides:
    @pytest.mark.parametrize("p", [1, 2, 7, 16, 27, 100, 1000])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_covers_p(self, p, d):
        sides = grid_sides(p, d)
        assert len(sides) == d
        assert np.prod(sides) >= p
        assert sorted(sides, reverse=True) == sides

    def test_square_for_d2(self):
        assert grid_sides(64, 2) == [8, 8]

    def test_cube_for_d3(self):
        assert grid_sides(27, 3) == [3, 3, 3]

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            grid_sides(8, 0)


class TestEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 4, 5, 8, 13, 16, 27, 32])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_direct(self, p, d, rng):
        sendbufs, sendcounts = _random_send(rng, p)
        ref, ref_c = alltoallv_direct(Comm(Machine(p)), sendbufs, sendcounts)
        got, got_c = alltoallv_multilevel(Comm(Machine(p)), sendbufs,
                                          sendcounts, d=d)
        for j in range(p):
            assert np.array_equal(ref[j], got[j]), (p, d, j)
            assert np.array_equal(ref_c[j], got_c[j])

    def test_registered_as_grid3(self, rng):
        assert "grid3" in ALLTOALL_METHODS
        p = 9
        sendbufs, sendcounts = _random_send(rng, p)
        ref, _ = alltoallv_direct(Comm(Machine(p)), sendbufs, sendcounts)
        got, _ = ALLTOALL_METHODS["grid3"](Comm(Machine(p)), sendbufs,
                                           sendcounts)
        for j in range(p):
            assert np.array_equal(ref[j], got[j])


class TestAccountedHopsMatchReplay:
    """Same differential as tests/test_alltoall.py, for the d-dim grid: the
    accounted hops are indistinguishable from the replayed routing."""

    @pytest.mark.parametrize("p", [4, 5, 7, 12, 16, 23, 30, 64])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("faults", [
        None, "seed=11,corrupt=0.6",
        "seed=5,corrupt=0.5,msg_drop=0.1,straggle=0.05"])
    def test_multilevel(self, p, d, faults, rng):
        for cols, dtype in ((3, np.int64), (0, np.uint32)):
            bufs, counts = reference.sparse_exchange(rng, p, cols, dtype)
            reference.assert_same_exchange(
                alltoallv_multilevel, reference.alltoallv_multilevel, p,
                bufs, counts, faults=faults, d=d)

    @pytest.mark.parametrize("faults", [None, "seed=11,corrupt=0.6"])
    def test_empty_and_sub_communicator(self, faults, rng):
        for p in (5, 16):
            bufs, counts = reference.sparse_exchange(rng, p, empty=True)
            reference.assert_same_exchange(
                alltoallv_multilevel, reference.alltoallv_multilevel, p,
                bufs, counts, faults=faults)
            ranks = np.sort(rng.permutation(2 * p)[:p])
            bufs, counts = reference.sparse_exchange(rng, p)
            reference.assert_same_exchange(
                alltoallv_multilevel, reference.alltoallv_multilevel, p,
                bufs, counts, faults=faults, ranks=ranks)

    @pytest.mark.parametrize("p", [5, 13, 27, 30, 100])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_hop_table_converges(self, p, d):
        """The virtual-rank snap still lands every cell on its destination
        (building the plan raises RuntimeError otherwise)."""
        from repro.simmpi.multilevel import _multilevel_plan

        plan = _multilevel_plan(p, d)
        assert np.array_equal(plan.keys[-1] % p, np.tile(np.arange(p), p))
        assert len(plan.groups) == len(grid_sides(p, d))


class TestCostShape:
    def test_startup_drops_with_indirection(self):
        """At alpha-bound workloads every indirect variant beats direct."""
        p = 512
        bufs = [np.zeros((p, 1), dtype=np.int64) for _ in range(p)]
        cnts = [np.ones(p, dtype=np.int64) for _ in range(p)]
        times = {}
        for d in (2, 3):
            m = Machine(p)
            alltoallv_multilevel(Comm(m), bufs, cnts, d=d)
            times[d] = m.elapsed()
        m = Machine(p)
        alltoallv_direct(Comm(m), bufs, cnts)
        times["direct"] = m.elapsed()
        assert times[2] < times["direct"]
        assert times[3] < times["direct"]

    def test_volume_multiplied_by_d(self, rng):
        p = 27
        sendbufs, sendcounts = _random_send(rng, p, max_rows=20)
        m2, m3 = Machine(p), Machine(p)
        alltoallv_multilevel(Comm(m2), sendbufs, sendcounts, d=2)
        alltoallv_multilevel(Comm(m3), sendbufs, sendcounts, d=3)
        # d hops -> roughly d x the single-hop volume (virtual-PE snapping
        # can shorten some routes, so allow slack).
        assert m3.bytes_communicated > m2.bytes_communicated


@pytest.fixture
def rng():
    return np.random.default_rng(119)
