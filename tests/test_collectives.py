"""Unit tests for the SPMD collectives (repro.simmpi.collectives)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.simmpi import Comm, Machine


@pytest.fixture
def comm():
    return Comm(Machine(4))


class TestConstruction:
    def test_world_covers_all(self):
        m = Machine(6)
        assert Comm(m).size == 6

    def test_subset(self):
        m = Machine(6)
        c = Comm(m, [1, 3, 5])
        assert c.size == 3

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ValueError):
            Comm(Machine(4), [0, 0, 1])

    def test_sub_of_sub(self):
        m = Machine(8)
        c = Comm(m, [0, 2, 4, 6]).sub([1, 3])
        assert list(c.ranks) == [2, 6]


class TestBcastReduce:
    def test_bcast_returns_value(self, comm):
        assert comm.bcast(17) == 17

    def test_allreduce_sum(self, comm):
        assert comm.allreduce([1, 2, 3, 4]) == 10

    def test_allreduce_min_max(self, comm):
        assert comm.allreduce([5, 2, 9, 4], op="min") == 2
        assert comm.allreduce([5, 2, 9, 4], op="max") == 9

    def test_allreduce_vector(self, comm):
        arrays = [np.array([i, 10 - i]) for i in range(4)]
        out = comm.allreduce(arrays, op="min")
        assert list(out) == [0, 7]

    def test_allreduce_does_not_mutate_inputs(self, comm):
        arrays = [np.array([1.0]), np.array([2.0]),
                  np.array([3.0]), np.array([4.0])]
        comm.allreduce(arrays)
        assert arrays[0][0] == 1.0

    def test_allreduce_custom_op(self, comm):
        out = comm.allreduce([(1, 9), (0, 3), (2, 2), (0, 5)],
                             op=lambda a, b: min(a, b))
        assert out == (0, 3)

    def test_wrong_arity_rejected(self, comm):
        with pytest.raises(ValueError):
            comm.allreduce([1, 2, 3])

    def test_unknown_op_rejected(self, comm):
        with pytest.raises(ValueError):
            comm.allreduce([1, 2, 3, 4], op="median")

    def test_reduce_matches_allreduce(self, comm):
        assert comm.reduce([1, 2, 3, 4]) == 10


_I64 = np.iinfo(np.int64)


def _allreduce(values, op="sum"):
    """``values`` reduced on a world communicator of ``len(values)`` PEs."""
    with Machine(len(values)) as machine:
        return Comm(machine).allreduce(values, op=op)


def _loop_fold(values, op):
    """The rank-by-rank fold every non-integer reduction still takes."""
    fn = {"sum": np.add, "min": np.minimum, "max": np.maximum}[op]
    acc = values[0]
    for v in values[1:]:
        acc = fn(acc, v)
    return acc


_int64s = st.one_of(st.integers(int(_I64.min), int(_I64.max)),
                    st.sampled_from([int(_I64.min), int(_I64.max), -1, 0, 1]))


class TestReduceFastPath:
    """A list of Python ints folds in one int64 ``ufunc.reduce``; the
    result's type and value are the loop's."""

    @given(values=st.lists(_int64s, min_size=1, max_size=70),
           op=st.sampled_from(["sum", "min", "max"]))
    def test_int_lists_match_the_loop(self, values, op):
        with np.errstate(over="ignore"):
            want = _loop_fold(values, op)
            got = _allreduce(values, op)
        assert type(got) is type(want)
        assert got == want

    @given(values=st.lists(st.one_of(_int64s, st.booleans(),
                                     st.floats(-1e6, 1e6),
                                     _int64s.map(np.int64)),
                           min_size=1, max_size=9),
           op=st.sampled_from(["sum", "min", "max"]))
    def test_mixed_lists_match_the_loop(self, values, op):
        with np.errstate(over="ignore"):
            want = _loop_fold(values, op)
            got = _allreduce(values, op)
        assert type(got) is type(want)
        assert got == want

    def test_single_rank_returns_its_value(self):
        assert type(_allreduce([7])) is int

    def test_extremes_wrap_like_the_loop(self):
        values = [int(_I64.max), 1, int(_I64.max)]
        with np.errstate(over="ignore"):
            want = _loop_fold(values, "sum")
        assert _allreduce(values) == want == np.int64(-1)

    @pytest.mark.parametrize("big", [int(_I64.max) + 1, int(_I64.min) - 1])
    def test_past_int64_raises_like_the_loop(self, big):
        with pytest.raises(OverflowError):
            _loop_fold([1, big], "sum")
        with pytest.raises(OverflowError):
            _allreduce([1, big])


class TestPrefix:
    def test_exscan_sum(self, comm):
        assert comm.exscan([1, 2, 3, 4]) == [0, 1, 3, 6]

    def test_scan_sum(self, comm):
        assert comm.scan([1, 2, 3, 4]) == [1, 3, 6, 10]

    def test_exscan_max(self, comm):
        out = comm.exscan([3, 1, 5, 2], op="max")
        assert out[1:] == [3, 3, 5]
        assert out[0] is None


class TestGather:
    def test_allgather(self, comm):
        assert comm.allgather(["a", "b", "c", "d"]) == ["a", "b", "c", "d"]

    def test_allgatherv_concatenates(self, comm):
        parts = [np.arange(i) for i in range(4)]
        out = comm.allgatherv(parts)
        assert list(out) == [0, 0, 1, 0, 1, 2]

    def test_gatherv(self, comm):
        parts = [np.full(2, i) for i in range(4)]
        assert len(comm.gatherv(parts)) == 8


class TestCostAccounting:
    def test_collectives_advance_clocks(self):
        m = Machine(4)
        c = Comm(m)
        c.allreduce([1, 2, 3, 4])
        assert m.elapsed() > 0

    def test_collective_synchronises(self):
        m = Machine(4)
        m.charge(np.array([0.0, 9.0, 0.0, 0.0]))
        Comm(m).barrier()
        assert (m.clock >= 9.0).all()

    def test_subgroup_leaves_others_untouched(self):
        m = Machine(4)
        Comm(m, [0, 1]).allreduce([1, 2])
        assert m.clock[2] == 0.0 and m.clock[3] == 0.0

    def test_larger_payload_costs_more(self):
        m1, m2 = Machine(4), Machine(4)
        Comm(m1).allreduce([np.zeros(10)] * 4)
        Comm(m2).allreduce([np.zeros(100_000)] * 4)
        assert m2.elapsed() > m1.elapsed()

    def test_collective_counter(self):
        m = Machine(4)
        c = Comm(m)
        c.allreduce([1, 2, 3, 4])
        c.barrier()
        assert m.n_collectives == 2
