"""Properties of the many-PE primitives: the batched per-PE streams against
numpy's ``Generator``, the pure half of ``account`` against ``account``, the
base case's one-call row minimum against its pairwise fold, and the
coverage kernel against ``np.isin``."""

import numpy as np
import pytest

from repro.core.base_case import INF, _row_min
from repro.kernels import order_key, segmented
from repro.kernels.segmented import segmented_isin
from repro.simmpi import Comm, Machine
from repro.simmpi import alltoall
from repro.simmpi.alltoall import exchange_charges

import _loop_reference as oracle

HIGHS = (1, 2, 3, 1000, (1 << 31) + 1, 1 << 32)


def _generators(seed):
    cache = {}

    def gen(pe):
        if pe not in cache:
            cache[pe] = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(pe,)))
        return cache[pe]
    return gen


class TestBatchedStreams:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_equal_to_generator(self, seed):
        """Random rank subsets, ``high`` from 1 (no draw) over 2^31 + 1
        (about half the Lemire words rejected) to 2^32 (raw words), sizes
        1-16 with odd counts, so the buffered half word crosses calls."""
        p = 23
        rng = np.random.default_rng(seed)
        machine = Machine(p, seed=seed)
        gen = _generators(seed)
        for _ in range(120):
            ranks = rng.permutation(p)[:int(rng.integers(1, p + 1))]
            high = rng.choice(HIGHS, len(ranks))
            size = rng.integers(1, 17, len(ranks))
            got = machine.pe_integers(ranks, high, size)
            want = np.concatenate([gen(r).integers(0, h, s)
                                   for r, h, s in zip(ranks, high, size)])
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)
            snap = machine.rng_snapshot()
            assert list(snap) == list(dict.fromkeys(snap))
            for pe, state in snap.items():
                assert state == gen(pe).bit_generator.state

    def test_snapshot_lists_handed_out_streams_in_first_use_order(self):
        machine = Machine(8, seed=2)
        machine.pe_integers([5, 2], [1, 9], [1, 3])  # PE 5 draws nothing
        assert list(machine.rng_snapshot()) == [5, 2]
        machine.pe_integers([2, 7, 0], [4, 4, 4], [0, 2, 0])
        assert list(machine.rng_snapshot()) == [5, 2, 7]

    def test_snapshot_restore_and_reset_round_trip(self):
        machine = Machine(6, seed=4)
        machine.pe_integers([1, 3], [100, (1 << 31) + 1], [3, 5])
        snap = machine.rng_snapshot()
        first = machine.pe_integers([1, 3, 4], [7, 7, 7], [9, 9, 9])
        machine.rng_restore(snap)
        assert machine.rng_snapshot() == snap
        assert np.array_equal(machine.pe_integers([1, 3, 4], [7, 7, 7],
                                                  [9, 9, 9]), first)
        machine.reset()
        assert machine.rng_snapshot() == {}
        fresh = Machine(6, seed=4)
        assert np.array_equal(machine.pe_integers([3], [50], [4]),
                              fresh.pe_integers([3], [50], [4]))

    def test_64_bit_bounds_refused(self):
        with pytest.raises(ValueError, match="PE 3"):
            Machine(4).pe_integers([0, 3], [5, (1 << 32) + 1], [1, 1])

    def test_oracle_draws_share_the_stream(self):
        """A site drawing through a numpy ``Generator`` (the oracles) and
        one drawing batched continue one stream per PE."""
        a, b = Machine(5, seed=9), Machine(5, seed=9)
        for machine, first in ((a, True), (b, False)):
            for turn in range(4):
                if first == (turn % 2 == 0):
                    machine.pe_integers([1, 4], [30, 31], [3, 2])
                else:
                    for pe, h, s in ((1, 30, 3), (4, 31, 2)):
                        oracle.generator_integers(machine, pe, h, s)
        assert a.rng_snapshot() == b.rng_snapshot()


def _account_hops(p, method, template, counts):
    """The hops ``account`` charges: ``(op, group, cost, out, in, held)``."""
    seen = []

    def spy(comm, *charge):
        seen.append(charge[:6])

    original = alltoall._charge_hop
    alltoall._charge_hop = spy
    try:
        alltoall.account(Comm(Machine(p, sanitize=False, faults=False)),
                         method, template, counts, None)
    finally:
        alltoall._charge_hop = original
    return seen


def _dense_hops(machine, method, template, counts):
    """The hops from the dense hop matrices ``H_k`` (the weighted bincount
    of the plan keys): what ``account`` charged before it was split."""
    p = len(counts)
    row_bytes = 8 * template.shape[1]
    scheme = alltoall._resolve(method, p, int(counts.sum()), template)
    if scheme == "direct":
        layers = [("alltoallv_direct", p, counts)]
    else:
        plan = alltoall._plan(scheme, p)
        layers = [(op, group, np.bincount(
            key, weights=counts.ravel().astype(np.float64), minlength=p * p
        ).astype(np.int64).reshape(p, p)) for op, group, key in
            zip(plan.ops, plan.groups, plan.keys)]
    cm = machine.cost
    out = []
    for op, group, H in layers:
        wire = H.copy()
        if not group:
            np.fill_diagonal(wire, 0)
        b_out = wire.sum(axis=1).astype(np.float64) * row_bytes
        b_in = wire.sum(axis=0).astype(np.float64) * row_bytes
        cost = (cm.alltoall_dense(group, b_out, b_in, machine.threads)
                if group else cm.c_call + cm.alpha
                + (cm.beta + cm.beta_sw) * (b_out + b_in))
        out.append((op, group, cost, b_out, b_in, H.sum(axis=0)))
    return scheme, out


class TestExchangeCharges:
    # 7 and 10 leave the grid's last row incomplete; 16 is a hypercube.
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 10, 16])
    @pytest.mark.parametrize("method", ["auto", "direct", "grid",
                                        "hypercube"])
    def test_equal_to_account(self, p, method):
        """A stack's charges are each matrix's own, as ``account`` charges
        it, and as the dense hop matrices give them."""
        rng = np.random.default_rng(p)
        machine = Machine(p, sanitize=False, faults=False)
        template = np.empty((0, 3), dtype=np.int64)
        stack = np.stack([
            np.zeros((p, p), dtype=np.int64),
            rng.integers(0, 3, (p, p)) * (rng.random((p, p)) < 0.3),
            rng.integers(0, 40, (p, p)),  # above the auto threshold
            np.diag(np.arange(p)),
        ])
        got = exchange_charges(machine, method, template, stack)
        assert len(got) == len(stack)
        for (scheme, hops), counts in zip(got, stack):
            want_scheme, dense = _dense_hops(machine, method, template,
                                             counts)
            assert scheme == want_scheme
            for want in (_account_hops(p, method, template, counts), dense):
                assert len(hops) == len(want)
                for hop, w in zip(hops, want):
                    assert hop[:2] == w[:2]
                    for a, b in zip(hop[2:], w[2:]):
                        assert np.asarray(a).dtype == np.asarray(b).dtype
                        assert np.array_equal(a, b)


class TestRowMin:
    @pytest.mark.parametrize("p", [1, 2, 5, 64])
    def test_reduce_equals_pairwise_fold(self, p):
        """Tie-heavy tables: three values per column, whole ``INF`` rows
        (no candidate), and full-row ties across PEs."""
        rng = np.random.default_rng(p)
        for n in (0, 1, 7, 40):
            tables = rng.integers(0, 3, (p, n, 5)).astype(np.int64)
            tables[rng.random((p, n)) < 0.3] = INF
            if p > 1 and n:
                tables[1, : n // 2] = tables[0, : n // 2]
            acc = tables[0].copy()
            for t in tables[1:]:
                acc = oracle._row_min(acc, t)
            got = _row_min.reduce(tables)
            assert got.dtype == acc.dtype and np.array_equal(got, acc)
            assert np.array_equal(_row_min(tables[0], tables[-1]),
                                  oracle._row_min(tables[0], tables[-1]))

    def test_comm_takes_the_one_call(self):
        tables = np.random.default_rng(1).integers(0, 2, (4, 6, 5))
        comm = Comm(Machine(4, sanitize=False))
        want = tables[0].copy()
        for t in tables[1:]:
            want = oracle._row_min(want, t)
        assert np.array_equal(comm.allreduce(tables, op=_row_min), want)
        assert comm.allreduce([1, 2, 3, 4]) == 10  # sum keeps its fold


class TestCoverageKernel:
    ARMS = {"bitmap": 1 << 40, "search": 0}

    @pytest.mark.parametrize("arm", ARMS)
    @pytest.mark.parametrize("p", [1, 3, 64])
    def test_equal_to_isin_on_packed_keys(self, p, arm, monkeypatch):
        monkeypatch.setattr(segmented, "LOOKUP_CELLS_PER_ELEMENT",
                            self.ARMS[arm])
        rng = np.random.default_rng(p)
        for h, q, hi in ((0, 5, 9), (40, 0, 9), (50, 200, 30),
                         (300, 300, 1 << 20)):
            values = rng.integers(0, hi, h).astype(np.uint32)
            seg = rng.integers(0, p, h)
            needles = rng.integers(0, hi, q)
            needle_seg = rng.integers(0, p, q)
            # Half the needles are pairs that occur.
            k = min(h, q // 2)
            needles[:k], needle_seg[:k] = values[:k], seg[:k]
            got = segmented_isin(values, seg, needles, needle_seg, p)
            key = order_key((np.concatenate([values, needles]),
                             np.concatenate([seg, needle_seg])))
            assert got.dtype == bool
            assert np.array_equal(got, np.isin(key[h:], key[:h]))
