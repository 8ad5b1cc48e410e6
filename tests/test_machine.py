"""Unit tests for the simulated machine (repro.simmpi.machine)."""

import numpy as np
import pytest

from repro.simmpi import CostModel, Machine, SimulatedOutOfMemory


class TestConstruction:
    def test_cores(self):
        assert Machine(8, threads=6).cores == 48

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Machine(0)
        with pytest.raises(ValueError):
            Machine(4, threads=0)

    def test_clocks_start_at_zero(self):
        m = Machine(5)
        assert m.elapsed() == 0.0
        assert np.array_equal(m.clock, np.zeros(5))


class TestCharging:
    def test_scalar_charge_hits_all(self):
        m = Machine(4)
        m.charge(1.5)
        assert np.array_equal(m.clock, np.full(4, 1.5))

    def test_vector_charge(self):
        m = Machine(3)
        m.charge(np.array([1.0, 2.0, 3.0]))
        assert m.elapsed() == 3.0

    def test_rank_subset_charge(self):
        m = Machine(4)
        m.charge(2.0, ranks=np.array([1, 3]))
        assert list(m.clock) == [0.0, 2.0, 0.0, 2.0]

    def test_charge_scan_uses_threads(self):
        m1 = Machine(1, threads=1)
        m8 = Machine(1, threads=8)
        m1.charge_scan(np.array([10_000]))
        m8.charge_scan(np.array([10_000]))
        assert m8.elapsed() < m1.elapsed()

    def test_charge_sort_superlinear(self):
        m = Machine(2)
        m.charge_sort(np.array([1024, 2048]))
        assert m.clock[1] > 2 * m.clock[0]

    def test_barrier_synchronises(self):
        m = Machine(3)
        m.charge(np.array([1.0, 5.0, 2.0]))
        m.barrier()
        assert (m.clock >= 5.0).all()
        assert np.allclose(m.clock, m.clock[0])

    def test_reset(self):
        m = Machine(2)
        m.charge(1.0)
        with m.phase("x"):
            m.charge(1.0)
        m.reset()
        assert m.elapsed() == 0.0
        assert m.phase_times == {}


class TestPhases:
    def test_simple_phase_accumulates(self):
        m = Machine(2)
        with m.phase("work"):
            m.charge(np.array([1.0, 3.0]))
        assert m.phase_times["work"] == pytest.approx(3.0)

    def test_phase_accumulates_across_blocks(self):
        m = Machine(1)
        for _ in range(3):
            with m.phase("w"):
                m.charge(1.0)
        assert m.phase_times["w"] == pytest.approx(3.0)

    def test_nested_phase_is_exclusive(self):
        m = Machine(1)
        with m.phase("outer"):
            m.charge(1.0)
            with m.phase("inner"):
                m.charge(5.0)
            m.charge(2.0)
        assert m.phase_times["inner"] == pytest.approx(5.0)
        assert m.phase_times["outer"] == pytest.approx(3.0)

    def test_untimed_work_not_attributed(self):
        m = Machine(1)
        m.charge(7.0)
        with m.phase("a"):
            m.charge(1.0)
        assert m.phase_times["a"] == pytest.approx(1.0)


class TestMemory:
    def test_disabled_by_default(self):
        Machine(2).check_memory(1e18)  # no limit, no raise

    def test_limit_enforced(self):
        m = Machine(2, memory_limit_bytes=1000)
        m.check_memory(999)
        with pytest.raises(SimulatedOutOfMemory) as exc:
            m.check_memory(np.array([10.0, 2000.0]))
        assert exc.value.pe == 1
        assert exc.value.requested_bytes == 2000.0


class TestRng:
    def test_reset_restores_rng_streams(self):
        """reset() must rewind the per-PE RNGs, not leave them advanced."""
        m = Machine(3, seed=7)
        a = m.pe_integers([1], [1 << 30], [16])
        m.pe_integers([2], [1 << 30], [4])
        m.reset()
        b = m.pe_integers([1], [1 << 30], [16])
        assert np.array_equal(a, b)

    def test_reset_reproduces_randomised_run_bit_for_bit(self):
        """A reset machine reruns pivot-sampling algorithms identically."""
        from repro.core import distributed_filter_boruvka
        from repro.dgraph import DistGraph
        from repro.graphgen import gen_family

        g = gen_family("GNM", 120, 500, seed=9)
        m = Machine(5, seed=3)
        results = []
        for _ in range(2):
            res = distributed_filter_boruvka(g.distribute(m))
            results.append((res.total_weight, res.elapsed,
                            res.msf_edges().canonical_triples()))
            m.reset()
        assert results[0][0] == results[1][0]
        assert results[0][1] == pytest.approx(results[1][1], rel=0, abs=0)
        assert np.array_equal(results[0][2], results[1][2])

    def test_per_pe_streams_differ(self):
        m = Machine(3)
        a = m.pe_integers([0], [1 << 30], [10])
        b = m.pe_integers([1], [1 << 30], [10])
        assert not np.array_equal(a, b)

    def test_deterministic_across_machines(self):
        a = Machine(2, seed=42).pe_integers([1], [1 << 30], [10])
        b = Machine(2, seed=42).pe_integers([1], [1 << 30], [10])
        assert np.array_equal(a, b)

    def test_seed_changes_streams(self):
        a = Machine(2, seed=1).pe_integers([0], [1 << 30], [10])
        b = Machine(2, seed=2).pe_integers([0], [1 << 30], [10])
        assert not np.array_equal(a, b)
