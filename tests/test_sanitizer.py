"""Adversarial tests for the runtime sanitizer (repro.simmpi.sanitizer).

Every test seeds a deliberate violation of one of DESIGN.md's invariants --
in-place writes to a resident edge block, skipped collective charges,
non-monotone clocks, unsorted redistribute output -- and asserts it is
reported with the right PE / operation.  Machines are created with
``sanitize=True`` explicitly so the suite stays meaningful under
``--simsan=off``; invariant 2 is ``DistGraph``'s own lock and is tested
both ways.
"""

import numpy as np
import pytest

from repro.core import (
    BoruvkaConfig,
    FilterConfig,
    MSTRun,
    contract_components,
    distributed_boruvka,
    distributed_filter_boruvka,
    exchange_labels,
    min_edges,
    relabel,
)
from repro.core.redistribute import redistribute
from repro.dgraph import DistGraph, Edges
from repro.kernels import segmented
from repro.simmpi import (
    Comm,
    CostAccountingViolation,
    Machine,
    SortednessViolation,
)

from helpers import parts_of, random_simple_graph


@pytest.fixture
def rng():
    return np.random.default_rng(149)


def make_graph(rng, p=5, n=50, m=250):
    machine = Machine(p, sanitize=True)
    g = random_simple_graph(rng, n, m)
    return machine, DistGraph.from_global_edges(machine, g)


class TestOwnership:
    """Invariant 2: a graph's resident block is never written in place.
    ``DistGraph`` locks its block itself, with or without simsan."""

    @pytest.mark.parametrize("sanitize", [True, False])
    def test_block_is_read_only(self, rng, sanitize):
        g = random_simple_graph(rng, 50, 250)
        machine = Machine(4, sanitize=sanitize)
        dg = DistGraph.from_global_edges(machine, g)
        before = dg.edges.copy()
        with pytest.raises(ValueError, match="read-only"):
            dg.edges.u[0] = 99
        with pytest.raises(ValueError, match="read-only"):
            np.add(dg.edges.w, 1, out=dg.edges.w)
        for col in ("u", "v", "w", "id"):
            assert np.array_equal(getattr(dg.edges, col),
                                  getattr(before, col))
        # What a stage derives from the block is its own, and so is the
        # caller's input (``from_global_edges`` copies it).
        taken = dg.edges.take(np.arange(0, len(g), 3))
        taken.u[0] = 99
        np.add(taken.w, 1, out=taken.w)
        g.u[0] = 99
        np.add(g.w, 1, out=g.w)
        machine.checkpoint("noop")

    def test_rejected_block_stays_writable(self):
        e = Edges(np.array([1, 0]), np.array([0, 1]), np.array([1, 1]))
        with pytest.raises(ValueError, match="not lexicographically sorted"):
            DistGraph(Machine(1), e, [0, 2])
        e.u[0] = 0

    def test_raw_escape_blocked_by_readonly_flag(self, rng):
        """A view of the block, however it is taken, is read-only too."""
        machine, dg = make_graph(rng)
        with pytest.raises(ValueError, match="read-only"):
            parts_of(dg)[1].u.view(np.ndarray)[0] = 5

    def test_reads_are_always_allowed(self, rng):
        machine, dg = make_graph(rng)
        total = sum(int(p.w.sum()) for p in parts_of(dg))
        assert total > 0


class TestCostAccounting:
    def test_negative_charge_rejected(self):
        m = Machine(4, sanitize=True)
        with pytest.raises(CostAccountingViolation, match="negative"):
            m.charge(-1.0)

    def test_negative_vector_charge_rejected(self):
        m = Machine(4, sanitize=True)
        with pytest.raises(CostAccountingViolation):
            m.charge(np.array([1e-6, -1e-9, 1e-6, 1e-6]))

    def test_collective_must_charge_all_participants(self):
        m = Machine(5, sanitize=True)
        comm = Comm(m)
        cost = np.full(5, 1e-6)
        cost[2] = 0.0
        with pytest.raises(CostAccountingViolation) as exc:
            comm._sync_and_charge(cost)
        assert "2" in str(exc.value)

    def test_collective_cost_vector_length_checked(self):
        m = Machine(5, sanitize=True)
        with pytest.raises(CostAccountingViolation, match="participants"):
            Comm(m)._sync_and_charge(np.full(3, 1e-6))

    def test_clock_rollback_detected_at_checkpoint(self):
        m = Machine(3, sanitize=True)
        Comm(m).barrier()  # advances the sanitizer's clock floor
        m.clock[1] -= 1.0  # direct tampering bypasses charge()
        with pytest.raises(CostAccountingViolation, match="backwards"):
            m.checkpoint("tampered")

    def test_clock_rollback_detected_at_next_collective(self):
        m = Machine(3, sanitize=True)
        comm = Comm(m)
        comm.barrier()
        m.clock[0] -= 0.5
        with pytest.raises(CostAccountingViolation, match="backwards"):
            comm.barrier()

    def test_unaccounted_bytes_detected(self):
        m = Machine(4, sanitize=True)
        m.bytes_communicated += 1e6  # moved data without tracing it
        with pytest.raises(CostAccountingViolation, match="inconsistent"):
            Comm(m).barrier()

    def test_two_level_volume_bound(self):
        m = Machine(16, sanitize=True)
        san = m.sanitizer
        san.check_two_level(16, 100, [100, 100], [4, 4])  # exactly 2x: fine
        with pytest.raises(CostAccountingViolation, match="2x"):
            san.check_two_level(16, 100, [150, 151], [4, 4])

    def test_two_level_group_bound(self):
        m = Machine(16, sanitize=True)
        with pytest.raises(CostAccountingViolation, match="sqrt"):
            m.sanitizer.check_two_level(16, 10, [10, 10], [4, 7])

    def test_multilevel_bounds(self):
        m = Machine(27, sanitize=True)
        san = m.sanitizer
        san.check_multilevel(27, 3, 50, [50, 50, 50], [3, 3, 3])
        with pytest.raises(CostAccountingViolation, match="3x"):
            san.check_multilevel(27, 3, 50, [51, 50, 50], [3, 3, 3])
        with pytest.raises(CostAccountingViolation):
            san.check_multilevel(27, 3, 50, [50, 50, 50], [9, 3, 3])

    def test_hop_conservation(self):
        san = Machine(4, sanitize=True).sanitizer
        dst = np.broadcast_to(np.arange(4), (4, 4))
        h1 = np.array([[1, 2, 0, 0], [0, 3, 0, 0], [0, 0, 0, 4],
                       [0, 0, 0, 0]])
        h2 = np.array([[0, 1, 0, 0], [2, 0, 3, 0], [0, 0, 0, 0],
                       [0, 0, 4, 0]])
        san.check_hops(10, [h1, h2], dst)
        assert san.counters["hop_checks"] == 1
        with pytest.raises(CostAccountingViolation, match="exactly once"):
            san.check_hops(11, [h1, h2], dst)
        with pytest.raises(CostAccountingViolation, match="did not hold"):
            san.check_hops(10, [h1, h2.T.copy()], dst)

    def test_corrupted_hop_table_detected(self, rng, monkeypatch):
        """A routing table that strands a cell away from its destination
        is caught when an exchange is charged from it."""
        from repro.simmpi import alltoall

        p = 9
        good = alltoall._grid_plan(p)
        last = good.keys[-1].copy()
        # Cell (2 -> 5) is left at its intermediate's neighbour instead.
        last[2 * p + 5] = last[2 * p + 5] - 5 + 6
        bad = good._replace(keys=good.keys[:-1] + (last,))
        monkeypatch.setattr(alltoall, "_grid_plan", lambda size: bad)
        bufs = [rng.integers(0, 100, (p, 2)) for _ in range(p)]
        counts = [np.ones(p, dtype=np.int64) for _ in range(p)]
        with pytest.raises(CostAccountingViolation, match="destination"):
            alltoall.alltoallv_grid(Comm(Machine(p, sanitize=True)), bufs,
                                    counts)

    def test_sort_level_conservation(self):
        san = Machine(4, sanitize=True).sanitizer
        left = np.array([[1, 2], [0, 3]])
        right = np.array([[0, 4], [5, 0]])
        sent, received = np.array([3, 3, 4, 5]), np.array([1, 5, 5, 4])
        san.check_sort_level([0, 2], [left, right], sent, received)
        assert san.counters["sort_level_checks"] == 1
        with pytest.raises(CostAccountingViolation, match="crossed"):
            san.check_sort_level([0, 2], [left, right], sent,
                                 np.array([1, 4, 6, 4]))

    def test_sort_level_crossing_a_group_boundary_detected(self, rng,
                                                           monkeypatch):
        """The hypercube sorter moves a whole level at once and charges each
        sub-communicator from its own count matrix: a row sent outside its
        sub-communicator would be moved for free."""
        from repro.sorting import hypercube

        p = 4
        honest = hypercube._destinations
        levels = []

        def lying(*args):
            dest = honest(*args)
            levels.append(len(levels))
            if len(levels) == 2:  # sub-communicators [0, 2) and [2, 4)
                dest[0] = p - 1   # PE 0's first row leaves [0, 2)
            return dest

        monkeypatch.setattr(hypercube, "_destinations", lying)
        parts = [rng.integers(0, 1000, (10, 2)) for _ in range(p)]
        with pytest.raises(CostAccountingViolation, match="crossed"):
            hypercube.sort_hypercube(Comm(Machine(p, sanitize=True)), parts, 1)

    def test_grid_alltoall_passes_its_own_bounds(self, rng):
        """A real grid exchange satisfies the 2x / O(sqrt p) assertions."""
        from repro.simmpi import alltoallv_grid

        m = Machine(10, sanitize=True)
        comm = Comm(m)
        bufs = [rng.integers(0, 100, (10, 2)) for _ in range(10)]
        counts = [np.full(10, 1, dtype=np.int64) for _ in range(10)]
        alltoallv_grid(comm, bufs, counts)
        assert m.sanitizer.counters["alltoall_bounds"] == 1


class TestSortedness:
    def test_unsorted_redistribute_output_detected(self, rng, monkeypatch):
        """A broken distributed sorter must be caught at the rebuild."""
        import sys

        mod = sys.modules["repro.core.redistribute"]
        real = mod.sort_rows

        def broken(comm, mats, **kwargs):
            return list(reversed(real(comm, mats, **kwargs)))

        monkeypatch.setattr(mod, "sort_rows", broken)
        machine, dg = make_graph(rng)
        run = MSTRun(machine, BoruvkaConfig())
        with pytest.raises(SortednessViolation):
            redistribute(run, machine, dg.edges, dg.offsets)

    def test_locally_unsorted_part_detected(self, rng):
        machine = Machine(2, sanitize=True)
        good = Edges(np.array([0, 1]), np.array([1, 0]),
                     np.array([5, 5]), np.array([0, 1]))
        bad = Edges(np.array([3, 2]), np.array([2, 3]),
                    np.array([4, 4]), np.array([2, 3]))
        dg = DistGraph.from_parts(machine, [good, bad], check=False)
        with pytest.raises(SortednessViolation, match="PE 1"):
            machine.sanitizer.check_redistributed(dg)

    def test_min_lex_disagreement_detected(self, rng):
        machine, dg = make_graph(rng)
        dg.min_keys[0][2] += 1  # corrupt the replicated metadata
        with pytest.raises(SortednessViolation, match="min-lex"):
            machine.sanitizer.check_redistributed(dg)

    def test_part_size_disagreement_detected(self, rng):
        machine, dg = make_graph(rng)
        dg.part_sizes[1] += 3
        with pytest.raises(SortednessViolation, match="size"):
            machine.sanitizer.check_redistributed(dg)

    def test_clean_graph_passes(self, rng):
        machine, dg = make_graph(rng)
        machine.sanitizer.check_redistributed(dg)


class TestAlgorithmLevelDetection:
    """Failure injection through the algorithm stack (formerly the ad-hoc
    spot checks in test_invariants.py): a stage's output is corrupted
    before the next stage reads it, and the *algorithms* must detect it."""

    #: Both arms of the lookup kernels must report a miss: the density
    #: guard forced to the direct-address table, then to the search.
    LOOKUP_ARMS = {"table": 1 << 40, "search": 0}

    def test_corrupt_ghost_table_detected(self, rng, monkeypatch):
        """A ghost vertex whose label never arrived must raise, not corrupt."""
        g = random_simple_graph(rng, 50, 250)
        machine = Machine(5, sanitize=True)
        dg = DistGraph.from_global_edges(machine, g)
        run = MSTRun(machine, BoruvkaConfig())
        chosen = min_edges(dg)
        labels = contract_components(dg, chosen, run)
        state = (dg, chosen.vids, labels, chosen.voff)
        push = exchange_labels(*state, run)
        vids = [chosen.vids[a:b] for a, b in zip(chosen.voff[:-1],
                                                 chosen.voff[1:])]
        # Drop every copy of one pushed (home, vertex) that the home's part
        # references and does not hold as a local vertex.
        parts = parts_of(dg)
        dropped = next(
            ((int(h), int(x)) for h, x in zip(push.home, push.vertex)
             if x in parts[h].v and x not in vids[h]), None)
        if dropped is None:
            pytest.skip("no pushed ghost is referenced by its home")
        keep = (push.home != dropped[0]) | (push.vertex != dropped[1])
        broken = push._replace(home=push.home[keep],
                               vertex=push.vertex[keep],
                               label=push.label[keep])
        for cells in self.LOOKUP_ARMS.values():
            monkeypatch.setattr(segmented, "LOOKUP_CELLS_PER_ELEMENT", cells)
            with pytest.raises(RuntimeError,
                               match=rf"ghost labels missing for vertices "
                                     rf"\[{dropped[1]}[ \]]"):
                relabel(*state, broken, run)
        relabel(*state, push, run)  # intact, it passes

    def test_query_for_unknown_vertex_detected(self, rng, monkeypatch):
        """Pointer doubling queries for non-resident vertices must raise."""
        g = random_simple_graph(rng, 50, 250)
        for cells in self.LOOKUP_ARMS.values():
            monkeypatch.setattr(segmented, "LOOKUP_CELLS_PER_ELEMENT", cells)
            machine = Machine(5, sanitize=True)
            dg = DistGraph.from_global_edges(machine, g)
            run = MSTRun(machine, BoruvkaConfig())
            chosen = min_edges(dg)
            k = int(np.flatnonzero(~chosen.shared)[0])
            # A bogus pick for a non-shared vertex: the algorithm itself
            # must catch the query it leads to.
            chosen.to[k] = 10 ** 9
            with pytest.raises(RuntimeError,
                               match="pointer-doubling query for "
                                     "non-resident vertex"):
                contract_components(dg, chosen, run)

    def test_foreign_vertex_lists_detected(self, rng):
        """Labels are read off the parts' own vertex groups: lists of any
        other shape must raise, not shift every label behind them."""
        g = random_simple_graph(rng, 50, 250)
        machine = Machine(5, sanitize=True)
        dg = DistGraph.from_global_edges(machine, g)
        run = MSTRun(machine, BoruvkaConfig())
        chosen = min_edges(dg)
        labels = contract_components(dg, chosen, run)
        vids, voff = chosen.vids, chosen.voff
        tables = exchange_labels(dg, vids, labels, voff, run)
        # PE 2's vertex list loses its first entry.
        cut = np.delete(np.arange(len(vids)), voff[2])
        short = voff - (np.arange(len(voff)) > 2)
        with pytest.raises(ValueError, match=r"vids_per_pe\[2\] is not part "
                                             r"2's vertex groups"):
            exchange_labels(dg, vids[cut], labels[cut], short, run)
        with pytest.raises(ValueError, match=r"vids_per_pe\[2\]"):
            relabel(dg, vids[cut], labels[cut], short, tables, run)


class TestCleanRunsAndKnobs:
    def test_full_runs_clean_under_sanitizer(self, rng):
        g = random_simple_graph(rng, 80, 400)
        for algo, cfg in ((distributed_boruvka, BoruvkaConfig(base_case_min=16)),
                          (distributed_filter_boruvka, FilterConfig())):
            machine = Machine(6, sanitize=True)
            dg = DistGraph.from_global_edges(machine, g)
            algo(dg, cfg)
            counters = machine.sanitizer.counters
            assert counters["collectives"] > 0
            assert counters["charges"] > 0

    def test_env_var_controls_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMSAN", "0")
        assert Machine(2).sanitizer is None
        monkeypatch.setenv("REPRO_SIMSAN", "1")
        assert Machine(2).sanitizer is not None
        # Explicit argument beats the environment in both directions.
        assert Machine(2, sanitize=False).sanitizer is None
        monkeypatch.setenv("REPRO_SIMSAN", "0")
        assert Machine(2, sanitize=True).sanitizer is not None

    def test_off_by_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIMSAN", raising=False)
        assert Machine(2).sanitizer is None
        assert not Machine(2).sanitizing

    def test_reset_clears_sanitizer_state(self, rng):
        machine, dg = make_graph(rng)
        distributed_boruvka(dg, BoruvkaConfig(base_case_min=16))
        assert machine.sanitizer._traced_bytes > 0
        machine.reset()
        assert machine.sanitizer._traced_bytes == 0
        assert machine.sanitizer.comm_matrix.sum() == 0
        Comm(machine).barrier()  # bytes/trace consistency holds post-reset
