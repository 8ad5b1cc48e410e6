"""Tests for the public entry point (repro.minimum_spanning_forest)."""

import numpy as np
import pytest

import repro
from repro.core import available_algorithms, minimum_spanning_forest
from repro.dgraph import DistGraph, Edges
from repro.seq import kruskal_msf, verify_msf
from repro.simmpi import Machine

from helpers import random_simple_graph, run_python


class TestRegistry:
    def test_all_algorithms_registered(self):
        assert set(available_algorithms()) == {
            "boruvka", "filter-boruvka", "awerbuch-shiloach", "mnd-mst",
            "dist-kruskal", "dist-prim"}

    def test_unknown_algorithm_rejected(self, rng):
        g = random_simple_graph(rng, 10, 20)
        dg = DistGraph.from_global_edges(Machine(2), g)
        with pytest.raises(ValueError, match="unknown algorithm"):
            minimum_spanning_forest(dg, algorithm="dijkstra")


class TestEntryPoint:
    @pytest.mark.parametrize("alg", ["boruvka", "filter-boruvka",
                                     "awerbuch-shiloach", "mnd-mst"])
    def test_distgraph_input(self, alg, rng):
        n = 40
        g = random_simple_graph(rng, n, 160)
        dg = DistGraph.from_global_edges(Machine(4), g)
        res = minimum_spanning_forest(dg, algorithm=alg)
        verify_msf(res.msf_edges(), g, n, check_edges=False)

    def test_global_edges_input(self, rng):
        n = 30
        g = random_simple_graph(rng, n, 120)
        res = minimum_spanning_forest(g, machine=Machine(4))
        assert res.total_weight == kruskal_msf(g, n).total_weight()

    def test_asymmetric_edges_get_back_edges(self, rng):
        # One direction only: the entry point must symmetrise.
        n = 20
        u = np.arange(n - 1)
        g = Edges(u, u + 1, np.arange(1, n))
        res = minimum_spanning_forest(g, machine=Machine(3))
        assert res.total_weight == int(np.arange(1, n).sum())

    def test_edges_without_machine_rejected(self, rng):
        g = random_simple_graph(rng, 10, 30)
        with pytest.raises(ValueError, match="Machine"):
            minimum_spanning_forest(g)

    def test_top_level_reexport(self, rng):
        assert repro.minimum_spanning_forest is minimum_spanning_forest
        assert repro.Machine is Machine


@pytest.fixture
def rng():
    return np.random.default_rng(113)


class TestImportFootprint:
    """The package runs on numpy alone: scipy is a test-only oracle.

    Each check runs in a fresh interpreter, because this test process has
    usually imported scipy already.
    """

    MODULES = ("import repro, repro.graphgen, repro.analysis, repro.serve, "
               "repro.cli\n")

    @staticmethod
    def _run(code: str) -> str:
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_builds_and_solves_with_scipy_blocked(self):
        out = self._run(
            "import sys\n"
            "sys.modules['scipy'] = None  # any scipy import now fails\n"
            + self.MODULES +
            "from repro import Machine, minimum_spanning_forest\n"
            "from repro.graphgen import gen_rgg2d, gen_rgg3d\n"
            "from repro.seq import msf_weight\n"
            "g2 = gen_rgg2d(600, avg_degree=8, seed=1)\n"
            "g3 = gen_rgg3d(600, avg_degree=8, seed=1)\n"
            "assert g2.n_undirected_edges > 0 and g3.n_undirected_edges > 0\n"
            "res = minimum_spanning_forest(g3.distribute(Machine(4)))\n"
            "assert res.total_weight == msf_weight(g3.edges, g3.n_vertices)\n"
            "print('solved')\n")
        assert out.strip() == "solved"

    def test_importing_the_package_loads_no_scipy(self):
        out = self._run(
            "import sys\n" + self.MODULES +
            "print('scipy' in sys.modules)\n")
        assert out.strip() == "False"
