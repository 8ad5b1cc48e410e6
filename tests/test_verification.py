"""Tests for distributed MSF verification (repro.core.verification)."""

import numpy as np
import pytest

from repro.core import (
    BoruvkaConfig,
    distributed_boruvka,
    minimum_spanning_forest,
    verify_distributed_msf,
)
from repro.dgraph import DistGraph, Edges
from repro.simmpi import Machine

from helpers import random_simple_graph


def _fresh(g, p):
    return DistGraph.from_global_edges(Machine(p), g)


class TestAcceptsCorrectMsf:
    @pytest.mark.parametrize("alg", ["boruvka", "filter-boruvka",
                                     "awerbuch-shiloach", "mnd-mst"])
    def test_every_algorithm_passes(self, alg, rng):
        n = 50
        g = random_simple_graph(rng, n, 250)
        res = minimum_spanning_forest(_fresh(g, 5), algorithm=alg)
        report = verify_distributed_msf(_fresh(g, 5), res.msf_parts)
        assert report.ok, (alg, report)
        assert report.n_forest_edges == len(res.msf_edges())

    def test_disconnected_graph(self, rng):
        a = random_simple_graph(rng, 15, 50)
        b = random_simple_graph(rng, 15, 50)
        g = Edges.concat([a, Edges(b.u + 15, b.v + 15, b.w)]).sort_lex()
        g.id[:] = np.arange(len(g))
        res = distributed_boruvka(_fresh(g, 4),
                                  BoruvkaConfig(base_case_min=8))
        report = verify_distributed_msf(_fresh(g, 4), res.msf_parts)
        assert report.ok
        assert report.n_components >= 2

    def test_empty_msf_of_empty_graph(self):
        machine = Machine(3)
        dg = DistGraph.from_parts(machine, [Edges.empty()] * 3)
        report = verify_distributed_msf(dg, [Edges.empty()] * 3)
        assert report.ok
        assert report.n_forest_edges == 0


class TestRejectsBrokenCandidates:
    def _setup(self, rng, n=40, m=200, p=4):
        g = random_simple_graph(rng, n, m)
        res = distributed_boruvka(_fresh(g, p),
                                  BoruvkaConfig(base_case_min=8))
        return g, res.msf_parts, p

    def test_rejects_cycle(self, rng):
        g, parts, p = self._setup(rng)
        # Duplicate one forest edge onto another PE -> cycle.
        victim = next(i for i in range(p) if len(parts[i]))
        extra = parts[victim].take(np.array([0]))
        parts[(victim + 1) % p] = Edges.concat(
            [parts[(victim + 1) % p], extra])
        report = verify_distributed_msf(_fresh(g, p), parts)
        assert not report.is_forest
        assert not report.ok

    def test_rejects_non_spanning(self, rng):
        g, parts, p = self._setup(rng)
        victim = next(i for i in range(p) if len(parts[i]))
        parts[victim] = parts[victim].take(
            np.arange(1, len(parts[victim])))  # drop one forest edge
        report = verify_distributed_msf(_fresh(g, p), parts)
        assert not report.spans
        assert not report.ok

    def test_rejects_non_minimum(self, rng):
        # Swap a forest edge for a strictly heavier non-forest edge that
        # reconnects the same components.
        n = 30
        g = random_simple_graph(rng, n, 300)
        p = 4
        res = distributed_boruvka(_fresh(g, p),
                                  BoruvkaConfig(base_case_min=8))
        msf = res.msf_edges()
        msf_keys = set(zip(msf.w.tolist(),
                           np.minimum(msf.u, msf.v).tolist(),
                           np.maximum(msf.u, msf.v).tolist()))
        from repro.seq import UnionFind

        # Find a heavier replacement: a non-tree edge (u,v) plus the
        # heaviest tree edge on its cycle to remove.
        from repro.seq.kkt import max_weight_on_paths

        non_tree = [k for k in range(len(g))
                    if (int(g.w[k]), int(min(g.u[k], g.v[k])),
                        int(max(g.u[k], g.v[k]))) not in msf_keys]
        swapped = None
        for k in non_tree:
            path_max = max_weight_on_paths(msf, n,
                                           np.array([g.u[k]]),
                                           np.array([g.v[k]]))[0]
            if g.w[k] > path_max:
                # Remove the heaviest path edge, insert edge k.
                drop = None
                for t in range(len(msf)):
                    if msf.w[t] == path_max:
                        drop = t
                        break
                keep = np.ones(len(msf), dtype=bool)
                keep[drop] = False
                candidate = Edges.concat([
                    msf.take(keep),
                    g.take(np.array([k]))])
                uf = UnionFind(n)
                if uf.union_edges(candidate.u, candidate.v).all():
                    swapped = candidate
                    break
        if swapped is None:
            pytest.skip("no strictly-heavier swap found for this seed")
        # Distribute the bogus forest arbitrarily over PEs.
        parts = [swapped.take(np.arange(i, len(swapped), p))
                 for i in range(p)]
        report = verify_distributed_msf(_fresh(g, p), parts)
        assert report.is_forest and report.spans
        assert not report.is_minimum


@pytest.fixture
def rng():
    return np.random.default_rng(157)


_TRIANGLE_SCRIPT = """
import numpy as np
from repro.dgraph import Edges
from repro.seq import VerificationError, verify_msf

# Triangle 0-1 (1), 1-2 (2), 0-2 (3): the MSF weighs 3.  The spanning tree
# {0-1, 0-2} weighs 4.
u = np.array([0, 1, 1, 2, 0, 2]); v = np.array([1, 0, 2, 1, 2, 0])
w = np.array([1, 1, 2, 2, 3, 3])
graph = Edges(u, v, w)
tree = Edges(np.array([0, 0]), np.array([1, 2]), np.array([1, 3]))
try:
    verify_msf(tree, graph, 3, check_edges=False)
except VerificationError as exc:
    print("raised:", exc)
else:
    print("passed")
"""


class TestVerificationSurvivesOptimize:
    """The check is an explicit raise, not an ``assert``: ``python -O``
    strips asserts and would let a wrong forest through."""

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_non_minimum_tree_rejected(self, flags):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, *flags, "-c", _TRIANGLE_SCRIPT],
                             capture_output=True, text=True, env=env,
                             check=True).stdout
        assert out.strip() == "raised: weight 4 != Kruskal weight 3"

    def test_is_an_assertion_error(self):
        from repro.seq import VerificationError

        assert issubclass(VerificationError, AssertionError)

    def test_cli_exits_one(self, tmp_path, monkeypatch, capsys):
        """``repro mst --verify`` reports a failed check on stderr with exit
        code 1 instead of printing OK or a traceback."""
        from repro.cli import main
        from repro.seq import verify as verify_mod

        path = tmp_path / "g.npz"
        assert main(["gen", "--family", "GNM", "-n", "64", "-m", "256",
                     "-o", str(path)]) == 0
        real = verify_mod.kruskal_msf

        def heavier(graph, n):
            ref = real(graph, n)
            return Edges(ref.u, ref.v, ref.w + 1, ref.id)

        monkeypatch.setattr(verify_mod, "kruskal_msf", heavier)
        capsys.readouterr()
        assert main(["mst", str(path), "--procs", "4", "--verify"]) == 1
        cap = capsys.readouterr()
        assert "verification    : OK" not in cap.out
        assert cap.err.startswith("repro mst: verification failed: weight ")
