"""Shared graph builders and the engine-differential harness."""

from __future__ import annotations

import numpy as np

from repro.dgraph import DistGraph
from repro.dgraph.edges import Edges
from repro.kernels import ENGINE_NAMES
from repro.simmpi import Machine


def random_simple_graph(rng: np.random.Generator, n: int, target_m: int,
                        weight_high: int = 255) -> Edges:
    """A random simple undirected graph as a symmetric sorted edge sequence.

    Pairs are deduplicated; weights are uniform integers in
    ``[1, weight_high)``; directed-edge ids are final sorted positions
    (the generator/`from_global_edges` contract).
    """
    u = rng.integers(0, n, target_m)
    v = rng.integers(0, n, target_m)
    keep = u != v
    u, v = u[keep], v[keep]
    cu = np.minimum(u, v)
    cv = np.maximum(u, v)
    code = np.unique(cu * n + cv)
    cu, cv = code // n, code % n
    w = rng.integers(1, weight_high, len(cu))
    sym = Edges(
        np.concatenate([cu, cv]),
        np.concatenate([cv, cu]),
        np.concatenate([w, w]),
    ).sort_lex()
    sym.id[:] = np.arange(len(sym))
    return sym


def random_distinct_weight_graph(rng: np.random.Generator, n: int,
                                 target_m: int) -> Edges:
    """Like :func:`random_simple_graph` but with all-distinct weights."""
    g = random_simple_graph(rng, n, target_m, weight_high=2)
    # Overwrite with a permutation assigned per undirected pair.
    cu = np.minimum(g.u, g.v)
    cv = np.maximum(g.u, g.v)
    code = cu * n + cv
    uniq, inverse = np.unique(code, return_inverse=True)
    perm = rng.permutation(len(uniq)).astype(np.int64) + 1
    g.w[:] = perm[inverse]
    return g


def run_with_engine(engine, graph, p, algo, cfg, threads=1):
    """One sanitized, traced run on ``engine``; everything simulated.

    ``graph`` is a ``GeneratedGraph`` or a raw symmetric ``Edges``.
    """
    with Machine(p, threads=threads, sanitize=True, trace=True,
                 engine=engine) as machine:
        if hasattr(graph, "distribute"):
            dg = graph.distribute(machine)
        else:
            dg = DistGraph.from_global_edges(machine, graph)
        result = algo(dg, cfg)
        return {
            "weight": result.total_weight,
            "clock": machine.clock.copy(),
            "phases": dict(machine.phase_times),
            "phases_per_pe": {k: v.copy()
                              for k, v in machine.phase_times_per_pe.items()},
            "trace": machine.trace.matrix.copy(),
        }


def assert_engines_agree(graph, p, algo, cfg, threads=1):
    """The hard invariant of docs/kernels.md: both engines, bit-identical.

    MSF weight, per-PE clocks, phase times (max and per PE) and the
    CommTrace matrix are compared with ``np.array_equal`` -- no tolerance.
    """
    out = {name: run_with_engine(name, graph, p, algo, cfg, threads)
           for name in ENGINE_NAMES}
    a, b = out["batched"], out["inprocess"]
    assert a["weight"] == b["weight"]
    assert np.array_equal(a["clock"], b["clock"]), (
        "simulated clocks differ between batched and inprocess")
    assert a["phases"] == b["phases"]
    assert a["phases_per_pe"].keys() == b["phases_per_pe"].keys()
    for k in a["phases_per_pe"]:
        assert np.array_equal(a["phases_per_pe"][k],
                              b["phases_per_pe"][k]), k
    assert np.array_equal(a["trace"], b["trace"])
