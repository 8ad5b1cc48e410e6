"""Shared graph builders, the production-vs-oracle differential harness and
a fresh-interpreter runner."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro.dgraph import DistGraph
from repro.dgraph.dist_graph import split_edges
from repro.dgraph.edges import Edges
from repro.kernels import dtypes
from repro.obs.export import chrome_trace, metrics_to_dict
import repro
from repro.simmpi import Machine
from repro.simmpi.machine import RETIRED_ENV

from _loop_reference import ORACLES

#: The two paths a differential runs, under the names they had while ``src/``
#: carried both (test ids stay stable): ``batched`` is production as
#: shipped, ``inprocess`` is production with every per-PE loop oracle of
#: ``_loop_reference`` substituted.
ENGINE_NAMES = ("inprocess", "batched")


@contextmanager
def loop_oracles(only=None):
    """Run the block with the loop oracles in place of the production sites
    (with ``only``, a collection of production attribute or oracle names,
    just those; a site with two oracles takes the first listed unless
    ``only`` names the other).

    Nothing in ``src/`` knows about the oracles.  The package imports its
    helpers by name (``from ..simmpi.alltoall import route_rows``), so
    patching the defining module alone would miss every caller: each
    attribute of a loaded ``repro.*`` module that *is* a production function
    of ``ORACLES`` is rebound, and every binding restored on exit.  Import
    everything the block needs first -- a module loaded inside it binds the
    originals.  Test code must reach a site through its module
    (``core.min_edges(...)``, not a name imported into the test).
    """
    swap = {}
    for mod, attr, oracle in ORACLES:
        if only is None or attr in only or oracle.__name__ in only:
            swap.setdefault(id(getattr(importlib.import_module(mod), attr)),
                            oracle)
    undo = []
    try:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro"
                                   or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if id(value) in swap:
                    undo.append((mod, key, value))
                    setattr(mod, key, swap[id(value)])
        yield
    finally:
        for mod, key, value in undo:
            setattr(mod, key, value)


def on_path(engine):
    """Context selecting one of :data:`ENGINE_NAMES` for the block."""
    if engine not in ENGINE_NAMES:
        raise ValueError(engine)
    return loop_oracles() if engine == "inprocess" else nullcontext()


def observed_machine(machine, skip_checks=()):
    """Everything a run leaves behind on ``machine``, in comparable form.

    Covers whichever subsystems are attached.  ``skip_checks`` names the
    sanitizer counters that are meant to differ between the two sides of a
    differential (e.g. a check family only one of them has).
    """
    seen = {
        "clock": machine.clock.copy(),
        "phases": dict(machine.phase_times),
        "n_collectives": machine.n_collectives,
        "bytes": machine.bytes_communicated,
        "pe_rngs": {pe: str(state)
                    for pe, state in machine.rng_snapshot().items()},
    }
    if machine.events is not None:
        seen["events"] = chrome_trace(machine.events, deterministic=True)
        metrics = metrics_to_dict(machine.metrics, deterministic=True)
        # kernel/* count host kernel calls: meant to differ.
        metrics["counters"] = {
            k: v for k, v in metrics["counters"].items()
            if not k.startswith("kernel/")}
        seen["metrics"] = metrics
    if machine.trace is not None:
        seen["comm_trace"] = (machine.trace.matrix.copy(),
                              machine.trace.n_exchanges)
    if machine.sanitizer is not None:
        seen["shadow"] = machine.sanitizer.comm_matrix.copy()
        seen["checks"] = {k: v for k, v in machine.sanitizer.counters.items()
                          if k not in skip_checks}
    if machine.faults is not None:
        seen["faults"] = machine.faults.summary()
        seen["fault_rng"] = str(machine.faults.rng.bit_generator.state)
    return seen


def parts_of(dg: DistGraph) -> list:
    """Every PE's part of ``dg``'s block, as read-only views."""
    return split_edges(dg.edges, dg.offsets)


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


def _columns(edges):
    return edges.u, edges.v, edges.w, edges.id


def run_with_engine(engine, graph, p, algo, cfg, threads=1, wide=False):
    """One sanitized, traced run on path ``engine``; everything simulated.

    ``graph`` is a ``GeneratedGraph`` or a raw symmetric ``Edges``.  With
    ``wide`` the run stores ``int64`` everywhere: the input is widened and
    dtype narrowing is switched off for the run.
    """
    generated = hasattr(graph, "distribute")
    edges = graph.edges if generated else graph
    with pytest.MonkeyPatch.context() as patch, on_path(engine), \
            Machine(p, threads=threads, sanitize=True,
                    trace=True) as machine:
        if wide:
            patch.setattr(dtypes, "NARROWING", False)
            edges = Edges(*(dtypes.widen(c) for c in _columns(edges)))
        dg = DistGraph.from_global_edges(machine, edges,
                                         avoid_shared=generated)
        result = algo(dg, cfg)
        return {
            "weight": result.total_weight,
            "clock": machine.clock.copy(),
            "phases": dict(machine.phase_times),
            "phases_per_pe": {k: v.copy()
                              for k, v in machine.phase_times_per_pe.items()},
            "trace": machine.trace.matrix.copy(),
            "dtypes": {c.dtype for part in parts_of(dg) + result.msf_parts
                       for c in _columns(part)},
        }


def _assert_same_simulation(a, b, what):
    assert a["weight"] == b["weight"]
    assert np.array_equal(a["clock"], b["clock"]), (
        f"simulated clocks differ between {what}")
    assert a["phases"] == b["phases"]
    assert a["phases_per_pe"].keys() == b["phases_per_pe"].keys()
    for k in a["phases_per_pe"]:
        assert np.array_equal(a["phases_per_pe"][k],
                              b["phases_per_pe"][k]), k
    assert np.array_equal(a["trace"], b["trace"])


def assert_engines_agree(graph, p, algo, cfg, threads=1):
    """The hard invariant of docs/kernels.md: production == oracle, bit for bit.

    MSF weight, per-PE clocks, phase times (max and per PE) and the
    CommTrace matrix of the production run are compared with
    ``np.array_equal`` -- no tolerance -- against the same run on the loop
    oracles, and against production with ``int64`` storage everywhere
    (same simulation, different storage dtypes).
    """
    prod = run_with_engine("batched", graph, p, algo, cfg, threads)
    oracle = run_with_engine("inprocess", graph, p, algo, cfg, threads)
    _assert_same_simulation(prod, oracle, "production and the loop oracles")
    wide = run_with_engine("batched", graph, p, algo, cfg, threads,
                           wide=True)
    _assert_same_simulation(prod, wide, "narrow and wide storage")
    assert wide["dtypes"] == {np.dtype(np.int64)}
    if getattr(graph, "edges", graph).u.dtype == np.uint32:
        assert np.dtype(np.uint32) in prod["dtypes"]


def run_python(args, cwd=None, **env):
    """``python *args`` in a fresh interpreter that imports this ``repro``,
    with no retired knob set plus ``env``; returns the completed process."""
    full_env = {k: v for k, v in os.environ.items() if k not in RETIRED_ENV}
    src = str(Path(repro.__file__).resolve().parent.parent)
    full_env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [full_env.get("PYTHONPATH")] if p])
    full_env.update(env)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=full_env,
                          capture_output=True, text=True, timeout=120)
