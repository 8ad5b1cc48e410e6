"""Experiment harness: run algorithms over machine configurations.

Wraps one algorithm execution on one simulated machine configuration into an
:class:`ExperimentResult` record (including graceful handling of simulated
out-of-memory crashes, which the paper's competitors exhibit), and provides
the weak- and strong-scaling sweep drivers used by every benchmark in
``benchmarks/``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.config import BoruvkaConfig, FilterConfig
from ..core.mst import minimum_spanning_forest
from ..graphgen.base import GeneratedGraph
from ..simmpi.costmodel import CostModel
from ..simmpi.machine import Machine, SimulatedOutOfMemory

#: Monotone sequence number for trace artifacts within one process, so
#: sweep runs emit distinctly named files in ``REPRO_TRACE_DIR``.
_TRACE_SEQ = [0]

def _export_trace_artifacts(machine: Machine, graph: GeneratedGraph,
                            algorithm: str) -> None:
    """Write trace + metrics artifacts for one traced run, if requested.

    Artifacts land in ``REPRO_TRACE_DIR`` (created on demand) as
    ``{seq:03d}-{instance}-{algorithm}-p{cores}.trace.json`` plus the
    matching ``.metrics.json``.  A no-op when the machine is untraced or
    the variable is unset, so benchmark timing paths never pay for it.
    """
    out_dir = os.environ.get("REPRO_TRACE_DIR")
    if not out_dir or not machine.tracing:
        return
    from ..obs import write_chrome_trace, write_metrics

    os.makedirs(out_dir, exist_ok=True)
    seq = _TRACE_SEQ[0]
    _TRACE_SEQ[0] += 1
    safe = graph.name.replace("/", "_").replace(" ", "_")
    stem = os.path.join(out_dir,
                        f"{seq:03d}-{safe}-{algorithm}-p{machine.cores}")
    meta = {"instance": graph.name, "algorithm": algorithm,
            "procs": machine.n_procs, "threads": machine.threads}
    write_chrome_trace(machine.events, stem + ".trace.json", metadata=meta)
    write_metrics(machine.metrics, stem + ".metrics.json")


def env_scale(default: int = 1) -> int:
    """Workload multiplier from the ``REPRO_SCALE`` environment variable."""
    return int(os.environ.get("REPRO_SCALE", default))


def env_max_cores(default: int = 256) -> int:
    """Sweep ceiling from the ``REPRO_MAX_CORES`` environment variable."""
    return int(os.environ.get("REPRO_MAX_CORES", default))


@dataclass
class ExperimentResult:
    """One (instance, algorithm, machine) measurement."""

    instance: str
    algorithm: str
    cores: int
    n_procs: int
    threads: int
    n_vertices: int
    m_directed: int
    #: Simulated seconds ("crashed" runs hold NaN).
    elapsed: float
    status: str = "ok"  # ok | oom | error
    phase_times: Dict[str, float] = field(default_factory=dict)
    stats: Dict = field(default_factory=dict)
    total_weight: int = 0

    @property
    def throughput(self) -> float:
        """Edges per simulated second (the paper's Fig. 3 metric)."""
        if not np.isfinite(self.elapsed) or self.elapsed <= 0:
            return float("nan")
        return self.m_directed / self.elapsed


def run_algorithm(
    graph: GeneratedGraph,
    algorithm: str,
    n_procs: int,
    threads: int = 1,
    config: Optional[object] = None,
    memory_limit_bytes: Optional[float] = None,
    cost: Optional[CostModel] = None,
    verify: bool = False,
    seed: int = 0,
    trace_events: Optional[bool] = None,
    faults: Optional[object] = None,
) -> ExperimentResult:
    """Execute one algorithm on a fresh simulated machine.

    ``trace_events=None`` defers to ``REPRO_TRACE`` (the machine default);
    traced runs additionally export Chrome-trace/metrics artifacts when
    ``REPRO_TRACE_DIR`` names a directory.  ``faults`` is forwarded to the
    machine (a spec string, :class:`~repro.faults.FaultSchedule`, or None
    for the ``REPRO_FAULTS`` default; see docs/faults.md).
    """
    machine = Machine(n_procs, threads=threads, cost=cost,
                      memory_limit_bytes=memory_limit_bytes, seed=seed,
                      trace_events=trace_events, faults=faults)
    base = ExperimentResult(
        instance=graph.name,
        algorithm=algorithm,
        cores=machine.cores,
        n_procs=n_procs,
        threads=threads,
        n_vertices=graph.n_vertices,
        m_directed=graph.n_directed_edges,
        elapsed=float("nan"),
    )
    try:
        # Holding the partitioned input already counts against the limit
        # (the paper needs >= 4096 cores before wdc-14 even fits).
        dg = graph.distribute(machine)
        res = minimum_spanning_forest(dg, algorithm=algorithm, config=config)
    except SimulatedOutOfMemory:
        base.status = "oom"
        _export_trace_artifacts(machine, graph, algorithm)
        return base
    base.elapsed = res.elapsed
    base.phase_times = res.phase_times
    base.stats = res.stats
    base.total_weight = res.total_weight
    if machine.faults is not None:
        base.stats["fault_events"] = machine.faults.summary()
    _export_trace_artifacts(machine, graph, algorithm)
    if verify:
        from ..seq.verify import verify_msf

        verify_msf(res.msf_edges(), graph.edges, graph.n_vertices,
                   check_edges=False)
    return base


def default_configs(scale_hint: int) -> Dict[str, object]:
    """Simulation-scale algorithm configs (thresholds matched to input size)."""
    base_min = max(64, scale_hint // 8)
    b = BoruvkaConfig(base_case_min=base_min)
    return {
        "boruvka": b,
        "filter-boruvka": FilterConfig(boruvka=b),
        "awerbuch-shiloach": None,
        "mnd-mst": None,
    }


def weak_scaling(
    make_graph,
    algorithms: Sequence[str],
    cores_list: Sequence[int],
    per_core_vertices: int,
    per_core_edges: int,
    threads: int = 1,
    memory_limit_per_core: Optional[float] = None,
    competitor_core_cap: Optional[int] = None,
    seed: int = 0,
    verify: bool = False,
) -> List[ExperimentResult]:
    """Weak-scaling sweep: workload grows with the core count (Fig. 3 style).

    ``make_graph(n, m, seed)`` builds the instance for one configuration.
    ``competitor_core_cap`` mirrors the paper's methodology of running the
    (slow) competitors only up to a bounded core count.
    """
    out: List[ExperimentResult] = []
    for cores in cores_list:
        n_procs = max(1, cores // threads)
        n = per_core_vertices * cores
        m = per_core_edges * cores
        graph = make_graph(n, m, seed)
        cfgs = default_configs(per_core_vertices)
        for alg in algorithms:
            if (competitor_core_cap is not None
                    and alg in ("awerbuch-shiloach", "mnd-mst")
                    and cores > competitor_core_cap):
                continue
            limit = (memory_limit_per_core * threads
                     if memory_limit_per_core else None)
            out.append(run_algorithm(
                graph, alg, n_procs, threads=threads,
                config=cfgs.get(alg),
                memory_limit_bytes=limit, seed=seed, verify=verify,
            ))
    return out


def strong_scaling(
    graph: GeneratedGraph,
    algorithms: Sequence[str],
    cores_list: Sequence[int],
    threads: int = 1,
    memory_limit_per_core: Optional[float] = None,
    seed: int = 0,
    verify: bool = False,
) -> List[ExperimentResult]:
    """Strong-scaling sweep: fixed instance, growing machine (Fig. 5 style)."""
    out: List[ExperimentResult] = []
    cfgs = default_configs(max(64, graph.n_vertices // 64))
    for cores in cores_list:
        n_procs = max(1, cores // threads)
        for alg in algorithms:
            limit = (memory_limit_per_core * threads
                     if memory_limit_per_core else None)
            out.append(run_algorithm(
                graph, alg, n_procs, threads=threads, config=cfgs.get(alg),
                memory_limit_bytes=limit, seed=seed, verify=verify,
            ))
    return out
