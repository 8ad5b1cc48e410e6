"""Distributed Filter-Borůvka (Algorithm 2, Section V).

Combines the filtering idea of Filter-Kruskal [7] with the distributed
Borůvka algorithm: recursively quicksort-partition the edges around a
sampled median weight, compute the MSF of the light part first, then *drop*
every heavy edge whose endpoints already share a component of the partial
forest (tracked by the distributed array ``P``), and only recurse on the
survivors.  Theorem 1: expected work stays ``O(m + n log n log(m/n))`` while
the span becomes polylogarithmic.

Recursion control (Section VI-C):

* base case (our distributed Borůvka, without preprocessing and without
  output redistribution) when the average degree is at most 4 *or* fewer
  than ``min_edges_per_proc`` edges per process remain;
* local preprocessing runs once, up front;
* a filtered heavy set that came out too small is not recursed on directly
  but propagated back and merged with the parent level's heavy edges.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import Edges
from ..obs.hooks import observe_filter_level, observe_filter_survivors
from ..simmpi.machine import Machine
from ..sorting.api import sort_rows
from ..sorting.common import sample_positions
from .base_case import base_case
from .boruvka import (
    InputSnapshot,
    MSTResult,
    boruvka_rounds,
    redistribute_mst,
)
from .config import BoruvkaConfig, FilterConfig
from .labels import exchange_labels, relabel
from .local_preprocessing import local_preprocessing
from .plabels import DistributedLabelArray
from .redistribute import redistribute
from .state import MSTRun


def _select_pivot(graph: DistGraph, run: MSTRun, cfg: FilterConfig
                  ) -> Optional[int]:
    """PIVOTSELECTION: median of a distributed-sorted weight sample.

    Returns ``None`` when the sample cannot split the edges (degenerate
    weight distribution), in which case the caller goes to the base case.
    """
    machine = graph.machine
    p = machine.n_procs
    lens = np.array([len(part) for part in graph.parts], dtype=np.int64)
    drawing, take, picks = sample_positions(machine, np.arange(p), lens,
                                            cfg.pivot_sample_per_pe)
    samples = [np.empty((0, 1), dtype=np.int64)] * p
    for i, at in zip(drawing.tolist(), np.split(picks, np.cumsum(take)[:-1])):
        samples[i] = graph.parts[i].w[at].reshape(-1, 1)
    sorted_parts = sort_rows(run.comm, samples, n_key_cols=1,
                             method="hypercube", rebalance=False)
    sizes = [len(x) for x in sorted_parts]
    total = int(np.sum(sizes))
    if total == 0:
        return None
    # Locate the median element and broadcast it.
    target = total // 2
    offset = 0
    pivot = None
    for i in range(p):
        if offset + sizes[i] > target:
            pivot = int(sorted_parts[i][target - offset, 0])
            break
        offset += sizes[i]
    pivot = run.comm.bcast(pivot)
    # Degenerate when the sample is constant at the global maximum.
    lo = run.comm.allreduce(
        [int(x[0, 0]) if len(x) else np.iinfo(np.int64).max
         for x in sorted_parts], op="min")
    hi = run.comm.allreduce(
        [int(x[-1, 0]) if len(x) else np.iinfo(np.int64).min
         for x in sorted_parts], op="max")
    if lo == hi:
        return None
    if pivot == hi:
        pivot -= 1  # guarantee both sides non-empty in expectation
    return pivot


def _split_by_pivot(graph: DistGraph, pivot: int, run: MSTRun
                    ) -> tuple[List[Edges], List[Edges]]:
    """Partition every part into light (w <= pivot) and heavy (w > pivot)."""
    lights, heavies = [], []
    for i in range(graph.machine.n_procs):
        part = graph.parts[i]
        mask = part.w <= pivot
        lights.append(part.take(mask))
        heavies.append(part.take(~mask))
        graph.machine.charge_scan(np.array([len(part)]), ranks=np.array([i]))
    return lights, heavies


def _filter_heavy(
    machine: Machine,
    heavy_graph: DistGraph,
    P: DistributedLabelArray,
    run: MSTRun,
) -> List[Edges]:
    """FILTER: relabel heavy edges by current representatives, drop loops.

    REQUESTLABELS resolves this PE's local vertices through the distributed
    array P; ghost labels then flow through the standard label exchange.
    """
    p = machine.n_procs
    P.contract()
    vids_per_pe = [heavy_graph.vertex_groups(i)[0] for i in range(p)]
    labels_per_pe = P.request(vids_per_pe)
    push = exchange_labels(heavy_graph, vids_per_pe, labels_per_pe, run)
    return relabel(heavy_graph, vids_per_pe, labels_per_pe, push, run)


def distributed_filter_boruvka(
    graph: DistGraph,
    cfg: Optional[Union[FilterConfig, BoruvkaConfig]] = None,
    run: Optional[MSTRun] = None,
) -> MSTResult:
    """Run Algorithm 2 end to end on a distributed graph."""
    machine = graph.machine
    if cfg is None:
        cfg = FilterConfig()
    elif isinstance(cfg, BoruvkaConfig):
        cfg = FilterConfig(boruvka=cfg)
    bcfg = cfg.boruvka
    run = run or MSTRun(machine, bcfg)
    snapshot = InputSnapshot.take(graph)

    # Size of the vertex-label space (P covers all original labels).
    max_label = run.comm.allreduce(
        [int(part.u.max()) if len(part) else -1 for part in graph.parts],
        op="max")
    n_labels = max_label + 1
    P = DistributedLabelArray(run.comm, max(n_labels, 1),
                              alltoall=bcfg.alltoall)
    run.label_sink = P.sink

    if bcfg.local_preprocessing:
        with machine.phase("local_preprocessing"):
            graph = local_preprocessing(graph, run)

    p = machine.n_procs

    def is_sparse(m_directed: int) -> bool:
        return (m_directed <= cfg.sparse_avg_degree * n_labels
                or m_directed <= cfg.min_edges_per_proc * p)

    def run_base_case(g: DistGraph) -> None:
        g = boruvka_rounds(g, run)
        with machine.phase("base_case"):
            base_case(g, run)

    def rec(g: DistGraph, depth: int) -> Optional[List[Edges]]:
        """REC-FILTER-MST.  Returns a carried heavy set for the parent to
        merge (Section VI-C's propagate-back rule) or None."""
        m = g.global_edge_count()
        observe_filter_level(machine, depth, m)
        if depth >= cfg.max_depth or is_sparse(m):
            run_base_case(g)
            return None
        with machine.phase("pivot_partition"):
            pivot = _select_pivot(g, run, cfg)
        if pivot is None:
            run_base_case(g)
            return None
        with machine.phase("pivot_partition"):
            lights, heavies = _split_by_pivot(g, pivot, run)
            light_graph = DistGraph(machine, lights, check=False)
        carried = rec(light_graph, depth + 1)
        heavy_parts = heavies
        if carried is not None:
            heavy_parts = [Edges.concat([a, b])
                           for a, b in zip(heavy_parts, carried)]
        with machine.phase("filter"):
            if carried is not None:
                # Merged sets lost global sortedness; re-establish it.
                heavy_graph = redistribute(run, machine,
                                           heavy_parts)
            else:
                heavy_graph = DistGraph(machine, heavy_parts, check=False)
            m_heavy = heavy_graph.global_edge_count()
            if m_heavy == 0:
                return None
            filtered = _filter_heavy(machine, heavy_graph, P, run)
            survivors_graph = redistribute(run, machine, filtered)
            m_surv = survivors_graph.global_edge_count()
        observe_filter_survivors(machine, depth, m_heavy, m_surv)
        machine.checkpoint(f"filter_depth_{depth}")
        if m_surv == 0:
            return None
        if (depth > 0 and m_surv < cfg.merge_back_fraction * m
                and not is_sparse(m_surv)):
            return survivors_graph.parts
        return rec(survivors_graph, depth + 1)

    leftover = rec(graph, 0)
    if leftover is not None:
        # Carried out of the root call: finish it directly.
        run_base_case(DistGraph(machine, leftover, check=False))

    with machine.phase("mst_output"):
        msf_parts = redistribute_mst(run, snapshot)
    weights = [int(part.w.sum()) for part in msf_parts]
    total = int(run.comm.allreduce(weights))
    return MSTResult(
        msf_parts=msf_parts,
        total_weight=total,
        elapsed=machine.elapsed(),
        phase_times=dict(machine.phase_times),
        rounds=run.rounds,
        algorithm="filterBoruvka",
        stats={
            "bytes_communicated": machine.bytes_communicated,
            "n_collectives": machine.n_collectives,
        },
    )
