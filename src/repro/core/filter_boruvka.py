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

from typing import Optional, Union

import numpy as np

from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import Edges
from ..kernels import segment_ids
from ..obs.hooks import observe_filter_level, observe_filter_survivors
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
    off = graph.offsets
    drawing, take, picks = sample_positions(machine, np.arange(p),
                                            np.diff(off),
                                            cfg.pivot_sample_per_pe)
    drawn = graph.edges.w[np.repeat(off[drawing], take) + picks]
    samples = [np.empty((0, 1), dtype=np.int64)] * p
    for i, at in zip(drawing.tolist(), np.split(drawn, np.cumsum(take)[:-1])):
        samples[i] = at.reshape(-1, 1)
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
                    ) -> tuple[DistGraph, Edges, np.ndarray]:
    """Partition the block into light (w <= pivot) and heavy (w > pivot)
    rows: the light graph and the heavy block with its offsets."""
    machine = graph.machine
    e, off = graph.edges, graph.offsets
    light = e.w <= pivot
    lights = np.flatnonzero(light)
    heavies = np.flatnonzero(~light)
    machine.charge_scan(np.diff(off), ranks=np.arange(machine.n_procs))
    return (DistGraph(machine, e.take(lights), np.searchsorted(lights, off),
                      check=False),
            e.take(heavies), np.searchsorted(heavies, off))


def _interleave(a: Edges, a_off: np.ndarray, b: Edges, b_off: np.ndarray
                ) -> tuple[Edges, np.ndarray]:
    """PE ``i``'s rows of ``a`` then its rows of ``b``, PE by PE."""
    at = np.concatenate([
        np.arange(len(a)) + np.repeat(b_off[:-1], np.diff(a_off)),
        np.arange(len(b)) + np.repeat(a_off[1:], np.diff(b_off))])
    rows = np.empty(len(at), dtype=np.int64)
    rows[at] = np.arange(len(at))
    return Edges.concat([a, b]).take(rows), a_off + b_off


def _filter_heavy(
    heavy_graph: DistGraph,
    P: DistributedLabelArray,
    run: MSTRun,
) -> tuple[Edges, np.ndarray]:
    """FILTER: relabel heavy edges by current representatives, drop loops.

    REQUESTLABELS resolves this PE's local vertices through the distributed
    array P; ghost labels then flow through the standard label exchange.
    """
    P.contract()
    e, off = heavy_graph.edges, heavy_graph.offsets
    starts = heavy_graph.source_runs()
    vids, voff = e.u[starts], np.searchsorted(starts, off)
    labels = P.request(vids, segment_ids(voff))
    push = exchange_labels(heavy_graph, vids, labels, voff, run)
    return relabel(heavy_graph, vids, labels, voff, push, run)


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
    # Parts are sorted by source: a part's last source is its largest.
    max_label = run.comm.allreduce(
        np.where(graph.has_edges, graph.last_src, -1).tolist(), op="max")
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

    def rec(g: DistGraph, depth: int) -> Optional[DistGraph]:
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
            light_graph, heavy, heavy_off = _split_by_pivot(g, pivot, run)
        carried = rec(light_graph, depth + 1)
        del light_graph
        with machine.phase("filter"):
            if carried is not None:
                # Merged sets lost global sortedness; re-establish it.
                heavy_graph = redistribute(run, machine, *_interleave(
                    heavy, heavy_off, carried.edges, carried.offsets))
            else:
                heavy_graph = DistGraph(machine, heavy, heavy_off,
                                        check=False)
            m_heavy = heavy_graph.global_edge_count()
            if m_heavy == 0:
                return None
            filtered = _filter_heavy(heavy_graph, P, run)
            del heavy_graph, heavy, carried
            survivors_graph = redistribute(run, machine, *filtered)
            del filtered
            m_surv = survivors_graph.global_edge_count()
        observe_filter_survivors(machine, depth, m_heavy, m_surv)
        machine.checkpoint(f"filter_depth_{depth}")
        if m_surv == 0:
            return None
        if (depth > 0 and m_surv < cfg.merge_back_fraction * m
                and not is_sparse(m_surv)):
            return survivors_graph
        return rec(survivors_graph, depth + 1)

    leftover = rec(graph, 0)
    if leftover is not None:
        # Carried out of the root call: finish it directly, on a rebuilt
        # structure (one more metadata allgather).
        run_base_case(DistGraph(machine, leftover.edges, leftover.offsets,
                                check=False))

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
