"""LOCALPREPROCESSING: contraction of provably-local MST edges (Section IV-A).

Key observation: all edges incident to a non-shared local vertex are visible
on its PE (source groups are contiguous), so if the minimum incident edge of
a component of non-shared local vertices is itself a *local* edge, the
min-cut property proves it is an MST edge using local information only --
contract it without any communication.  Iterating this until every remaining
component's minimum incident edge is a cut edge "reduces processing time by
up to a factor 5" on high-locality graphs (Fig. 4).

Engineering refinements from Section VI-B, all implemented here:

* the step is skipped entirely when cut edges exceed 90 % of the edges
  (one cheap allreduce);
* the *recursive edge-filtering* enhancement: only edges of the local
  subgraph's own MSF can ever be contracted (cycle property), so the
  candidate set is first reduced to that MSF via the sequential
  Filter-Borůvka;
* hash-based parallel-edge elimination instead of full sorting for the
  dedup after contraction (``hash_dedup``);
* components that have absorbed a shared vertex are *tainted*: their full
  edge set is not visible locally, so they never initiate a contraction, and
  a contraction that would merge two tainted components is skipped (their
  labels must both survive for other PEs).

Afterwards the ghost labels are refreshed with the label-exchange machinery
of Section IV-B and global sortedness is re-established by local resorting
plus routing the boundary runs of shared vertices to the first PE of their
span (the paper's "short subsequences allocated to two subsequent PEs"
case, generalised to any span).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import Edges, lightest_per_group
from ..seq.filter_kruskal import filter_boruvka_msf
from ..seq.kruskal import kruskal_msf
from ..simmpi.alltoall import route_rows
from .labels import exchange_labels, relabel
from .state import MSTRun


class _TaintedUnionFind:
    """Union-find state over local vertex indices with shared-vertex
    constraints (the contraction loop below inlines ``find`` and ``union``).

    * the representative *label* of a set containing a shared vertex is that
      shared vertex (shared labels must survive -- other PEs reference them);
    * a union of two tainted sets is refused (both labels must survive).
    """

    def __init__(self, n: int, shared_mask: np.ndarray):
        # Local vertex indices fit int32 at any simulated scale; find_many
        # results inherit this dtype, which halves the per-round root
        # arrays of the contraction loop below.
        dt = np.int32 if n < (1 << 31) else np.int64
        self.parent = np.arange(n, dtype=dt)
        self.rank = np.zeros(n, dtype=np.int8)
        self.taint = shared_mask.copy()
        # Designated representative index per root (the shared member if any).
        self.rep = np.arange(n, dtype=dt)

    def find_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised roots of many elements (compresses their paths)."""
        parent = self.parent
        roots = np.asarray(xs, dtype=parent.dtype)
        while True:
            nxt = parent[roots]
            if np.array_equal(nxt, roots):
                break
            roots = parent[nxt]
        parent[xs] = roots
        return roots


def destinations(vids: np.ndarray, v: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """``(at, local)``: each destination's ``searchsorted`` position among
    the sorted local ``vids``, clipped, and whether it is that vertex."""
    idx = np.searchsorted(vids, v)
    at = np.minimum(idx, len(vids) - 1)
    return at, (idx < len(vids)) & (vids[at] == v)


def _contract_one_pe(
    part: Edges,
    vids: np.ndarray,
    starts: np.ndarray,
    v_at: np.ndarray,
    v_local: np.ndarray,
    shared_mask: np.ndarray,
    use_filter: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Run the modified local Borůvka on one PE.

    The part's vertex layout is read, not searched: ``(vids, starts)`` are
    its source groups (:meth:`DistGraph.vertex_groups`) and ``(v_at,
    v_local)`` its :func:`destinations`.  Returns ``(new_labels, mst_ids,
    mst_weights, rounds)`` where ``new_labels`` is aligned with ``vids``.
    """
    n_local = len(vids)
    uf = _TaintedUnionFind(n_local, shared_mask)
    if n_local == 0 or len(part) == 0:
        return vids.copy(), np.empty(0, dtype=np.int64), \
            np.empty(0, dtype=np.int64), 0

    # Index scratch dtype: vertex indices (< n_local) and row positions
    # (< 2 * len(part)) both fit int32 at any simulated scale, and ~15 such
    # arrays are simultaneously live per round below -- the narrow scratch
    # halves the peak footprint of large merged parts (MND-MST leaders).
    idx_dt = (np.int32 if max(n_local, 2 * len(part)) < (1 << 31)
              else np.int64)
    vidx_u = np.repeat(np.arange(n_local, dtype=idx_dt), np.diff(starts))
    vidx_v = np.where(v_local, v_at.astype(idx_dt, copy=False), idx_dt(-1))

    # Candidate (contractible) edges: both endpoints local.  With the
    # filtering enhancement, restrict further to the local subgraph's MSF --
    # by the cycle property no other local edge can ever be a cut minimum.
    # Every compaction below gathers at positions: one flatnonzero, then
    # integer gathers (docs/kernels.md, "Select by index, not by mask").
    candidate = v_local
    if use_filter and candidate.any():
        cpos = np.flatnonzero(candidate)
        dense = Edges(vidx_u[cpos], vidx_v[cpos], part.w[cpos], cpos)
        msf = (filter_boruvka_msf if len(dense) > 64 else kruskal_msf)(
            dense, n_local)
        candidate = np.zeros(len(part), dtype=bool)
        candidate[msf.id] = True  # ids were candidate positions
        del cpos, dense, msf

    # Edges that participate in min computations: candidates + cut edges.
    e_pos = np.flatnonzero(candidate | ~v_local)
    e_u = vidx_u[e_pos]
    e_v = vidx_v[e_pos]             # -1 for ghosts
    e_w = part.w[e_pos]
    e_cand = candidate[e_pos]
    ghost_label = part.v[e_pos]     # actual labels for canonical tie keys
    e_pos = e_pos.astype(idx_dt, copy=False)
    del vidx_u, vidx_v, candidate

    mst_ids: list[int] = []
    mst_ws: list[int] = []
    rounds = 0
    while True:
        rounds += 1
        cu_root = uf.find_many(e_u)
        cv_root = np.where(e_v >= 0, uf.find_many(np.maximum(e_v, 0)), -1)
        label_u = vids[uf.rep[cu_root]]
        label_v = np.where(e_v >= 0, vids[uf.rep[np.maximum(cv_root, 0)]],
                           ghost_label)
        keep = np.flatnonzero(label_u != label_v)
        if len(keep) == 0:
            break
        if len(keep) < len(e_u):
            # Self-loop edges stay dead forever (components only grow), so
            # drop them before the next round's scans.
            e_u, e_v, e_w = e_u[keep], e_v[keep], e_w[keep]
            e_pos, e_cand = e_pos[keep], e_cand[keep]
            ghost_label = ghost_label[keep]
            cu_root, cv_root = cu_root[keep], cv_root[keep]
            label_u, label_v = label_u[keep], label_v[keep]
        del keep
        a_u, a_v = cu_root, cv_root
        a_cand = e_cand & (a_v >= 0)
        # Group candidates by component: local edges feed both sides' groups,
        # cut edges only the source side.  The tie key is built from the
        # actual labels.
        both = a_v >= 0
        grp = np.concatenate([a_u, a_v[both]])
        sel = np.concatenate([np.arange(len(a_u), dtype=idx_dt),
                              np.flatnonzero(both).astype(idx_dt,
                                                          copy=False)])
        del both
        groups, pick = lightest_per_group(grp, label_u[sel], label_v[sel],
                                          e_w[sel], n_local)
        chosen = sel[pick]  # row into the compacted arrays
        del grp, sel, pick, label_u, label_v
        # Contract where the choosing component is untainted and its minimum
        # is a contractible (local MSF) edge.
        ok = ~uf.taint[groups] & a_cand[chosen]
        did_union = False
        rows = np.unique(chosen[ok])
        pos = e_pos[rows]
        del groups, chosen, ok
        # find + union inlined over plain Python lists (the union-by-rank
        # rule decides the labels): this loop dominates the per-PE
        # contraction time and list indexing beats numpy scalar indexing
        # several-fold.
        parent = uf.parent.tolist()
        rank = uf.rank.tolist()
        taint = uf.taint.tolist()
        rep = uf.rep.tolist()
        for ia, ib, eid, ew in zip(a_u[rows].tolist(), a_v[rows].tolist(),
                                   part.id[pos].tolist(),
                                   part.w[pos].tolist()):
            root = ia
            while parent[root] != root:
                root = parent[root]
            while parent[ia] != root:
                parent[ia], ia = root, parent[ia]
            ra = root
            root = ib
            while parent[root] != root:
                root = parent[root]
            while parent[ib] != root:
                parent[ib], ib = root, parent[ib]
            rb = root
            if ra == rb or (taint[ra] and taint[rb]):
                continue
            if rank[ra] < rank[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            if rank[ra] == rank[rb]:
                rank[ra] += 1
            if taint[rb]:
                taint[ra] = True
                rep[ra] = rep[rb]
            did_union = True
            mst_ids.append(eid)
            mst_ws.append(ew)
        uf.parent[:] = parent
        uf.rank[:] = rank
        uf.taint[:] = taint
        uf.rep[:] = rep
        if not did_union:
            break
        if rounds > 64:
            raise RuntimeError("local preprocessing failed to converge")

    roots = uf.find_many(np.arange(n_local))
    new_labels = vids[uf.rep[roots]]
    return (new_labels, np.asarray(mst_ids, dtype=np.int64),
            np.asarray(mst_ws, dtype=np.int64), rounds)


def _first_holder_of_shared(graph: DistGraph) -> dict[int, int]:
    """Map each shared vertex to the first PE of its span."""
    first_holder: dict[int, int] = {}
    p = graph.machine.n_procs
    for j in range(p):
        if not graph.has_edges[j]:
            continue
        s_first = int(graph.first_src[j])
        s_last = int(graph.last_src[j])
        for s in (s_first, s_last):
            if s not in first_holder:
                first_holder[s] = j
    return first_holder


def local_preprocessing(graph: DistGraph, run: MSTRun) -> DistGraph:
    """Run the full preprocessing step; returns the contracted graph.

    No-op (returns ``graph``) when the local-edge fraction is below the
    configured threshold.
    """
    p = graph.machine.n_procs
    machine = graph.machine
    cfg = run.cfg

    # ---- Quick locality check (skip rule, Section VI-B). ----
    # Each PE's vertex layout is built here once and handed on to its
    # contraction.
    local_counts, totals = [], []
    layouts: List[tuple] = []
    for i in range(p):
        part = graph.parts[i]
        vids, starts = graph.vertex_groups(i)
        v_at, v_local = destinations(vids, part.v)
        layouts.append((vids, starts, v_at, v_local))
        local_counts.append(int(np.count_nonzero(v_local)))
        totals.append(len(part))
        if len(part):
            machine.charge_scan(np.array([len(part)]), ranks=np.array([i]))
    total_local = run.comm.allreduce(local_counts)
    total_edges = run.comm.allreduce(totals)
    if total_edges == 0:
        return graph
    if total_local / total_edges < cfg.preprocessing_min_local_fraction:
        return graph

    # ---- Per-PE contraction (communication-free). ----
    shared_set = graph.shared_vertex_set()
    vids_per_pe = [layout[0] for layout in layouts]
    labels_per_pe: List[np.ndarray] = []
    for i in range(p):
        vids = vids_per_pe[i]
        new_labels, ids, ws, rounds = _contract_one_pe(
            graph.parts[i], *layouts[i],
            np.isin(vids, shared_set, assume_unique=True),
            cfg.preprocessing_filter
        )
        layouts[i] = None
        labels_per_pe.append(new_labels)
        run.record_mst(i, ids, ws)
        run.record_labels(i, vids, new_labels)
        m_i = len(graph.parts[i])
        machine.charge_sort(np.array([max(m_i, 1)]), ranks=np.array([i]))
        machine.charge_scan(np.array([m_i * max(rounds, 1)]),
                            ranks=np.array([i]))

    # ---- Refresh ghost labels and relabel (Sections IV-B/IV-C). ----
    relabelled = relabel(graph, vids_per_pe, labels_per_pe,
                         exchange_labels(graph, vids_per_pe, labels_per_pe,
                                         run), run)

    # ---- Local resort + parallel-edge elimination. ----
    parts: List[Edges] = []
    for i in range(p):
        e = relabelled[i].sort_lex()
        machine.charge_sort(np.array([max(len(e), 1)]), ranks=np.array([i]))
        parts.append(_dedup_part(e, machine, i, cfg))

    # ---- Boundary repair: move shared-vertex runs to the span's first PE. -
    first_holder = _first_holder_of_shared(graph)
    payloads, dests, keepers = [], [], []
    for i in range(p):
        e = parts[i]
        if len(e) == 0:
            payloads.append(np.empty((0, Edges.N_COLS), dtype=np.int64))
            dests.append(np.empty(0, dtype=np.int64))
            keepers.append(e)
            continue
        s = int(e.u[0])
        target = first_holder.get(s, i)
        if s in shared_set and target != i:
            run_len = int(np.searchsorted(e.u, s, side="right"))
            lead = e.take(np.arange(run_len))
            payloads.append(lead.as_matrix())
            dests.append(np.full(run_len, target, dtype=np.int64))
            keepers.append(e.take(np.arange(run_len, len(e))))
        else:
            payloads.append(np.empty((0, Edges.N_COLS), dtype=np.int64))
            dests.append(np.empty(0, dtype=np.int64))
            keepers.append(e)
    recv, _, _ = route_rows(run.comm, payloads, dests, method=cfg.alltoall)
    final_parts: List[Edges] = []
    for i in range(p):
        if len(recv[i]):
            merged = Edges.concat([keepers[i], Edges.from_matrix(recv[i])])
            merged = merged.sort_lex()
            machine.charge_sort(np.array([len(merged)]), ranks=np.array([i]))
            final_parts.append(_dedup_part(merged, machine, i, cfg))
        else:
            final_parts.append(keepers[i])

    return DistGraph(machine, final_parts, check=False)


def _dedup_part(e: Edges, machine, pe: int, cfg) -> Edges:
    """Remove parallel edges from a locally sorted part.

    With ``cfg.hash_dedup`` the paper's hash-based scheme is *charged*: the
    lightest ``hash_dedup_fraction`` of the edges go into a hash table keyed
    by (u, v); one scan filters the rest; only survivors are sorted.  The
    resulting edge set is identical to sort-based dedup (keep the lightest
    per (u, v)); only the cost accounting differs, mirroring the up-to-2.5x
    win reported in Section VI-B.
    """
    if len(e) <= 1:
        return e
    same = (e.u[1:] == e.u[:-1]) & (e.v[1:] == e.v[:-1])
    keep = np.concatenate(([True], ~same))
    out = e.take(keep)
    if cfg.hash_dedup:
        light = int(len(e) * cfg.hash_dedup_fraction) + 1
        machine.charge_hash(np.array([light + len(e)]), ranks=np.array([pe]))
        machine.charge_sort(np.array([max(len(out), 1)]),
                            ranks=np.array([pe]))
    else:
        machine.charge_sort(np.array([max(len(e), 1)]), ranks=np.array([pe]))
        machine.charge_scan(np.array([len(e)]), ranks=np.array([pe]))
    return out
