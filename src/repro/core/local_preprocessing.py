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
  edge set is not visible locally, so they never initiate a contraction.

One round is one whole-vector hook-and-shortcut step, as in sequential
Borůvka (:func:`~repro.seq.boruvka.contract_pseudo_forest`): every
untainted component whose lightest row is a contractible candidate points
at the component at that row's other end, the 2-cycles of this pseudo
forest are broken at the smaller index, pointer jumping maps every
component to its tree's root, and the pick of every non-root chooser is an
MST edge.  No union-find is kept.  The taint rule needs no refusal branch:
a tainted component never chooses, so it is the sink of its pick tree, and
a tree of a functional graph has exactly one sink -- two tainted components
never meet (both labels survive for other PEs), and a tainted tree's root
is its shared vertex, whose label the merged component keeps.

Afterwards the ghost labels are refreshed with the label-exchange machinery
of Section IV-B and global sortedness is re-established by local resorting
plus routing the boundary runs of shared vertices to the first PE of their
span in the input graph (the paper's "short subsequences allocated to two
subsequent PEs" case, generalised to any span).  Every stage reads and
writes the graph's block and offsets and is charged as one per-PE vector.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..dgraph.dist_graph import DistGraph, move_home
from ..dgraph.edges import Edges, lightest_per_group
from ..kernels import index_dtype, segmented_run_starts
from ..kernels.segmented import packed_lexsort
from ..seq.boruvka import contract_pseudo_forest
from ..seq.filter_kruskal import filter_boruvka_msf
from ..seq.kruskal import kruskal_msf
from .labels import exchange_labels, relabel
from .state import MSTRun


def block_destinations(graph: DistGraph
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """``(at, local)``: whether every row's destination is one of its own
    PE's local vertices, and where it is, read from one direct-address
    table over the block's source runs.  ``at`` (the position among the
    PE's runs) is defined only where ``local`` and is 0 elsewhere."""
    return _destinations(graph.edges, graph.source_runs(),
                         graph.run_offsets(), graph.row_pes())


def block_layout(edges: Edges, offsets: np.ndarray):
    """``(runs, run_off, v_at, v_local)`` of a block whose parts are sorted
    by source: what :class:`DistGraph` caches as :meth:`~DistGraph.
    source_runs` and :meth:`~DistGraph.run_offsets`, and
    :func:`block_destinations` (``v_at`` defined where ``v_local``)."""
    p = len(offsets) - 1
    runs = np.flatnonzero(segmented_run_starts(edges.u, offsets))
    run_off = np.searchsorted(runs, offsets)
    row_pe = np.repeat(np.arange(p, dtype=index_dtype(p)), np.diff(offsets))
    return (runs, run_off) + _destinations(edges, runs, run_off, row_pe)


def _destinations(e: Edges, runs: np.ndarray, run_off: np.ndarray,
                  row_pe: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`block_destinations` from the layout arrays.

    ``first[x]`` is the first run of vertex ``x``; a row's candidate run is
    the later of its destination's first run and its PE's first run, and
    the row is local iff that run lies among its PE's runs and holds the
    destination.  This needs a vertex's runs on consecutive PEs (a block
    sorted by source) or a single run per vertex (MND-MST's owned parts).
    """
    vids = e.u[runs]
    dt = np.int32 if len(vids) < (1 << 31) else np.int64  # run positions
    first = np.full(int(max(vids.max(initial=0), e.v.max(initial=0))) + 1,
                    len(vids), dtype=dt)
    np.minimum.at(first, vids, np.arange(len(vids), dtype=dt))
    run_off = run_off.astype(dt)
    lo = run_off[:-1][row_pe]
    at = np.maximum(first[e.v], lo)
    local = at < run_off[1:][row_pe]
    local[local] = vids[at[local]] == e.v[local]
    at -= lo
    at[~local] = 0
    return at, local


def _contract_block(
    e: Edges,
    offsets: np.ndarray,
    runs: np.ndarray,
    run_off: np.ndarray,
    v_at: np.ndarray,
    v_local: np.ndarray,
    shared_mask: np.ndarray,
    use_filter: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the modified local Borůvka on every PE at once.

    The block's vertex layout is read, not searched: ``(runs, run_off)``
    are its source runs and where each part's runs begin, ``(v_at,
    v_local)`` its :func:`block_destinations`.  A local vertex is indexed
    by its position in ``runs``, one index per (PE, vertex); ``comp`` holds
    every vertex's component root index.  The components of different PEs
    are disjoint, so one pseudo-forest contraction over all of them makes
    exactly the hooks each PE makes alone; a PE's rows leave the round
    arrays once it stops (no live row, or no hook).

    Returns ``(labels, mst_ids, mst_weights, mst_offsets, rounds)``:
    ``labels`` aligned with ``runs``, PE ``i``'s MST edges at
    ``mst_offsets[i]:mst_offsets[i + 1]`` in the order it found them, and
    every PE's round count.
    """
    p = len(offsets) - 1
    n = len(runs)
    vids = e.u[runs]
    # Index scratch dtype: vertex indices (< n) and row positions
    # (< 2 * len(e)) both fit int32 at any simulated scale, and ~15 such
    # arrays are simultaneously live per round below -- the narrow scratch
    # halves the peak footprint of large merged parts (MND-MST leaders).
    idx_dt = np.int32 if max(n, 2 * len(e)) < (1 << 31) else np.int64
    comp = np.arange(n, dtype=idx_dt)

    # Candidate (contractible) edges: both endpoints local.  With the
    # filtering enhancement, restrict further to each PE's local subgraph's
    # MSF -- by the cycle property no other local edge can ever be a cut
    # minimum.  One filter call per PE: each draws its pivots from its own
    # generator and sizes its base case from its own vertex count.  It
    # reads one copy of each local edge, ``u < v``, plus every row into a
    # shared vertex, whose reverse copy may sit on the neighbouring PE.
    candidate = v_local
    if use_filter:
        candidate = np.zeros(len(e), dtype=bool)
        for i in np.flatnonzero(np.diff(offsets)).tolist():
            a, r0, r1 = offsets[i], run_off[i], run_off[i + 1]
            cpos = np.flatnonzero(v_local[a:offsets[i + 1]])
            cpos = cpos[(e.u[a + cpos] < e.v[a + cpos])
                        | shared_mask[r0 + v_at[a + cpos]]]
            if len(cpos) == 0:
                continue
            at_u = np.searchsorted(runs[r0:r1], a + cpos, side="right") - 1
            dense = Edges(at_u.astype(idx_dt), v_at[a + cpos].astype(idx_dt),
                          e.w[a + cpos], cpos)
            msf = (filter_boruvka_msf if len(dense) > 64 else kruskal_msf)(
                dense, int(r1 - r0))
            candidate[a + msf.id] = True  # ids were candidate positions
            del cpos, at_u, dense, msf

    # Rows that participate in min computations: candidates + cut edges.
    # Only they get a (PE, vertex) index.
    e_pos = np.flatnonzero(candidate | ~v_local)
    e_pe = (np.searchsorted(offsets, e_pos, side="right") - 1).astype(idx_dt)
    e_u = (np.searchsorted(runs, e_pos, side="right") - 1).astype(idx_dt)
    e_v = np.where(v_local[e_pos],
                   (run_off[e_pe] + v_at[e_pos]).astype(idx_dt),
                   idx_dt(-1))   # -1 for ghosts
    e_w = e.w[e_pos]
    e_cand = candidate[e_pos]
    ghost_label = e.v[e_pos]     # actual labels for canonical tie keys
    e_pos = e_pos.astype(idx_dt, copy=False)
    del candidate

    found = []  # (PE, block row) of every hook, round by round
    rounds = np.zeros(p, dtype=np.int64)
    live = np.diff(offsets) > 0
    while live.any():
        rounds += live
        cu = comp[e_u]
        cv = np.where(e_v >= 0, comp[np.maximum(e_v, 0)], idx_dt(-1))
        label_u = vids[cu]
        label_v = np.where(e_v >= 0, vids[np.maximum(cv, 0)], ghost_label)
        # Self-loop edges stay dead forever (components only grow), and a
        # stopped PE's rows are done: drop both before the scans below.
        keep = np.flatnonzero((label_u != label_v) & live[e_pe])
        if len(keep) < len(e_u):
            e_u, e_v, e_w, e_pe = e_u[keep], e_v[keep], e_w[keep], e_pe[keep]
            e_pos, e_cand = e_pos[keep], e_cand[keep]
            ghost_label = ghost_label[keep]
            cu, cv = cu[keep], cv[keep]
            label_u, label_v = label_u[keep], label_v[keep]
        del keep
        live &= np.bincount(e_pe, minlength=p) > 0  # no live row: stop
        if not live.any():
            break
        # Group candidates by component: local edges feed both sides' groups,
        # cut edges only the source side.  The tie key is built from the
        # actual labels.  A group's entries keep their per-PE order in
        # ``sel``, so its lightest row is the one its PE alone would pick.
        both = cv >= 0
        grp = np.concatenate([cu, cv[both]])
        sel = np.concatenate([np.arange(len(cu), dtype=idx_dt),
                              np.flatnonzero(both).astype(idx_dt,
                                                          copy=False)])
        del both
        groups, pick = lightest_per_group(grp, label_u[sel], label_v[sel],
                                          e_w[sel], n)
        chosen = sel[pick]  # row into the compacted arrays
        del grp, sel, pick, label_u, label_v
        # An untainted component whose minimum is a contractible (local
        # MSF) edge hooks onto the component at its other end.  A tainted
        # component's root is its shared vertex, so the initial mask is
        # the taint of every root.
        ok = ~shared_mask[groups] & e_cand[chosen]
        chooser, rows = groups[ok], chosen[ok]
        del groups, chosen, ok
        target = np.where(cu[rows] == chooser, cv[rows], cu[rows])
        roots, parent_map = contract_pseudo_forest(chooser, target, n)
        comp = parent_map[comp].astype(idx_dt, copy=False)
        won = np.unique(rows[~roots])
        del chooser, rows, target, roots, parent_map
        found.append(np.stack([e_pe[won], e_pos[won]]))
        live &= np.bincount(e_pe[won], minlength=p) > 0  # no hook: stop
        if live.any() and rounds.max() > 64:
            raise RuntimeError("local preprocessing failed to converge")

    labels = vids[comp]
    pes, pos = np.concatenate([np.empty((2, 0), idx_dt)] + found, axis=1)
    pos = pos[np.argsort(pes, kind="stable")]
    mst_off = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(np.bincount(pes, minlength=p), out=mst_off[1:])
    return (labels, e.id[pos].astype(np.int64), e.w[pos].astype(np.int64),
            mst_off, rounds)


def sort_parts(e: Edges, offsets: np.ndarray) -> Edges:
    """Every part sorted lexicographically, in one stable sort keyed
    ``(PE, u, v, w)``: each part's rows in the order its own stable
    :meth:`Edges.sort_lex` gives."""
    p = len(offsets) - 1
    pes = np.repeat(np.arange(p, dtype=index_dtype(p)), np.diff(offsets))
    return e.take(packed_lexsort((e.w, e.v, e.u, pes)))


def drop_parallel(e: Edges, offsets: np.ndarray
                  ) -> Tuple[Edges, np.ndarray]:
    """Keep the first row of every run of equal ``(u, v)`` within each of
    the sorted parts -- its lightest copy; returns the kept rows and their
    offsets."""
    dup = np.zeros(len(e), dtype=bool)
    dup[1:] = (e.u[1:] == e.u[:-1]) & (e.v[1:] == e.v[:-1])
    starts = offsets[:-1]
    dup[starts[starts < len(e)]] = False  # runs end at part boundaries
    keep = np.flatnonzero(~dup)
    return e.take(keep), np.searchsorted(keep, offsets)


def local_preprocessing(graph: DistGraph, run: MSTRun) -> DistGraph:
    """Run the full preprocessing step; returns the contracted graph.

    No-op (returns ``graph``) when the local-edge fraction is below the
    configured threshold.
    """
    p = graph.machine.n_procs
    machine = graph.machine
    cfg = run.cfg

    # ---- Quick locality check (skip rule, Section VI-B). ----
    off = graph.offsets
    lengths = np.diff(off)
    v_at, v_local = block_destinations(graph)
    nz = np.flatnonzero(lengths)
    machine.charge_scan(lengths[nz], ranks=nz)
    total_local = run.comm.allreduce(
        np.bincount(graph.row_pes()[v_local], minlength=p).tolist())
    total_edges = run.comm.allreduce(lengths.tolist())
    if total_edges == 0:
        return graph
    if total_local / total_edges < cfg.preprocessing_min_local_fraction:
        return graph

    # ---- Contraction on every PE (communication-free). ----
    runs, run_off = graph.source_runs(), graph.run_offsets()
    vids = graph.edges.u[runs]
    labels, ids, ws, mst_off, rounds = _contract_block(
        graph.edges, off, runs, run_off, v_at, v_local,
        np.isin(vids, graph.shared_vertex_set()), cfg.preprocessing_filter)
    del v_at, v_local
    run.record_mst_parts(ids, ws, mst_off)
    run.record_labels_parts(vids, labels, run_off)
    machine.charge_sort(np.maximum(lengths, 1))
    machine.charge_scan(lengths * np.maximum(rounds, 1))

    # ---- Refresh ghost labels and relabel (Sections IV-B/IV-C). ----
    state = (graph, vids, labels, run_off)
    edges, offsets = relabel(*state, exchange_labels(*state, run), run)

    # ---- Local resort + parallel-edge elimination. ----
    edges = sort_parts(edges, offsets)
    sizes = np.diff(offsets)
    machine.charge_sort(np.maximum(sizes, 1))
    edges, offsets = _dedup(edges, offsets, machine, cfg,
                            np.flatnonzero(sizes))

    # ---- Boundary repair: move shared-vertex runs to the first PE of their
    # span in the input graph (the first with a last source at or past
    # them), even where that PE kept none of their rows. ----
    full = np.flatnonzero(graph.has_edges)
    home = full[np.searchsorted(graph.last_src[full], edges.u)]
    edges, offsets, received = move_home(run.comm, edges, offsets, home,
                                         cfg.alltoall)
    got = np.flatnonzero(received)
    if len(got):
        machine.charge_sort(np.diff(offsets)[got], ranks=got)
        edges, offsets = _dedup(edges, offsets, machine, cfg, got)
    return DistGraph(machine, edges, offsets, check=False)


def _dedup(e: Edges, offsets: np.ndarray, machine, cfg, ranks: np.ndarray
           ) -> Tuple[Edges, np.ndarray]:
    """:func:`drop_parallel` on sorted parts, charged on the PEs ``ranks``
    that hold more than one row.

    With ``cfg.hash_dedup`` the paper's hash-based scheme is *charged*: the
    lightest ``hash_dedup_fraction`` of the edges go into a hash table keyed
    by (u, v); one scan filters the rest; only survivors are sorted.  The
    resulting edge set is identical to sort-based dedup (keep the lightest
    per (u, v)); only the cost accounting differs, mirroring the up-to-2.5x
    win reported in Section VI-B.
    """
    out, out_off = drop_parallel(e, offsets)
    before = np.diff(offsets)
    ranks = ranks[before[ranks] > 1]
    if len(ranks) == 0:
        return out, out_off
    before = before[ranks]
    if cfg.hash_dedup:
        light = (before * cfg.hash_dedup_fraction).astype(np.int64) + 1
        machine.charge_hash(light + before, ranks=ranks)
        machine.charge_sort(np.maximum(np.diff(out_off)[ranks], 1),
                            ranks=ranks)
    else:
        machine.charge_sort(before, ranks=ranks)
        machine.charge_scan(before, ranks=ranks)
    return out, out_off
