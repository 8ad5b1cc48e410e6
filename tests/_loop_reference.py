"""The per-PE reference loops, kept as the oracle of the flat hot paths.

Until ISSUE 21 every rewritten hot path existed twice under ``src/``: a flat
implementation over all PEs at once (``batched``) and the original
``for i in range(p)`` loop (``inprocess``), picked per machine by
``REPRO_ENGINE`` / ``Machine(engine=...)``.  Production now carries the flat
implementation only.  This module keeps the loop arms, verbatim, as what
the differential tests compare against:

* site by site (``tests/test_loop_oracles.py``): the production function
  and its oracle run on two identically seeded machines; outputs and
  dtypes, clocks, collective and byte counters, trace events and fault
  draws must agree;
* whole runs (``helpers.assert_engines_agree``): ``helpers.loop_oracles()``
  rebinds, in every loaded ``repro.*`` module, each attribute that *is* a
  production function of :data:`ORACLES` to its oracle, so a complete
  algorithm runs on the loops, and must reproduce the production run's
  weights, per-PE clocks, phase times and ``CommTrace`` bit for bit.

Where the fork sat inside a function (``route_rows``, Awerbuch-Shiloach's
``_resolve``) the whole function is kept with the loop arm in place.  The
oracles call each other (``_contract_loop`` routes through this module's
``route_rows``), so a site-level run exercises the loop path all the way
down.  Only the selector differs from the code as it was shipped:
``local_lexsort_parts`` lost the ``machine`` argument that picked the arm.

REDISTRIBUTE's sort now charges its exchanges from count matrices and cuts
one stably sorted block instead of moving rows.  The row-moving versions it
replaced are kept here as shipped -- ``sort_samplesort`` (local sort, route,
re-sort), ``rebalance_blocks`` (a second route) and ``redistribute`` with
its per-PE ``dedup_sorted_parts`` and ``_drop_boundary_duplicates`` pass --
calling this module's ``route_rows`` and ``local_lexsort_parts``.

Local preprocessing and the MST output now read what the host already
holds.  The versions they replaced are kept here as shipped: the per-PE
``_contract_one_pe`` that searched its own vertex layout (registered through
an adapter taking the production arguments and ignoring the layout), and the
varint ``InputSnapshot`` with the ``redistribute_mst`` that decodes it.

The request/reply rounds (contraction's pointer doubling, the P array,
Awerbuch-Shiloach's ``_resolve``) and EXCHANGELABELS' push are now charged
from their count matrices and answered in one host gather
(``repro.simmpi.alltoall.ask`` / ``account``).  The routed versions they
replaced are kept here as shipped: ``_contract_routed``,
``_exchange_labels_routed``, ``_resolve_routed`` and the per-PE
``DistributedLabelArray``.  The first three are second oracles of a site
that already has a loop oracle, so :data:`ORACLES` lists them after it and
``helpers.loop_oracles`` takes them only when named.

The many-PE paths read one host structure per round instead of ``p``, and
the versions they replaced are kept here as shipped: EXCHANGELABELS
building ``p`` ``GhostTable``s and the RELABEL that looks up in them
(``_exchange_labels_ghost_tables``, ``_relabel_ghost_tables``; third and
second oracles of their sites, and ``ghost_tables`` reads a production
push as those tables), the hypercube's per-node ``account`` replay with one
sort charge per leaf (``_replay_per_node``), the base case with its
one-rank charge loops and the pairwise ``_row_min`` that ``Comm`` folds,
and the per-PE ``Generator`` draws (``sample_positions``, drawing through
``generator_integers`` from the machine's own streams).

The graph is one resident block plus offsets, and the round passes flat
``(arrays, offsets)`` state from stage to stage.  The list forms stay here
as shipped, each wrapped by a thin flat <-> list adapter (``_chosen_out``,
``_chosen_in``, ``_lists_in``, ``_kept_out``, ``_parts_in``, ``_msf_views``,
``_flat_request``, ``_split_out``) so ``loop_oracles`` still substitutes
it: the per-PE ``ChosenEdges`` and ``_empty_chosen``, the per-part checks
and metadata of ``DistGraph`` (``check_weights``, ``check_local_sorted``,
``check_global_sorted``, ``part_records``, ``local_vertex_counts``),
``from_global_edges``' takes (``from_global_edges_takes``) and its
row-by-row ``avoid_shared`` loop (``shared_free_bounds``), Filter-Borůvka's
``_split_by_pivot``, and the snapshot holding the parts with the routed
REDISTRIBUTEMST (``InputSnapshotParts``, ``redistribute_mst_routed``;
second oracles of their sites).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.competitors.awerbuch_shiloach import _lo
from repro.core.base_case import INF
from repro.core.labels import LabelPush
from repro.core.local_preprocessing import _TaintedUnionFind
from repro.core.minedges import ChosenEdges as FlatChosenEdges
from repro.core.state import MSTRun
from repro.dgraph.dist_graph import DistGraph, split_edges
from repro.dgraph.edges import (WEIGHT_LIMIT, Edges,
                                lightest_per_group, tie_key)
from repro.dgraph.search import lex_searchsorted, sorted_lookup
from repro.kernels import (RaggedArrays, segmented_lookup, segmented_run_starts,
                           segmented_unique)
from repro.kernels.segmented import packed_lexsort
from repro.simmpi.alltoall import ALLTOALL_METHODS, SendBlock, account, unsort
from repro.simmpi.collectives import Comm
from repro.simmpi.machine import Machine
from repro.sorting.api import sort_rows
from repro.sorting.common import local_lexsort
from repro.sorting.hypercube import (_EMPTY, _SPLIT, _SPREAD, _Level, _Node,
                                     _group_block, sort_hypercube)
from repro.sorting.samplesort import OVERSAMPLING
from repro.seq.boruvka import contract_pseudo_forest
from repro.seq.filter_kruskal import filter_boruvka_msf
from repro.seq.kruskal import kruskal_msf
from repro.utils.partition import block_bounds, owner_of
from repro.utils.varint import CompressedEdgeList


# ----------------------------------------------------------------------
# Flat <-> list adapters.  Production hands every PE's state on laid end
# to end with ``p + 1`` offsets; the oracles keep their per-PE lists.
# Each decorator wraps one oracle (keeping its name, which
# ``loop_oracles(only=...)`` matches) so it takes and returns the flat form.
# ----------------------------------------------------------------------
def _split(flat, off) -> list:
    """``flat[off[i]:off[i + 1]]`` for every ``i``."""
    off = np.asarray(off).tolist()
    return [flat[a:b] for a, b in zip(off[:-1], off[1:])]


def _offsets(arrays) -> np.ndarray:
    """``len(arrays) + 1`` offsets of the arrays laid end to end."""
    off = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in arrays], out=off[1:])
    return off


def _flat(arrays, like: np.ndarray) -> np.ndarray:
    """The non-empty arrays laid end to end (``like[:0]`` when none): an
    empty PE's placeholder never sets the dtype."""
    full = [a for a in arrays if len(a)]
    return np.concatenate(full) if full else like[:0]


def _chosen_out(fn):
    """A per-PE MINEDGES returning the flat :class:`FlatChosenEdges`."""
    @functools.wraps(fn)
    def flat(graph):
        per_pe, e = fn(graph), graph.edges
        return FlatChosenEdges(
            vids=_flat([c.vids for c in per_pe], e.u),
            shared=_flat([c.shared for c in per_pe], np.zeros(0, bool)),
            to=_flat([c.to for c in per_pe], e.v),
            weight=_flat([c.weight for c in per_pe], e.w),
            edge_id=_flat([c.edge_id for c in per_pe], e.id),
            voff=_offsets([c.vids for c in per_pe]))
    return flat


def _chosen_in(fn):
    """A per-PE contraction taking and returning the flat forms."""
    @functools.wraps(fn)
    def flat(graph, chosen, run):
        cols = [_split(getattr(chosen, f), chosen.voff)
                for f in ("vids", "shared", "to", "weight", "edge_id")]
        labels = fn(graph, [ChosenEdges(*c) for c in zip(*cols)], run)
        return _flat(labels, np.where(chosen.shared, chosen.vids,
                                      chosen.to))
    return flat


def _lists_in(fn):
    """A per-PE label stage called with flat ``(vids, labels, voff)``."""
    @functools.wraps(fn)
    def flat(graph, vids, labels, voff, *rest):
        return fn(graph, _split(vids, voff), _split(labels, voff), *rest)
    return flat


def _kept_out(fn):
    """A RELABEL returning per-PE ``Edges``, returning the kept block (in
    the dtypes production keeps: the labels' for sources, the edges'
    otherwise) and its offsets."""
    @functools.wraps(fn)
    def flat(graph, vids, labels, voff, *rest):
        parts, e = fn(graph, vids, labels, voff, *rest), graph.edges
        return Edges(*(_flat([getattr(x, c) for x in parts], like)
                       for c, like in (("u", labels), ("v", e.v),
                                       ("w", e.w), ("id", e.id)))), \
            _offsets(parts)
    return flat


def _parts_in(fn):
    """A per-PE REDISTRIBUTE called with ``(block, offsets)``."""
    @functools.wraps(fn)
    def flat(run, machine, edges, offsets, check=False):
        return fn(run, machine, split_edges(edges, offsets), check)
    return flat


def _msf_views(fn):
    """A per-PE REDISTRIBUTEMST returning views of one id-sorted block."""
    @functools.wraps(fn)
    def flat(run, snapshot):
        parts = fn(run, snapshot)
        return split_edges(Edges.concat(parts), _offsets(parts))
    return flat


def _flat_request(fn):
    """A per-PE REQUESTLABELS called with flat ``(keys, seg)``."""
    @functools.wraps(fn)
    def flat(self, keys, seg):
        off = np.searchsorted(seg, np.arange(self.p + 1))
        return _flat(fn(self, _split(keys, off)), np.empty(0, np.int64))
    return flat


# ----------------------------------------------------------------------
# dgraph/dist_graph.py: the per-part checks and metadata, the takes of
# from_global_edges and its row-by-row ``avoid_shared`` loop
# ----------------------------------------------------------------------
def check_weights(edges: Edges, offsets: np.ndarray) -> None:
    parts = split_edges(edges, offsets)
    for i, part in enumerate(parts):
        if len(part) and int(part.w.max()) >= WEIGHT_LIMIT:
            raise ValueError(
                f"part {i} holds edge weight {int(part.w.max())}; "
                f"weights must be below 2^62 (WEIGHT_LIMIT)")


def check_local_sorted(edges: Edges, offsets: np.ndarray) -> None:
    parts = split_edges(edges, offsets)
    for i, part in enumerate(parts):
        if not part.is_sorted_lex():
            raise ValueError(f"part {i} is not lexicographically sorted")


def check_global_sorted(edges: Edges, offsets: np.ndarray) -> None:
    parts = split_edges(edges, offsets)
    prev_last = None
    for i, part in enumerate(parts):
        if len(part) == 0:
            continue
        first = (int(part.u[0]), int(part.v[0]), int(part.w[0]))
        if prev_last is not None and first < prev_last:
            raise ValueError(
                f"global sortedness violated at PE {i}: {first} < {prev_last}"
            )
        prev_last = (int(part.u[-1]), int(part.v[-1]), int(part.w[-1]))


def part_records(edges: Edges, offsets: np.ndarray) -> np.ndarray:
    parts = split_edges(edges, offsets)
    p = len(parts)
    # One record per PE: [has edges, first u, v, w, last u, size].
    records = np.zeros((p, 6), dtype=np.int64)
    records[:, 5] = np.fromiter(map(len, parts), np.int64, count=p)
    full = np.flatnonzero(records[:, 5])
    if len(full):
        records[full, :5] = [
            (1, part.u[0], part.v[0], part.w[0], part.u[-1])
            for part in (parts[i] for i in full.tolist())]
    return records


def shared_free_bounds(u: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    bounds = np.array(bounds, dtype=np.int64)
    m = len(u)
    p = len(bounds) - 1
    for i in range(1, p):
        b = bounds[i]
        # Advance to the first edge with a new source vertex.
        while 0 < b < m and u[b] == u[b - 1]:
            b += 1
        bounds[i] = max(b, bounds[i - 1])
    bounds[p] = m
    return bounds


def local_vertex_counts(graph: DistGraph) -> np.ndarray:
    """``DistGraph.local_vertex_counts`` as a loop over the parts."""
    return np.array(
        [np.count_nonzero(part.u[1:] != part.u[:-1]) + 1 if len(part)
         else 0 for part in graph.parts],
        dtype=np.int64,
    )


def from_global_edges_takes(machine: Machine, edges: Edges,
                            avoid_shared: bool = False) -> DistGraph:
    """``DistGraph.from_global_edges`` cutting its parts with ``p`` takes."""
    p = machine.n_procs
    m = len(edges)
    if edges.is_sorted_lex() and (
            m == 0 or (int(edges.id[0]) == 0
                       and int(edges.id[-1]) == m - 1
                       and np.array_equal(
                           edges.id,
                           np.arange(m, dtype=edges.id.dtype)))):
        g = edges
    else:
        g = edges.sort_lex()
        g.id[:] = np.arange(m, dtype=np.int64)
    bounds = np.linspace(0, m, p + 1).astype(np.int64)
    if avoid_shared and m:
        for i in range(1, p):
            b = bounds[i]
            # Advance to the first edge with a new source vertex.
            while 0 < b < m and g.u[b] == g.u[b - 1]:
                b += 1
            bounds[i] = max(b, bounds[i - 1])
        bounds[p] = m
    parts = [g.take(np.arange(bounds[i], bounds[i + 1]))
             for i in range(p)]
    return DistGraph.from_parts(machine, parts)


# ----------------------------------------------------------------------
# simmpi/alltoall.py: route_rows
# ----------------------------------------------------------------------
def route_rows(
    comm: Comm,
    rows_per_pe: Sequence[np.ndarray],
    dest_per_row: Sequence[np.ndarray],
    method: str = "auto",
) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
    """Deliver arbitrary per-PE rows to per-row destination ranks.

    This is the workhorse wrapper the algorithms use: it sorts each PE's rows
    by destination (stable), performs the exchange, and returns

    ``recv_rows``
        per-PE received rows (source-major, per-pair order preserved),
    ``recv_src``
        per-PE source rank of every received row, and
    ``send_order``
        the permutation applied to each sender's rows.  Because replies to a
        request arrive back in exactly the order requests were sent (both
        directions are source/destination-major with per-pair order
        preserved), ``reply[invert_permutation(send_order)]`` restores the
        original query order -- see :func:`unsort`.
    """
    size = comm.size
    fn = ALLTOALL_METHODS[method]
    sendbufs: List[np.ndarray] = []
    sendcounts: List[np.ndarray] = []
    orders: List[np.ndarray] = []
    for i in range(size):
        dest = np.asarray(dest_per_row[i], dtype=np.int64)
        rows = np.atleast_1d(rows_per_pe[i])
        if len(dest) != len(rows):
            raise ValueError(
                f"PE {i}: {len(rows)} rows but {len(dest)} destinations"
            )
        order = np.argsort(dest, kind="stable")
        counts = np.zeros(size, dtype=np.int64)
        if len(dest):
            np.add.at(counts, dest, 1)
        sendbufs.append(rows[order])
        sendcounts.append(counts)
        orders.append(order)
    recvbufs, recvcounts = fn(comm, sendbufs, sendcounts)
    recv_src = [np.repeat(np.arange(size), rc) for rc in recvcounts]
    return recvbufs, recv_src, orders


# ----------------------------------------------------------------------
# core/minedges.py: min_edges, and the per-PE result it returned
# ----------------------------------------------------------------------
@dataclass
class ChosenEdges:
    """Per-PE result of MINEDGES.

    Arrays are aligned with the PE's *local vertex list* ``vids`` (all
    distinct sources of the part, shared or not).  For shared vertices (mask
    ``shared``) no edge is chosen and the edge fields are undefined.
    """

    vids: np.ndarray        # sorted distinct local vertex ids
    shared: np.ndarray      # bool: vertex is globally shared
    to: np.ndarray          # chosen edge's other endpoint
    weight: np.ndarray      # chosen edge's weight
    edge_id: np.ndarray     # chosen edge's original directed-edge id

    def __len__(self) -> int:
        return len(self.vids)


def _empty_chosen() -> ChosenEdges:
    z = np.empty(0, dtype=np.int64)
    return ChosenEdges(z, np.zeros(0, dtype=bool), z.copy(), z.copy(),
                       z.copy())


def min_edges_one_pe(u: np.ndarray, v: np.ndarray, w: np.ndarray,
                     eid: np.ndarray, starts: np.ndarray):
    """Pure per-PE MINEDGES kernel: pick one edge per vertex group.

    ``starts`` delimits the contiguous per-source groups of the (sorted)
    part, exactly as returned by ``DistGraph.vertex_groups``.  Returns
    ``(to, weight, edge_id)`` aligned with the groups.  Pure function of its
    arguments -- no machine, RNG or cost-model access.
    """
    # Group index of every edge (groups are contiguous by sortedness).
    group = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    cu = np.minimum(u, v)
    cv = np.maximum(u, v)
    order = packed_lexsort((cv, cu, w, group))
    g_sorted = group[order]
    first = np.ones(len(g_sorted), dtype=bool)
    first[1:] = g_sorted[1:] != g_sorted[:-1]
    pick = order[first]  # one edge index per group, in group order
    return v[pick], w[pick], eid[pick]


@_chosen_out
def _min_edges_loop(graph: DistGraph) -> List[ChosenEdges]:
    """Reference engine: one numpy pass per PE."""
    shared_set = graph.shared_vertex_set()
    out: List[ChosenEdges] = []
    for i in range(graph.machine.n_procs):
        part = graph.parts[i]
        vids, starts = graph.vertex_groups(i)
        if len(vids) == 0:
            out.append(_empty_chosen())
            continue
        to, weight, edge_id = min_edges_one_pe(
            np.asarray(part.u), np.asarray(part.v), np.asarray(part.w),
            np.asarray(part.id), starts)
        shared = np.isin(vids, shared_set, assume_unique=True)
        out.append(ChosenEdges(
            vids=vids,
            shared=shared,
            to=to,
            weight=weight,
            edge_id=edge_id,
        ))
        graph.machine.charge_scan(np.array([len(part)]),
                                  ranks=np.array([i]))
    return out


# ----------------------------------------------------------------------
# core/contraction.py: contract_components
# ----------------------------------------------------------------------
@_chosen_in
def _contract_loop(
    graph: DistGraph,
    chosen: List[ChosenEdges],
    run: MSTRun,
) -> List[np.ndarray]:
    """Reference engine: per-PE loops around every exchange."""
    p = graph.machine.n_procs
    comm = run.comm
    shared_set = graph.shared_vertex_set()

    parent: List[np.ndarray] = []
    is_root: List[np.ndarray] = []
    pending: List[np.ndarray] = []  # bool masks
    for i in range(p):
        ch = chosen[i]
        par = np.where(ch.shared, ch.vids, ch.to)
        root = ch.shared.copy()
        # Paper special case: a parent that is a shared vertex is known to be
        # a component root -- finalise locally, no request needed.
        parent_shared = np.isin(par, shared_set)
        pend = ~ch.shared & ~parent_shared
        parent.append(par)
        is_root.append(root)
        pending.append(pend)

    # ------------------------------------------------------------------
    # Pointer-doubling rounds.
    # ------------------------------------------------------------------
    max_rounds = run.cfg.max_rounds
    for round_no in range(max_rounds):
        n_pending = comm.allreduce([int(m.sum()) for m in pending])
        if n_pending == 0:
            break
        # Build deduplicated queries: distinct parent targets per PE.
        queries, inverse_maps, dests = [], [], []
        for i in range(p):
            targets = parent[i][pending[i]]
            uniq, inv = np.unique(targets, return_inverse=True)
            queries.append(uniq)
            inverse_maps.append(inv)
            dests.append(graph.home_of_vertices(uniq))
        recv, recv_src, orders = route_rows(
            comm, queries, dests, method=run.cfg.alltoall
        )
        # Answer from the state at round start (BSP semantics).
        replies = []
        for i in range(p):
            q = recv[i]
            if len(q) == 0:
                replies.append(np.empty((0, 2), dtype=np.int64))
                continue
            found, idx = sorted_lookup(chosen[i].vids, q)
            if not found.all():
                raise RuntimeError(
                    f"PE {i}: pointer-doubling query for non-resident vertex"
                )
            pv = parent[i][idx]
            replies.append(np.stack([q, pv], axis=1))
            graph.machine.charge_hash(np.array([len(q)]),
                                      ranks=np.array([i]))
        back, _, _ = route_rows(comm, replies, recv_src,
                                method=run.cfg.alltoall)
        # Apply: each pending u with target v learns pv = parent(v).
        for i in range(p):
            if len(queries[i]) == 0:
                continue
            ordered = unsort(orders[i], back[i])  # aligned with queries[i]
            assert np.array_equal(ordered[:, 0], queries[i])
            pv_per_query = ordered[:, 1]
            pend_idx = np.flatnonzero(pending[i])
            u = chosen[i].vids[pend_idx]
            v = parent[i][pend_idx]
            pv = pv_per_query[inverse_maps[i]]
            # 2-cycle: v's parent is u itself; root at the smaller label.
            cyc = pv == u
            win = cyc & (u < v)
            lose = cyc & ~win
            parent[i][pend_idx[win]] = u[win]
            is_root[i][pend_idx[win]] = True
            pending[i][pend_idx[win]] = False
            parent[i][pend_idx[lose]] = v[lose]
            pending[i][pend_idx[lose]] = False
            # Regular doubling: adopt pv; finalise when v was a root or the
            # new parent is a shared vertex (local check, paper IV-B).
            reg = ~cyc
            parent[i][pend_idx[reg]] = pv[reg]
            v_is_root = pv == v
            new_shared = np.isin(pv, shared_set)
            done = reg & (v_is_root | new_shared)
            pending[i][pend_idx[done]] = False
            graph.machine.charge_scan(np.array([len(pend_idx)]),
                                      ranks=np.array([i]))
    else:
        raise RuntimeError("pointer doubling failed to converge")

    # ------------------------------------------------------------------
    # Record MST edges and label maps.
    # ------------------------------------------------------------------
    for i in range(p):
        ch = chosen[i]
        contributes = ~ch.shared & ~is_root[i]
        run.record_mst(i, ch.edge_id[contributes], ch.weight[contributes])
        run.record_labels(i, ch.vids, parent[i])
    return parent


# ----------------------------------------------------------------------
# core/labels.py: exchange_labels, relabel
# ----------------------------------------------------------------------
@dataclass
class GhostTable:
    """Sorted ghost-vertex -> new-label mapping for one PE."""

    ghosts: np.ndarray
    labels: np.ndarray

    def lookup(self, v: np.ndarray) -> np.ndarray:
        """New labels of the given ghost vertices (all must be present)."""
        found, idx = sorted_lookup(self.ghosts, v)
        if not found.all():
            missing = np.asarray(v)[~found][:5]
            raise RuntimeError(f"ghost labels missing for vertices {missing}")
        return self.labels[idx]


def _source_labels(eu: np.ndarray, off: np.ndarray, voff: np.ndarray,
                   labels: np.ndarray) -> np.ndarray:
    """New label of every edge's source, read off the layout.

    Parts are sorted by source, so the k-th run of equal sources of part
    ``i`` is the k-th entry of ``vids_per_pe[i]``: repeating each label over
    its run replaces a per-edge binary search.  Raises when the vertex
    lists are not the parts' own vertex groups (a different number of
    entries than runs on some PE), which would shift every label behind it.
    """
    starts = np.flatnonzero(segmented_run_starts(eu, off))
    runs_before = np.searchsorted(starts, off)
    if not np.array_equal(runs_before, voff):
        bad = int(np.flatnonzero(runs_before != voff)[0]) - 1
        raise ValueError(
            f"vids_per_pe[{bad}] is not part {bad}'s vertex groups: "
            f"{int(voff[bad + 1] - voff[bad])} entries for "
            f"{int(runs_before[bad + 1] - runs_before[bad])} distinct sources")
    return np.repeat(labels, np.diff(starts, append=len(eu)))


@_lists_in
def _exchange_labels_loop(
    graph: DistGraph,
    vids_per_pe: List[np.ndarray],
    labels_per_pe: List[np.ndarray],
    run: MSTRun,
) -> List[GhostTable]:
    """Reference engine: one numpy pass per PE around one exchange."""
    p = graph.machine.n_procs
    payloads, dests = [], []
    for i in range(p):
        part = graph.parts[i]
        vids = vids_per_pe[i]
        if len(part) == 0:
            payloads.append(np.empty((0, 2), dtype=np.int64))
            dests.append(np.empty(0, dtype=np.int64))
            continue
        # Home PE of every reverse edge (v, u, w).  The label of u must be
        # pushed wherever the reverse edge lives on a *different* PE.  This
        # covers all cut edges (the paper's rule) plus the corner case where
        # an edge is local here because its destination is a shared vertex,
        # while the shared vertex's other PE holds the reverse edge as a cut
        # edge and still needs our source's label.
        home_all = graph.home_of_edges(part.v, part.u, part.w)
        cut = home_all != i
        cu, cw = part.u[cut], part.w[cut]
        home = home_all[cut]
        # New label of the edge's source.
        src_idx = np.searchsorted(vids, cu)
        lab = labels_per_pe[i][src_idx]
        # Deduplicate per (destination PE, vertex).
        key = np.stack([home, cu], axis=1)
        _, uniq_idx = np.unique(key, axis=0, return_index=True)
        payloads.append(np.stack([cu[uniq_idx], lab[uniq_idx]], axis=1))
        dests.append(home[uniq_idx])
        graph.machine.charge_scan(np.array([len(part)]), ranks=np.array([i]))
        graph.machine.charge_sort(np.array([max(len(cu), 1)]),
                                  ranks=np.array([i]))
    recv, _, _ = route_rows(run.comm, payloads, dests,
                            method=run.cfg.alltoall)
    tables: List[GhostTable] = []
    for i in range(p):
        rows = recv[i]
        if len(rows) == 0:
            z = np.empty(0, dtype=np.int64)
            tables.append(GhostTable(z, z.copy()))
            continue
        order = np.argsort(rows[:, 0], kind="stable")
        g = rows[order, 0]
        l = rows[order, 1]
        first = np.ones(len(g), dtype=bool)
        first[1:] = g[1:] != g[:-1]
        tables.append(GhostTable(g[first], l[first]))
        graph.machine.charge_hash(np.array([len(rows)]), ranks=np.array([i]))
    return tables


def _relabel_one_pe(u, v, w, eid, vids, labels, ghosts, glabels):
    """Pure per-PE RELABEL kernel: rewrite endpoints, drop self loops.

    ``(ghosts, glabels)`` is the PE's ghost table as two sorted arrays.
    Returns the kept ``(u', v', w, id)`` columns.  Pure function of its
    arguments -- no machine, RNG or cost access.
    """
    # Source labels: every source is local by definition.
    u_new = labels[np.searchsorted(vids, u)]
    # Destination labels: local lookup where possible, ghosts otherwise.
    v_local, idx = sorted_lookup(vids, v)
    v_new = np.empty(len(v), dtype=np.result_type(labels, v))
    v_new[v_local] = labels[idx[v_local]]
    miss = ~v_local
    if miss.any():
        g_found, g_idx = sorted_lookup(ghosts, v[miss])
        if not g_found.all():
            missing = np.asarray(v)[miss][~g_found][:5]
            raise RuntimeError(f"ghost labels missing for vertices {missing}")
        v_new[miss] = glabels[g_idx]
    keep = u_new != v_new
    return u_new[keep], v_new[keep], w[keep], eid[keep]


@_kept_out
@_lists_in
def _relabel_loop(
    graph: DistGraph,
    vids_per_pe: List[np.ndarray],
    labels_per_pe: List[np.ndarray],
    ghost_tables: List[GhostTable],
    run: MSTRun,
) -> List[Edges]:
    """Reference engine: one numpy pass per PE."""
    p = graph.machine.n_procs
    out: List[Edges] = []
    for i in range(p):
        part = graph.parts[i]
        if len(part) == 0:
            out.append(Edges.empty())
            continue
        ku, kv, kw, kid = _relabel_one_pe(
            np.asarray(part.u), np.asarray(part.v), np.asarray(part.w),
            np.asarray(part.id), vids_per_pe[i], labels_per_pe[i],
            ghost_tables[i].ghosts, ghost_tables[i].labels)
        out.append(Edges(ku, kv, kw, kid))
        graph.machine.charge_scan(np.array([len(part)]), ranks=np.array([i]))
    return out


# ----------------------------------------------------------------------
# core/redistribute.py: redistribute, as shipped before the sort was
# charged from counts (rows moved, per-PE dedup plus a boundary pass)
# ----------------------------------------------------------------------
def dedup_sorted_parts(parts: List[np.ndarray]) -> List[np.ndarray]:
    """Per PE, keep the first (= lightest) edge of every consecutive
    ``(u, v)`` group -- one flat pass over all parts.

    The segment-change guard keeps boundary-straddling groups intact on both
    sides (the boundary copies are dropped later by
    :func:`_drop_boundary_duplicates`).
    """
    r = RaggedArrays.from_arrays(parts)
    flat = r.flat
    if len(flat) <= 1:
        return list(parts)
    seg = r.segment_ids()
    same = ((flat[1:, 0] == flat[:-1, 0]) & (flat[1:, 1] == flat[:-1, 1])
            & (seg[1:] == seg[:-1]))
    keep = np.concatenate(([True], ~same))
    kept = flat[keep]
    counts = np.bincount(seg[keep], minlength=r.n_segments)
    koff = np.zeros(r.n_segments + 1, dtype=np.int64)
    np.cumsum(counts, out=koff[1:])
    return [kept[koff[i]:koff[i + 1]] for i in range(r.n_segments)]


def _drop_boundary_duplicates(run: MSTRun, parts: List[np.ndarray]
                              ) -> List[np.ndarray]:
    """Remove leading edges duplicating the previous PE's last (u, v) group.

    After the global sort the lightest copy of a group that spans a boundary
    sits on the earlier PE, so later PEs drop their leading run of the same
    (u, v).  One allgather of per-PE last keys suffices.
    """
    p = len(parts)
    last_keys = []
    for part in parts:
        if len(part):
            last_keys.append(np.array([1, part[-1, 0], part[-1, 1]],
                                      dtype=np.int64))
        else:
            last_keys.append(np.array([0, 0, 0], dtype=np.int64))
    gathered = np.stack(run.comm.allgather(last_keys))
    out: List[np.ndarray] = []
    prev_u = prev_v = None
    for i in range(p):
        part = parts[i]
        if prev_u is not None and len(part):
            drop = (part[:, 0] == prev_u) & (part[:, 1] == prev_v)
            # Only the *leading run* may duplicate across the boundary.
            run_end = int(np.argmin(drop)) if not drop.all() else len(part)
            part = part[run_end:]
        out.append(part)
        if gathered[i, 0] == 1:
            prev_u, prev_v = int(gathered[i, 1]), int(gathered[i, 2])
    return out


@_parts_in
def redistribute(
    run: MSTRun,
    machine: Machine,
    relabelled: List[Edges],
    check: bool = False,
) -> DistGraph:
    """Sort, deduplicate and rebuild the distributed graph structure."""
    mats = [e.as_matrix() for e in relabelled]
    sorted_parts = sort_rows(run.comm, mats, n_key_cols=3,
                             method=run.cfg.sorter, rebalance=True)
    deduped = dedup_sorted_parts(sorted_parts)
    machine.charge_scan(np.array([len(x) for x in sorted_parts]))
    deduped = _drop_boundary_duplicates(run, deduped)
    parts = [Edges.from_matrix(x) for x in deduped]
    graph = DistGraph.from_parts(machine, parts, check=check)
    if machine.sanitizer is not None:
        # Invariant 3: the rebuilt structure must be globally lex-sorted
        # with agreeing replicated metadata after *every* redistribute.
        machine.sanitizer.check_redistributed(graph)
    return graph


# ----------------------------------------------------------------------
# core/local_preprocessing.py: _contract_one_pe, as shipped before the
# vertex layout was handed in (two searchsorted calls per PE, boolean-mask
# compactions)
# ----------------------------------------------------------------------
def _contract_one_pe(
    part: Edges,
    vids: np.ndarray,
    shared_mask: np.ndarray,
    use_filter: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Run the modified local Borůvka on one PE.

    Returns ``(new_labels, mst_ids, mst_weights, rounds)`` where
    ``new_labels`` is aligned with ``vids``.
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
    vidx_u = np.searchsorted(vids, part.u).astype(idx_dt, copy=False)
    idx = np.searchsorted(vids, part.v).astype(idx_dt, copy=False)
    idx_c = np.minimum(idx, n_local - 1)
    v_local = (idx < n_local) & (vids[idx_c] == part.v)
    vidx_v = np.where(v_local, idx_c, idx_dt(-1))
    del idx, idx_c

    # Candidate (contractible) edges: both endpoints local.  With the
    # filtering enhancement, restrict further to the local subgraph's MSF --
    # by the cycle property no other local edge can ever be a cut minimum.
    candidate = v_local.copy()
    if use_filter and candidate.any():
        local_e = part.take(candidate)
        dense = Edges(vidx_u[candidate], vidx_v[candidate], local_e.w,
                      np.flatnonzero(candidate))
        msf = (filter_boruvka_msf if len(dense) > 64 else kruskal_msf)(
            dense, n_local)
        candidate = np.zeros(len(part), dtype=bool)
        candidate[msf.id] = True  # ids were candidate positions

    # Edges that participate in min computations: candidates + cut edges.
    consider = candidate | ~v_local
    e_u = vidx_u[consider]
    e_v = vidx_v[consider]          # -1 for ghosts
    e_w = part.w[consider]
    e_pos = np.flatnonzero(consider).astype(idx_dt, copy=False)
    e_cand = candidate[consider]
    ghost_label = part.v[consider]  # actual labels for canonical tie keys
    del vidx_u, vidx_v, v_local, candidate, consider

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
        alive = label_u != label_v
        if not alive.any():
            break
        if not alive.all():
            # Self-loop edges stay dead forever (components only grow), so
            # drop them before the next round's scans.
            e_u, e_v, e_w = e_u[alive], e_v[alive], e_w[alive]
            e_pos, e_cand = e_pos[alive], e_cand[alive]
            ghost_label = ghost_label[alive]
            cu_root, cv_root = cu_root[alive], cv_root[alive]
            label_u, label_v = label_u[alive], label_v[alive]
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
        # uf.union inlined over plain Python lists (same op order, same
        # state evolution): this loop dominates the per-PE contraction time
        # and list indexing beats numpy scalar indexing several-fold.
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


def _contract_one_pe_searched(part, vids, starts, v_at, v_local,
                              shared_mask, use_filter):
    """:func:`_contract_one_pe` under the production signature: the handed
    layout is ignored and searched again, as shipped."""
    return _contract_one_pe(part, vids, shared_mask, use_filter)


# ----------------------------------------------------------------------
# core/boruvka.py: InputSnapshot, redistribute_mst, as shipped before the
# snapshot held the input parts by reference (a varint-compressed copy of
# every part, encoded up front and decoded per lookup)
# ----------------------------------------------------------------------
@dataclass
class InputSnapshot:
    """Compressed per-PE copy of the initial edge list for id lookups.

    The paper stores this with 7-bit varint delta encoding and accounts for
    decoding it twice (before and after the MST computation); the same
    accounting is applied in :func:`redistribute_mst`.
    """

    compressed: List[CompressedEdgeList]
    weights: List[np.ndarray]
    id_starts: np.ndarray  # global id range starts per PE (+ total sentinel)

    @classmethod
    def take(cls, graph: DistGraph) -> "InputSnapshot":
        """Compress every PE's initial edge block and record id ranges."""
        comp, ws, starts = [], [], []
        next_start = 0
        for part in graph.parts:
            comp.append(CompressedEdgeList(part.u, part.v))
            ws.append(part.w.copy())
            starts.append(next_start)
            if len(part):
                ids = part.id
                if not (ids.min() == next_start
                        and ids.max() == next_start + len(ids) - 1):
                    raise ValueError(
                        "edge ids must form contiguous per-PE ranges "
                        "(use DistGraph.from_global_edges or a generator)"
                    )
                next_start += len(ids)
        starts.append(next_start)
        return cls(comp, ws, np.asarray(starts, dtype=np.int64))


@_msf_views
def redistribute_mst(run: MSTRun, snapshot: InputSnapshot) -> List[Edges]:
    """REDISTRIBUTEMST: route (id, w) records home; decode original endpoints."""
    machine = run.machine
    p = machine.n_procs
    rows, dests = [], []
    for i in range(p):
        rec = run.collected(i)
        rows.append(rec)
        dests.append(
            np.searchsorted(snapshot.id_starts, rec[:, 0], side="right") - 1
        )
    recv, _, _ = route_rows(run.comm, rows, dests, method=run.cfg.alltoall)
    out: List[Edges] = []
    for i in range(p):
        rec = recv[i]
        comp = snapshot.compressed[i]
        # Paper accounting: the compressed copy is decoded twice.
        machine.charge_scan(np.array([2 * comp.n_edges]),
                            ranks=np.array([i]))
        if len(rec) == 0:
            out.append(Edges.empty())
            continue
        ids = rec[:, 0]
        local_pos = ids - snapshot.id_starts[i]
        u, v = comp.lookup(local_pos)
        w = snapshot.weights[i][local_pos]
        if not np.array_equal(w, rec[:, 1]):
            raise RuntimeError("MST edge weight mismatch during output")
        order = np.argsort(ids, kind="stable")
        out.append(Edges(u[order], v[order], w[order], ids[order]))
    return out


# ----------------------------------------------------------------------
# core/boruvka.py: the snapshot as shipped before it held the input block
# (the parts by reference, per-PE id ranges checked by min and max) and
# the REDISTRIBUTEMST that routed its records home
# ----------------------------------------------------------------------
@dataclass
class InputSnapshotParts:
    """Every PE's initial edge block, for the MST output's id lookups.

    The paper keeps a varint-compressed copy and decodes it twice (Section
    VI-C); :func:`redistribute_mst` charges both decodes.  The host holds
    the parts by reference instead: the caller keeps the input graph alive
    for the whole run and nothing writes ``u``/``v``/``w`` in place.
    """

    parts: List[Edges]
    id_starts: np.ndarray  # global id range starts per PE (+ total sentinel)

    @classmethod
    def take(cls, graph: DistGraph) -> "InputSnapshotParts":
        """Reference every PE's initial edge block and record id ranges."""
        starts = []
        next_start = 0
        for part in graph.parts:
            starts.append(next_start)
            if len(part):
                ids = part.id
                if not (ids.min() == next_start
                        and ids.max() == next_start + len(ids) - 1):
                    raise ValueError(
                        "edge ids must form contiguous per-PE ranges "
                        "(use DistGraph.from_global_edges or a generator)"
                    )
                next_start += len(ids)
        starts.append(next_start)
        return cls(list(graph.parts), np.asarray(starts, dtype=np.int64))


@_msf_views
def redistribute_mst_routed(run: MSTRun, snapshot: InputSnapshotParts
                            ) -> List[Edges]:
    """REDISTRIBUTEMST: route (id, w) records home; decode original endpoints."""
    machine = run.machine
    p = machine.n_procs
    rows, dests = [], []
    for i in range(p):
        rec = run.collected(i)
        rows.append(rec)
        dests.append(
            np.searchsorted(snapshot.id_starts, rec[:, 0], side="right") - 1
        )
    recv, _, _ = route_rows(run.comm, rows, dests, method=run.cfg.alltoall)
    out: List[Edges] = []
    for i in range(p):
        rec = recv[i]
        part = snapshot.parts[i]
        # Paper accounting: the compressed copy is decoded twice.
        machine.charge_scan(np.array([2 * len(part)]), ranks=np.array([i]))
        if len(rec) == 0:
            out.append(Edges.empty())
            continue
        ids = rec[:, 0]
        local_pos = ids - snapshot.id_starts[i]
        w = part.w[local_pos]
        if not np.array_equal(w, rec[:, 1]):
            raise RuntimeError("MST edge weight mismatch during output")
        order = np.argsort(ids, kind="stable")
        at = local_pos[order]
        out.append(Edges(part.u[at].astype(np.int64, copy=False),
                         part.v[at].astype(np.int64, copy=False),
                         w[order], ids[order]))
    return out


# ----------------------------------------------------------------------
# core/filter_boruvka.py: _split_by_pivot, one take pair per part
# ----------------------------------------------------------------------
def _split_out(fn):
    """A per-PE split returning the light graph and the heavy block."""
    @functools.wraps(fn)
    def flat(graph, pivot, run):
        lights, heavies = fn(graph, pivot, run)
        return (DistGraph.from_parts(graph.machine, lights, check=False),
                Edges.concat(heavies), _offsets(heavies))
    return flat


@_split_out
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


# ----------------------------------------------------------------------
# sorting/common.py: local_lexsort_parts, rebalance_blocks
# ----------------------------------------------------------------------
def local_lexsort_parts(parts: Sequence[np.ndarray],
                        n_key_cols: int) -> List[np.ndarray]:
    """Every PE's :func:`local_lexsort`."""
    return [local_lexsort(x, n_key_cols) for x in parts]


def rebalance_blocks(comm, parts: Sequence[np.ndarray],
                     method: str = "auto") -> List[np.ndarray]:
    """Redistribute globally sorted parts into exact block partition.

    Keeps the global order; afterwards PE ``i`` holds rows
    ``[bounds[i], bounds[i+1])`` of the global sequence (numpy
    ``array_split`` convention).  One exscan for the global offsets plus one
    all-to-all.
    """
    p = comm.size
    sizes = [len(part) for part in parts]
    offsets = comm.exscan(sizes)
    total = int(np.sum(sizes))
    if total == 0:
        return [part.copy() for part in parts]
    # Concatenated per-PE global indices are exactly arange(total): the
    # exscan offsets are the cumulative sizes in rank order.
    dest_flat = owner_of(np.arange(total, dtype=np.int64), total, p)
    soff = [*offsets, total]
    dests = [dest_flat[soff[i]:soff[i + 1]] for i in range(p)]
    recv, _, _ = route_rows(comm, parts, dests, method=method)
    # Rows arrive source-major = global order (sources are ordered runs).
    return recv


# ----------------------------------------------------------------------
# sorting/samplesort.py: sort_samplesort
# ----------------------------------------------------------------------
def sort_samplesort(
    comm: Comm,
    parts: Sequence[np.ndarray],
    n_key_cols: int,
) -> List[np.ndarray]:
    """Globally sort per-PE row matrices with one data exchange.

    ``parts`` are 2-D integer row matrices of one width, one per rank
    (:func:`repro.sorting.sort_rows` is the validating entry point).
    """
    p = comm.size
    machine = comm.machine
    total = sum(len(x) for x in parts)
    if total == 0 or p == 1:
        machine.charge_sort(np.array([len(x) for x in parts]))
        return local_lexsort_parts(parts, n_key_cols)

    # ---- Local sort. ----
    machine.charge_sort(np.array([len(x) for x in parts]))
    parts = local_lexsort_parts(parts, n_key_cols)

    # ---- Sample and select p-1 splitters. ----
    samples = []
    for i in range(p):
        rows = parts[i]
        if len(rows) == 0:
            samples.append(rows[:0])
            continue
        take = generator_integers(machine, i, len(rows),
                                  min(OVERSAMPLING, len(rows)))
        samples.append(rows[take])
    # Sort the sample with the hypercube algorithm (paper, Section VI-C),
    # then replicate it to pick evenly spaced splitters.
    sorted_sample_parts = sort_hypercube(comm, samples, n_key_cols)
    sample = comm.allgatherv(
        [x if len(x) else parts[0][:0] for x in sorted_sample_parts]
    ).reshape(-1, parts[0].shape[1] if parts[0].ndim == 2 else 1)
    if len(sample) == 0:
        return parts
    splitter_idx = (np.arange(1, p) * len(sample)) // p
    splitters = sample[splitter_idx]

    # ---- Partition by splitters and exchange. ----
    # The splitter keys are replicated, so every PE's binary search is one
    # flat lex_searchsorted call over all rows at once.
    r = RaggedArrays.from_arrays(parts)
    bucket = lex_searchsorted(
        tuple(splitters[:, c] for c in range(n_key_cols)),
        tuple(r.flat[:, c] for c in range(n_key_cols)),
        side="right",
    )
    dests = [bucket[r.offsets[i]:r.offsets[i + 1]] for i in range(p)]
    lengths = r.lengths
    nz = np.flatnonzero(lengths)
    machine.charge_scan(lengths[nz] * max(1, int(np.log2(p))), ranks=nz)
    recv, _, _ = route_rows(comm, parts, dests)

    # ---- Local merge of the received sorted runs. ----
    machine.charge_sort(np.array([len(x) for x in recv]))
    return local_lexsort_parts(recv, n_key_cols)


# ----------------------------------------------------------------------
# competitors/awerbuch_shiloach.py: _resolve
# ----------------------------------------------------------------------
def _resolve(comm: Comm, f_blocks: List[np.ndarray], n: int,
             labels_per_pe: List[np.ndarray], method: str
             ) -> List[np.ndarray]:
    """Look up f[x] for arbitrary per-PE label arrays (deduplicated)."""
    p = comm.size
    # Labels are vertex ids < n; keep the callers' (possibly narrowed)
    # storage dtype through the whole query/reply round trip instead of
    # forcing int64 -- empty blocks take the common dtype so routed
    # concatenations never promote.
    q_dt = np.result_type(
        *([x.dtype for x in labels_per_pe if len(x)] or [np.int64]))
    f_dt = f_blocks[0].dtype if f_blocks else np.dtype(np.int64)
    uniqs, invs, dests = [], [], []
    for i in range(p):
        uniq, inv = np.unique(
            np.asarray(labels_per_pe[i], dtype=q_dt),
            return_inverse=True)
        uniqs.append(uniq)
        invs.append(inv)
        dests.append(owner_of(uniq, n, p))
    recv, recv_src, orders = route_rows(comm, uniqs, dests, method=method)
    replies = []
    for i in range(p):
        q = recv[i]
        replies.append(f_blocks[i][q - _lo(n, p, i)]
                       if len(q) else np.empty(0, dtype=f_dt))
    comm.machine.charge_hash(
        np.array([len(q) for q in recv], dtype=np.int64),
        ranks=np.arange(p))
    del recv
    back, _, _ = route_rows(comm, replies, recv_src, method=method)
    del replies, recv_src
    out = []
    for i in range(p):
        if len(uniqs[i]) == 0:
            out.append(np.empty(0, dtype=f_dt))
            continue
        out.append(unsort(orders[i], back[i])[invs[i]])
    return out


# ----------------------------------------------------------------------
# The request/reply and label-push rounds as shipped before they were
# charged from their count matrices and answered in one host gather
# (rows routed there and back, replies unsorted): contraction's doubling
# round, the P array, Awerbuch-Shiloach's ``_resolve`` and EXCHANGELABELS'
# receive side.  Each routes through this module's ``route_rows``.
# ----------------------------------------------------------------------
@_chosen_in
def _contract_routed(
    graph: DistGraph,
    chosen: List[ChosenEdges],
    run: MSTRun,
) -> List[np.ndarray]:
    """Contract the components induced by the chosen edges.

    Returns per-PE ``L_local``: the component-root label of every local
    vertex, aligned with ``chosen[i].vids``.  Records MST edges and reports
    label maps to the run's label sink.
    """
    p = graph.machine.n_procs
    machine = graph.machine
    comm = run.comm
    shared_set = graph.shared_vertex_set()

    lengths = np.array([len(c.vids) for c in chosen], dtype=np.int64)
    voff = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(lengths, out=voff[1:])
    z = np.empty(0, dtype=np.int64)
    vids = np.concatenate([c.vids for c in chosen]) if voff[-1] else z
    shared = np.concatenate([c.shared for c in chosen]) \
        if voff[-1] else np.zeros(0, dtype=bool)
    to = np.concatenate([c.to for c in chosen]) if voff[-1] else z
    vseg = np.repeat(np.arange(p, dtype=np.int64), lengths)

    par = np.where(shared, vids, to)
    root = shared.copy()
    parent_shared = sorted_lookup(shared_set, par)[0]
    pend = ~shared & ~parent_shared

    # ------------------------------------------------------------------
    # Pointer-doubling rounds.
    # ------------------------------------------------------------------
    max_rounds = run.cfg.max_rounds
    for round_no in range(max_rounds):
        pend_counts = np.bincount(vseg[pend], minlength=p)
        n_pending = comm.allreduce([int(c) for c in pend_counts])
        if n_pending == 0:
            break
        # Deduplicated queries: distinct parent targets per PE.
        pend_pos = np.flatnonzero(pend)
        targets = par[pend_pos]
        tseg = vseg[pend_pos]
        uniq, uoff, inv = segmented_unique(targets, tseg, p)
        qlens = np.diff(uoff)
        queries = [uniq[uoff[i]:uoff[i + 1]] for i in range(p)]
        dest_flat = graph.home_of_vertices(uniq)
        dests = [dest_flat[uoff[i]:uoff[i + 1]] for i in range(p)]
        recv, recv_src, orders = route_rows(
            comm, queries, dests, method=run.cfg.alltoall
        )
        # Answer from the state at round start (BSP semantics).
        recv_lens = np.array([len(q) for q in recv], dtype=np.int64)
        roff = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(recv_lens, out=roff[1:])
        q_flat = np.concatenate(recv) if roff[-1] else z
        qseg = np.repeat(np.arange(p, dtype=np.int64), recv_lens)
        found, idx = segmented_lookup(vids, voff, q_flat, qseg)
        if not found.all():
            bad = int(qseg[~found][0])
            raise RuntimeError(
                f"PE {bad}: pointer-doubling query for non-resident vertex"
            )
        pv_rep = par[voff[qseg] + idx]
        rep_flat = np.stack([q_flat, pv_rep], axis=1)
        replies = [rep_flat[roff[i]:roff[i + 1]] for i in range(p)]
        nz_recv = np.flatnonzero(recv_lens)
        if len(nz_recv):
            machine.charge_hash(recv_lens[nz_recv], ranks=nz_recv)
        back, _, _ = route_rows(comm, replies, recv_src,
                                method=run.cfg.alltoall)
        # Apply: each pending u with target v learns pv = parent(v).
        b_flat = np.concatenate(back, axis=0)
        order_flat = np.concatenate(orders) if uoff[-1] else z
        global_order = order_flat + np.repeat(uoff[:-1], qlens)
        ordered = np.empty_like(b_flat)
        ordered[global_order] = b_flat  # unsort(), all PEs at once
        assert np.array_equal(ordered[:, 0], uniq)
        pv_per_query = ordered[:, 1]
        u = vids[pend_pos]
        v = targets
        pv = pv_per_query[uoff[tseg] + inv]
        # 2-cycle: v's parent is u itself; root at the smaller label.
        cyc = pv == u
        win = cyc & (u < v)
        lose = cyc & ~win
        par[pend_pos[win]] = u[win]
        root[pend_pos[win]] = True
        pend[pend_pos[win]] = False
        par[pend_pos[lose]] = v[lose]
        pend[pend_pos[lose]] = False
        # Regular doubling: adopt pv; finalise when v was a root or the
        # new parent is a shared vertex (local check, paper IV-B).
        reg = ~cyc
        par[pend_pos[reg]] = pv[reg]
        v_is_root = pv == v
        new_shared = sorted_lookup(shared_set, pv)[0]
        done = reg & (v_is_root | new_shared)
        pend[pend_pos[done]] = False
        nz_q = np.flatnonzero(qlens)
        machine.charge_scan(pend_counts[nz_q], ranks=nz_q)
    else:
        raise RuntimeError("pointer doubling failed to converge")

    # ------------------------------------------------------------------
    # Record MST edges and label maps.
    # ------------------------------------------------------------------
    contributes = ~shared & ~root
    cpos = np.flatnonzero(contributes)
    c_ids = (np.concatenate([c.edge_id for c in chosen])
             if voff[-1] else z)[cpos]
    c_ws = (np.concatenate([c.weight for c in chosen])
            if voff[-1] else z)[cpos]
    ccounts = np.bincount(vseg[cpos], minlength=p)
    coff = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(ccounts, out=coff[1:])
    for i in range(p):
        run.record_mst(i, c_ids[coff[i]:coff[i + 1]],
                       c_ws[coff[i]:coff[i + 1]])
        run.record_labels(i, vids[voff[i]:voff[i + 1]],
                          par[voff[i]:voff[i + 1]])
    return [par[voff[i]:voff[i + 1]] for i in range(p)]


@_lists_in
def _exchange_labels_routed(
    graph: DistGraph,
    vids_per_pe: List[np.ndarray],
    labels_per_pe: List[np.ndarray],
    run: MSTRun,
) -> List[GhostTable]:
    """Push new local-vertex labels to every PE that has them as ghosts."""
    p = graph.machine.n_procs
    machine = graph.machine
    parts = graph.parts
    lengths = np.array([len(part) for part in parts], dtype=np.int64)
    total = int(lengths.sum())
    z = np.empty(0, dtype=np.int64)

    if total:
        eu = np.concatenate([np.asarray(part.u) for part in parts])
        ev = np.concatenate([np.asarray(part.v) for part in parts])
        ew = np.concatenate([np.asarray(part.w) for part in parts])
    else:
        eu = ev = ew = z
    off = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(lengths, out=off[1:])
    seg = np.repeat(np.arange(p, dtype=np.int64), lengths)
    vlens = np.array([len(v) for v in vids_per_pe], dtype=np.int64)
    voff = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(vlens, out=voff[1:])
    labels = np.concatenate(labels_per_pe) if voff[-1] else z

    # Home PE of every reverse edge (v, u, w).  The label of u must be
    # pushed wherever the reverse edge lives on a *different* PE.  This
    # covers all cut edges (the paper's rule) plus the corner case where
    # an edge is local here because its destination is a shared vertex,
    # while the shared vertex's other PE holds the reverse edge as a cut
    # edge and still needs our source's label.
    home_all = graph.home_of_edges(ev, eu, ew)
    cut_pos = np.flatnonzero(home_all != seg)
    cu = eu[cut_pos]
    home = home_all[cut_pos]
    cseg = seg[cut_pos]
    lab = _source_labels(eu, off, voff, labels)[cut_pos]
    # Deduplicate per (destination PE, vertex).  The rows of one source are
    # sorted by (v, w) and the home of (v, u, w) is monotone in (v, w) for a
    # fixed u, so copies of a (source, home) pair are adjacent: keep the
    # first of each run, then one stable sort by (PE, home) puts the
    # survivors -- still ascending in the vertex -- in (PE, home, vertex)
    # order, destination-sorted per PE.
    first = np.ones(len(cut_pos), dtype=bool)
    first[1:] = ((cu[1:] != cu[:-1]) | (home[1:] != home[:-1])
                 | (cseg[1:] != cseg[:-1]))
    keep = np.flatnonzero(first)
    pdest = home[keep]
    pseg = cseg[keep]
    order = packed_lexsort((pdest, pseg), ranges=((0, p - 1), (0, p - 1)))
    sel = keep[order]
    pdest = pdest[order]
    pay = np.empty((len(sel), 2), dtype=np.result_type(cu, lab))
    pay[:, 0] = cu[sel]
    pay[:, 1] = lab[sel]
    poff = np.searchsorted(pseg, np.arange(p + 1))  # pseg is ascending
    payloads = [pay[poff[i]:poff[i + 1]] for i in range(p)]
    dests = [pdest[poff[i]:poff[i + 1]] for i in range(p)]
    nz = np.flatnonzero(lengths)
    if len(nz):
        cut_counts = np.diff(np.searchsorted(cut_pos, off))
        machine.charge_scan(lengths[nz], ranks=nz)
        machine.charge_sort(np.maximum(cut_counts[nz], 1), ranks=nz)

    recv, _, _ = route_rows(run.comm, payloads, dests,
                            method=run.cfg.alltoall)

    recv_lens = np.array([len(r) for r in recv], dtype=np.int64)
    r_flat = np.concatenate(recv, axis=0)
    rseg = np.repeat(np.arange(p, dtype=np.int64), recv_lens)
    order = packed_lexsort((r_flat[:, 0], rseg))  # per-PE stable sort by ghost
    g = r_flat[order, 0]
    l = r_flat[order, 1]
    s_s = rseg[order]
    first = np.ones(len(g), dtype=bool)
    if len(g) > 1:
        first[1:] = (g[1:] != g[:-1]) | (s_s[1:] != s_s[:-1])
    gh = g[first]
    gl = l[first]
    gcounts = np.bincount(s_s[first], minlength=p)
    goff = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(gcounts, out=goff[1:])
    tables = [GhostTable(gh[goff[i]:goff[i + 1]], gl[goff[i]:goff[i + 1]])
              for i in range(p)]
    nz_recv = np.flatnonzero(recv_lens)
    if len(nz_recv):
        machine.charge_hash(recv_lens[nz_recv], ranks=nz_recv)
    return tables


class DistributedLabelArray:
    """Block-distributed ``P[0..n)`` with buffered updates and doubling."""

    def __init__(self, comm: Comm, n: int, alltoall: str = "auto"):
        self.comm = comm
        self.n = int(n)
        self.p = comm.size
        self.alltoall = alltoall
        self.bounds = block_bounds(self.n, self.p)
        #: P blocks, initialised to the identity.
        self.blocks: List[np.ndarray] = [
            np.arange(self.bounds[i], self.bounds[i + 1], dtype=np.int64)
            for i in range(self.p)
        ]
        self._pending: List[List[np.ndarray]] = [[] for _ in range(self.p)]

    # ------------------------------------------------------------------
    def sink(self, pe: int, vertices: np.ndarray, roots: np.ndarray) -> None:
        """Label-sink entry point (buffered; see :meth:`flush`)."""
        if len(vertices):
            self._pending[pe].append(
                np.stack([np.asarray(vertices, dtype=np.int64),
                          np.asarray(roots, dtype=np.int64)], axis=1)
            )

    def flush(self) -> None:
        """Deliver buffered updates to their block owners (one all-to-all)."""
        rows, dests = [], []
        for i in range(self.p):
            if self._pending[i]:
                block = np.concatenate(self._pending[i], axis=0)
            else:
                block = np.empty((0, 2), dtype=np.int64)
            rows.append(block)
            dests.append(owner_of(block[:, 0], self.n, self.p)
                         if len(block) else np.empty(0, dtype=np.int64))
            self._pending[i] = []
        recv, _, _ = route_rows(self.comm, rows, dests, method=self.alltoall)
        for i in range(self.p):
            upd = recv[i]
            if len(upd):
                self.blocks[i][upd[:, 0] - self.bounds[i]] = upd[:, 1]
                self.comm.machine.charge_scan(np.array([len(upd)]),
                                              ranks=np.array([i]))

    # ------------------------------------------------------------------
    def contract(self, max_rounds: int = 64) -> None:
        """Pointer-double P to fixpoint: ``P[v] <- P[P[v]]`` until stable."""
        self.flush()
        for _ in range(max_rounds):
            # Query the owner of every (deduplicated) non-trivial target.
            queries, inverses, dests, positions = [], [], [], []
            for i in range(self.p):
                block = self.blocks[i]
                ids = np.arange(self.bounds[i], self.bounds[i + 1])
                nontriv = np.flatnonzero(block != ids)
                targets = block[nontriv]
                uniq, inv = np.unique(targets, return_inverse=True)
                queries.append(uniq)
                inverses.append(inv)
                positions.append(nontriv)
                dests.append(owner_of(uniq, self.n, self.p))
            n_q = self.comm.allreduce([len(q) for q in queries])
            if n_q == 0:
                return
            recv, recv_src, orders = route_rows(
                self.comm, queries, dests, method=self.alltoall
            )
            replies = []
            for i in range(self.p):
                q = recv[i]
                replies.append(self.blocks[i][q - self.bounds[i]]
                               if len(q) else np.empty(0, dtype=np.int64))
                self.comm.machine.charge_hash(np.array([len(q)]),
                                              ranks=np.array([i]))
            back, _, _ = route_rows(self.comm, replies, recv_src,
                                    method=self.alltoall)
            changed_any = []
            for i in range(self.p):
                if len(queries[i]) == 0:
                    changed_any.append(0)
                    continue
                resolved = unsort(orders[i], back[i])  # aligned with queries
                new_vals = resolved[inverses[i]]
                old = self.blocks[i][positions[i]]
                self.blocks[i][positions[i]] = new_vals
                changed_any.append(int((new_vals != old).sum()))
            if self.comm.allreduce(changed_any) == 0:
                return
        raise RuntimeError("P-array pointer doubling failed to converge")

    # ------------------------------------------------------------------
    @_flat_request
    def request(self, queries_per_pe: List[np.ndarray]) -> List[np.ndarray]:
        """REQUESTLABELS: resolve vertex labels to representatives.

        Call :meth:`contract` first; chains are then fully collapsed and one
        lookup round suffices.
        """
        uniq_qs, inverses, dests = [], [], []
        for i in range(self.p):
            q = np.asarray(queries_per_pe[i], dtype=np.int64)
            uniq, inv = np.unique(q, return_inverse=True)
            uniq_qs.append(uniq)
            inverses.append(inv)
            dests.append(owner_of(uniq, self.n, self.p))
        recv, recv_src, orders = route_rows(self.comm, uniq_qs, dests,
                                            method=self.alltoall)
        replies = []
        for i in range(self.p):
            q = recv[i]
            replies.append(self.blocks[i][q - self.bounds[i]]
                           if len(q) else np.empty(0, dtype=np.int64))
            self.comm.machine.charge_hash(np.array([len(q)]),
                                          ranks=np.array([i]))
        back, _, _ = route_rows(self.comm, replies, recv_src,
                                method=self.alltoall)
        out = []
        for i in range(self.p):
            if len(uniq_qs[i]) == 0:
                out.append(np.empty(0, dtype=np.int64))
                continue
            resolved = unsort(orders[i], back[i])
            out.append(resolved[inverses[i]])
        return out

    def assembled(self) -> np.ndarray:
        """The full array (testing/diagnostics only -- not a PE operation)."""
        return np.concatenate(self.blocks) if self.n else np.empty(
            0, dtype=np.int64)


def _resolve_routed(comm: Comm, f_blocks: List[np.ndarray], n: int,
             labels_per_pe: List[np.ndarray], method: str
             ) -> List[np.ndarray]:
    """Look up f[x] for arbitrary per-PE label arrays (deduplicated)."""
    p = comm.size
    # Labels are vertex ids < n; keep the callers' (possibly narrowed)
    # storage dtype through the whole query/reply round trip instead of
    # forcing int64 -- empty blocks take the common dtype so routed
    # concatenations never promote.
    q_dt = np.result_type(
        *([x.dtype for x in labels_per_pe if len(x)] or [np.int64]))
    f_dt = f_blocks[0].dtype if f_blocks else np.dtype(np.int64)
    r = RaggedArrays.from_arrays(labels_per_pe, dtype=q_dt)
    uniq, uoff, inv = segmented_unique(r.flat, r.segment_ids(), p)
    uniqs = [uniq[uoff[i]:uoff[i + 1]] for i in range(p)]
    invs = [inv[r.offsets[i]:r.offsets[i + 1]] for i in range(p)]
    dest_flat = owner_of(uniq, n, p) if len(uniq) else \
        np.empty(0, dtype=np.int64)
    dests = [dest_flat[uoff[i]:uoff[i + 1]] for i in range(p)]
    del r
    recv, recv_src, orders = route_rows(comm, uniqs, dests, method=method)
    replies = []
    for i in range(p):
        q = recv[i]
        replies.append(f_blocks[i][q - _lo(n, p, i)]
                       if len(q) else np.empty(0, dtype=f_dt))
    comm.machine.charge_hash(
        np.array([len(q) for q in recv], dtype=np.int64),
        ranks=np.arange(p))
    del recv
    back, _, _ = route_rows(comm, replies, recv_src, method=method)
    del replies, recv_src
    out = []
    for i in range(p):
        if len(uniqs[i]) == 0:
            out.append(np.empty(0, dtype=f_dt))
            continue
        out.append(unsort(orders[i], back[i])[invs[i]])
    return out


# ----------------------------------------------------------------------
# core/labels.py as shipped before EXCHANGELABELS returned its push whole:
# p ghost tables built by one sort of the push by (home, vertex), and a
# RELABEL that looks up local vertices per PE and the rest in them.
# ``ghost_tables`` is that sort, for reading a production push as the
# tables its receivers would have built.
# ----------------------------------------------------------------------
def ghost_tables(push: LabelPush, p: int) -> List[GhostTable]:
    """The receivers' ghost tables of a production :class:`LabelPush` on
    ``p`` PEs: a home keeps the first copy of a ghost in its source-major
    receive order."""
    # A stable sort by (home, vertex) of the sender-major push: equal keys
    # stay in sender order, which is the receive order.
    order = packed_lexsort((push.vertex, push.home),
                           ranges=(None, (0, p - 1)))
    g = push.vertex[order]
    l = push.label[order]
    s_s = push.home[order]
    first = np.ones(len(g), dtype=bool)
    if len(g) > 1:
        first[1:] = (g[1:] != g[:-1]) | (s_s[1:] != s_s[:-1])
    gcounts = np.bincount(s_s[first], minlength=p)
    goff = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(gcounts, out=goff[1:])
    gh, gl = g[first], l[first]
    return [GhostTable(gh[goff[i]:goff[i + 1]], gl[goff[i]:goff[i + 1]])
            for i in range(p)]


@_lists_in
def _exchange_labels_ghost_tables(
    graph: DistGraph,
    vids_per_pe: List[np.ndarray],
    labels_per_pe: List[np.ndarray],
    run: MSTRun,
) -> List[GhostTable]:
    """EXCHANGELABELS as shipped before the push was returned whole: the
    receivers' ghost tables built on the host, one per PE."""
    p = graph.machine.n_procs
    machine = graph.machine
    parts = graph.parts
    lengths = np.array([len(part) for part in parts], dtype=np.int64)
    total = int(lengths.sum())
    z = np.empty(0, dtype=np.int64)

    if total:
        eu = np.concatenate([np.asarray(part.u) for part in parts])
        ev = np.concatenate([np.asarray(part.v) for part in parts])
        ew = np.concatenate([np.asarray(part.w) for part in parts])
    else:
        eu = ev = ew = z
    off = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(lengths, out=off[1:])
    seg = np.repeat(np.arange(p, dtype=np.int64), lengths)
    vlens = np.array([len(v) for v in vids_per_pe], dtype=np.int64)
    voff = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(vlens, out=voff[1:])
    labels = np.concatenate(labels_per_pe) if voff[-1] else z

    # Home PE of every reverse edge (v, u, w).  The label of u must be
    # pushed wherever the reverse edge lives on a *different* PE.  This
    # covers all cut edges (the paper's rule) plus the corner case where
    # an edge is local here because its destination is a shared vertex,
    # while the shared vertex's other PE holds the reverse edge as a cut
    # edge and still needs our source's label.
    home_all = graph.home_of_edges(ev, eu, ew)
    cut_pos = np.flatnonzero(home_all != seg)
    cu = eu[cut_pos]
    home = home_all[cut_pos]
    cseg = seg[cut_pos]
    lab = _source_labels(eu, off, voff, labels)[cut_pos]
    # Deduplicate per (destination PE, vertex).  The rows of one source are
    # sorted by (v, w) and the home of (v, u, w) is monotone in (v, w) for a
    # fixed u, so copies of a (source, home) pair are adjacent: keep the
    # first of each run, then one stable sort by (PE, home) puts the
    # survivors -- still ascending in the vertex -- in (PE, home, vertex)
    # order, destination-sorted per PE.
    first = np.ones(len(cut_pos), dtype=bool)
    first[1:] = ((cu[1:] != cu[:-1]) | (home[1:] != home[:-1])
                 | (cseg[1:] != cseg[:-1]))
    keep = np.flatnonzero(first)
    pdest = home[keep]
    pseg = cseg[keep]
    order = packed_lexsort((pdest, pseg), ranges=((0, p - 1), (0, p - 1)))
    sel = keep[order]
    pdest = pdest[order]
    pay = np.empty((len(sel), 2), dtype=np.result_type(cu, lab))
    pay[:, 0] = cu[sel]
    pay[:, 1] = lab[sel]
    # pseg is ascending, so the sort left it in place.
    counts = np.bincount(pseg * p + pdest, minlength=p * p).reshape(p, p)
    nz = np.flatnonzero(lengths)
    if len(nz):
        cut_counts = np.diff(np.searchsorted(cut_pos, off))
        machine.charge_scan(lengths[nz], ranks=nz)
        machine.charge_sort(np.maximum(cut_counts[nz], 1), ranks=nz)

    account(run.comm, run.cfg.alltoall, pay, counts, lambda: SendBlock(pay))
    # A home keeps the first copy of a ghost in its source-major receive
    # order: the stable sort by (home, vertex) keeps equal keys that way.
    order = packed_lexsort((pay[:, 0], pdest), ranges=(None, (0, p - 1)))
    g = pay[order, 0]
    l = pay[order, 1]
    s_s = pdest[order]
    first = np.ones(len(g), dtype=bool)
    if len(g) > 1:
        first[1:] = (g[1:] != g[:-1]) | (s_s[1:] != s_s[:-1])
    gh = g[first]
    gl = l[first]
    gcounts = np.bincount(s_s[first], minlength=p)
    goff = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(gcounts, out=goff[1:])
    tables = [GhostTable(gh[goff[i]:goff[i + 1]], gl[goff[i]:goff[i + 1]])
              for i in range(p)]
    machine.charge_hash(counts.sum(axis=0))
    return tables


@_kept_out
@_lists_in
def _relabel_ghost_tables(
    graph: DistGraph,
    vids_per_pe: List[np.ndarray],
    labels_per_pe: List[np.ndarray],
    ghost_tables: List[GhostTable],
    run: MSTRun,
) -> List[Edges]:
    """RELABEL as shipped before it read the push: a local lookup per PE,
    then the ghost tables for the rest."""
    p = graph.machine.n_procs
    parts = graph.parts
    lengths = np.array([len(part) for part in parts], dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return [Edges.empty() for _ in range(p)]
    eu = np.concatenate([np.asarray(part.u) for part in parts])
    ev = np.concatenate([np.asarray(part.v) for part in parts])
    ew = np.concatenate([np.asarray(part.w) for part in parts])
    eid = np.concatenate([np.asarray(part.id) for part in parts])
    off = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(lengths, out=off[1:])
    seg = np.repeat(np.arange(p, dtype=np.int64), lengths)

    z = np.empty(0, dtype=np.int64)
    voff = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(np.array([len(v) for v in vids_per_pe], dtype=np.int64),
              out=voff[1:])
    vids = np.concatenate(vids_per_pe) if voff[-1] else z
    labels = np.concatenate(labels_per_pe) if voff[-1] else z

    # Source labels: every source is local by definition.
    u_new = _source_labels(eu, off, voff, labels)
    # Destination labels: local lookup where possible, ghosts otherwise.
    v_local, idx = segmented_lookup(vids, voff, ev, seg)
    v_new = np.empty_like(ev)
    v_new[v_local] = labels[(voff[seg] + idx)[v_local]]
    miss = np.flatnonzero(~v_local)
    if len(miss):
        mv, mseg = ev[miss], seg[miss]
        goff = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(np.array([len(t.ghosts) for t in ghost_tables],
                           dtype=np.int64), out=goff[1:])
        ghosts = np.concatenate([t.ghosts for t in ghost_tables]) \
            if goff[-1] else z
        glabels = np.concatenate([t.labels for t in ghost_tables]) \
            if goff[-1] else z
        g_found, g_idx = segmented_lookup(ghosts, goff, mv, mseg)
        if not g_found.all():
            missing = mv[~g_found][:5]
            raise RuntimeError(f"ghost labels missing for vertices {missing}")
        v_new[miss] = glabels[goff[mseg] + g_idx]
    keep_pos = np.flatnonzero(u_new != v_new)
    koff = np.searchsorted(keep_pos, off)  # kept rows before each part
    ku = u_new[keep_pos]
    kv = v_new[keep_pos]
    kw = ew[keep_pos]
    kid = eid[keep_pos]
    out: List[Edges] = []
    for i in range(p):
        if lengths[i] == 0:
            out.append(Edges.empty())
            continue
        sl = slice(koff[i], koff[i + 1])
        out.append(Edges(ku[sl], kv[sl], kw[sl], kid[sl]))
    nz = np.flatnonzero(lengths)
    graph.machine.charge_scan(lengths[nz], ranks=nz)
    return out


# ----------------------------------------------------------------------
# core/base_case.py as shipped before the p candidate tables were reduced
# in one call: the pairwise operator ``Comm`` folded table by table, and
# the one-rank charge loops.
# ----------------------------------------------------------------------
def _row_min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise lexicographic minimum of two (n, k) candidate tables.

    Rows compare by columns left to right; used as the allreduce operator
    (associative and commutative).
    """
    take_b = np.zeros(len(a), dtype=bool)
    tie = np.ones(len(a), dtype=bool)
    for c in range(a.shape[1]):
        take_b |= tie & (b[:, c] < a[:, c])
        tie &= b[:, c] == a[:, c]
    return np.where(take_b[:, None], b, a)


def base_case(graph: DistGraph, run: MSTRun):
    """Finish the MSF computation with the replicated-vertex algorithm.

    Returns the final (replicated) component map as a pair of arrays
    ``(labels, representatives)`` over the vertices that were still present,
    or ``None`` for an empty remainder.
    """
    p = graph.machine.n_procs
    comm = run.comm
    machine = graph.machine

    # ---- Remap the remaining labels to a dense range (replicated). ----
    local_vids = [np.unique(part.u) for part in graph.parts]
    vlabels = np.unique(comm.allgatherv(local_vids))
    n_dense = len(vlabels)
    if n_dense == 0:
        return
    machine.check_memory(np.full(p, n_dense * 8 * 6, dtype=np.float64))

    # Dense edge endpoints of all PEs in one flat block (ids and weights
    # ride along); ``pe`` is each row's PE.
    parts = graph.parts
    pe = np.repeat(np.arange(p, dtype=np.int64), [len(q) for q in parts])
    eu = np.searchsorted(vlabels, np.concatenate([q.u for q in parts]))
    ev = np.searchsorted(vlabels, np.concatenate([q.v for q in parts]))
    ew = np.concatenate([q.w for q in parts])
    eid = np.concatenate([q.id for q in parts])
    for i in range(p):
        machine.charge_scan(np.array([len(parts[i])]), ranks=np.array([i]))

    cur = np.arange(n_dense, dtype=np.int64)  # replicated component labels

    for _ in range(run.cfg.max_rounds):
        counts = np.bincount(pe, minlength=p)
        alive_total = comm.allreduce([int(c) for c in counts])
        if alive_total == 0:
            break
        # ---- Local candidates: per (PE, vertex) the (w, cu, cv, other, id)
        # min, one (n', 5) table per PE. ----
        grp = np.concatenate([eu, ev])
        oth = np.concatenate([ev, eu])
        w2 = np.concatenate([ew, ew])
        rows, pick = lightest_per_group(np.concatenate([pe, pe]) * n_dense
                                        + grp, grp, oth, w2, p * n_dense)
        w, cu, cv = tie_key(grp[pick], oth[pick], w2[pick])
        cand = np.full((p * n_dense, 5), INF, dtype=np.int64)
        cand[rows, 0] = w
        cand[rows, 1] = cu
        cand[rows, 2] = cv
        cand[rows, 3] = oth[pick]
        cand[rows, 4] = np.concatenate([eid, eid])[pick]
        for i in range(p):
            machine.charge_scan(np.array([max(counts[i], 1) + n_dense]),
                                ranks=np.array([i]))
        best = comm.allreduce(list(cand.reshape(p, n_dense, 5)), op=_row_min)

        # ---- Replicated contraction (identical on every PE). ----
        comp = np.flatnonzero(best[:, 0] != INF)
        parent_of = best[comp, 3]
        roots, parent_map = contract_pseudo_forest(comp, parent_of, n_dense)
        # MST edges of all non-root components -- record once.  Ids are
        # distinct here: two components choosing the same directed edge form
        # a 2-cycle, whose root does not record.
        run.record_mst(0, best[comp[~roots], 4], best[comp[~roots], 0])
        # Report the contraction to the label sink in *original* labels.
        changed = parent_map != np.arange(n_dense)
        if changed.any():
            run.record_labels(0, vlabels[np.flatnonzero(changed)],
                              vlabels[parent_map[changed]])
        cur = parent_map[cur]
        machine.charge_scan(np.full(p, n_dense, dtype=np.float64))

        # ---- Relabel local edges, drop self loops. ----
        a = parent_map[eu]
        b = parent_map[ev]
        keep = a != b
        eu, ev, ew, eid, pe = a[keep], b[keep], ew[keep], eid[keep], pe[keep]
        for i in np.flatnonzero(counts):
            machine.charge_scan(np.array([counts[i]]), ranks=np.array([i]))
    else:
        raise RuntimeError("base case failed to converge")
    return vlabels, vlabels[cur]


# ----------------------------------------------------------------------
# sorting/hypercube.py: the replay as shipped before the exchanges'
# charges were computed per level -- one ``account`` per node, one sort
# charge per leaf, in the recursion's pre-order.
# ----------------------------------------------------------------------
def _replay_per_node(comm: Comm, nodes: Dict[Tuple[int, int], _Node],
                     levels: List[_Level], final_lens: np.ndarray,
                     rows: np.ndarray, n_key_cols: int) -> None:
    """Issue every node's charges in the recursion's pre-order.

    Per node: the sample ``allgatherv``; then, unless it holds no row, the
    partition scan and the scalar ``allreduce`` of the low count; for a
    degenerate split the two key-tuple ``allreduce``s (a tuple per PE, one
    word when the node's first PE is empty and contributes ``None``)
    followed by the spread's ``exscan`` or the strict split's second count;
    the exchange; for a spread the closing scan.  A single PE sorts.
    """
    machine = comm.machine
    cost = machine.cost
    template = rows[:0]
    row_words = rows.shape[1]
    stack = [(0, comm.size)]
    while stack:
        lo, hi = stack.pop()
        sub = comm.slice(lo, hi)
        g = hi - lo
        if g == 1:
            machine.charge_sort(final_lens[lo:hi], ranks=sub.ranks)
            continue
        node = nodes[lo, hi]
        nbytes = node.sample_rows * row_words * 8
        sub._sync_and_charge(cost.allgather(g, nbytes), op="allgatherv",
                             nbytes=nbytes)
        if node.kind == _EMPTY:
            continue
        level = levels[node.level]
        sent = level.sent[lo:hi]
        machine.charge_scan(sent, ranks=sub.ranks)
        word = cost.collective_tree(g, 8)
        sub._sync_and_charge(word, op="allreduce", nbytes=8)
        if node.kind != _SPLIT:
            nbytes = 8 * n_key_cols if sent[0] else 8
            for _ in ("min", "max"):
                sub._sync_and_charge(cost.collective_tree(g, nbytes),
                                     op="allreduce", nbytes=nbytes)
            sub._sync_and_charge(
                word, op="exscan" if node.kind == _SPREAD else "allreduce",
                nbytes=8)
        account(sub, "auto", template, node.counts,
                     functools.partial(_group_block, rows, level.payload,
                                       lo, hi))
        if node.kind == _SPREAD:
            machine.charge_scan(level.received[lo:hi], ranks=sub.ranks)
            continue
        mid = lo + g // 2
        stack += [(mid, hi), (lo, mid)]


# ----------------------------------------------------------------------
# The per-PE random draws, as the sites made them before the streams were
# batched: one ``numpy.random.Generator`` call per PE (hypercube pivots,
# sample sort's sample, Filter-Boruvka's pivot sample).
# ----------------------------------------------------------------------
def generator_integers(machine: Machine, pe: int, high: int,
                       size: int) -> np.ndarray:
    """``integers(0, high, size)`` from PE ``pe``'s stream through a numpy
    ``Generator`` seeded ``SeedSequence(entropy=seed, spawn_key=(pe,))``,
    as the per-PE generators were.  The machine's
    state of the stream goes in and comes back out, so oracle and
    production sites draw from one stream per PE."""
    streams = machine._streams
    gen = np.random.default_rng(
        np.random.SeedSequence(entropy=machine.seed, spawn_key=(pe,)))
    if pe in streams.drawn:
        gen.bit_generator.state = streams._get(pe)
    out = gen.integers(0, high, size)
    streams._set(pe, gen.bit_generator.state)
    return out


def sample_positions(machine, ranks, lens, cap: int):
    """Reference engine: one ``Generator`` call per PE that holds rows."""
    lens = np.asarray(lens)
    ranks = np.asarray(ranks)
    drawing = np.flatnonzero(lens)
    take = np.minimum(lens[drawing], cap)
    picks = [generator_integers(machine, int(ranks[i]), int(lens[i]), int(t))
             for i, t in zip(drawing.tolist(), take.tolist())]
    return drawing, take, (np.concatenate(picks) if picks
                           else np.empty(0, dtype=np.int64))


#: ``(module, attribute, oracle)``: the production function each oracle
#: stands in for.
ORACLES = (
    ("repro.simmpi.alltoall", "route_rows", route_rows),
    ("repro.core.minedges", "min_edges", _min_edges_loop),
    ("repro.core.contraction", "contract_components", _contract_loop),
    ("repro.core.labels", "exchange_labels", _exchange_labels_loop),
    ("repro.core.labels", "relabel", _relabel_loop),
    ("repro.core.redistribute", "redistribute", redistribute),
    ("repro.sorting.common", "local_lexsort_parts", local_lexsort_parts),
    ("repro.sorting.common", "rebalance_blocks", rebalance_blocks),
    ("repro.sorting.samplesort", "sort_samplesort", sort_samplesort),
    ("repro.sorting.common", "sample_positions", sample_positions),
    ("repro.sorting.hypercube", "_replay", _replay_per_node),
    ("repro.core.base_case", "base_case", base_case),
    ("repro.core.base_case", "_row_min", _row_min),
    ("repro.competitors.awerbuch_shiloach", "_resolve", _resolve),
    ("repro.core.local_preprocessing", "_contract_one_pe",
     _contract_one_pe_searched),
    ("repro.core.boruvka", "InputSnapshot", InputSnapshot),
    ("repro.core.boruvka", "redistribute_mst", redistribute_mst),
    ("repro.core.plabels", "DistributedLabelArray", DistributedLabelArray),
    ("repro.core.filter_boruvka", "_split_by_pivot", _split_by_pivot),
    ("repro.dgraph.dist_graph", "check_weights", check_weights),
    ("repro.dgraph.dist_graph", "check_local_sorted", check_local_sorted),
    ("repro.dgraph.dist_graph", "check_global_sorted", check_global_sorted),
    ("repro.dgraph.dist_graph", "part_records", part_records),
    ("repro.dgraph.dist_graph", "shared_free_bounds", shared_free_bounds),
    # Second oracles of a site: picked by their own name through
    # ``loop_oracles(only=...)``, never by default.
    ("repro.core.contraction", "contract_components", _contract_routed),
    ("repro.core.labels", "exchange_labels", _exchange_labels_routed),
    ("repro.core.labels", "exchange_labels", _exchange_labels_ghost_tables),
    ("repro.core.labels", "relabel", _relabel_ghost_tables),
    ("repro.competitors.awerbuch_shiloach", "_resolve", _resolve_routed),
    ("repro.core.boruvka", "InputSnapshot", InputSnapshotParts),
    ("repro.core.boruvka", "redistribute_mst", redistribute_mst_routed),
)
