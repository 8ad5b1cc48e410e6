"""The distributed graph data structure of Section II-B.

A :class:`DistGraph` is a lexicographically sorted sequence of directed
edges, 1D-partitioned over the PEs of a simulated
:class:`~repro.simmpi.machine.Machine`: PE ``i`` holds the contiguous
subsequence ``E_i``.  For every edge ``(u, v, w)`` the back edge
``(v, u, w)`` is also present somewhere in the global sequence.

Terminology (Fig. 1 of the paper), always from PE ``i``'s point of view:

local vertex
    a source vertex appearing in ``E_i``;
shared vertex
    a vertex whose edges straddle a PE boundary (it is "local" on several
    PEs); possible because the partition cuts the sorted sequence at
    arbitrary positions;
ghost vertex
    a non-local vertex appearing as a destination in ``E_i``;
local edge / cut edge
    both endpoints local / otherwise.

Replicated metadata: each PE holds the array of every PE's
lexicographically-smallest edge (``min_lex(E_i)``), enabling home-PE
localisation of a vertex or edge by binary search
(:mod:`repro.dgraph.search`).  Empty PEs inherit their successor's key so the
search semantics ("rightmost PE whose first edge is <= the query") stay
correct.

Host layout: the global sequence is one :class:`Edges` block plus ``p + 1``
offsets, and ``E_i`` is ``edges[offsets[i]:offsets[i + 1]]``.  Every stage
reads the block and writes fresh arrays; a graph's block is never written in
place (invariant 2, DESIGN.md Section 4).  The constructor locks the block's
four columns read-only, so an in-place write -- which would also leave the
caches derived from the block stale -- raises numpy's ``ValueError``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..kernels import RaggedArrays, index_dtype, segmented_run_starts
from ..kernels.segmented import packed_lexsort
from ..simmpi.alltoall import route_rows
from ..simmpi.collectives import Comm
from ..simmpi.machine import Machine
from .edges import WEIGHT_LIMIT, Edges
from .search import home_pe_of_edges, home_pe_of_vertices

#: Sentinel key component for PEs with no following non-empty PE.
KEY_SENTINEL = np.iinfo(np.int64).max


class DistGraph:
    """1D-partitioned, globally lexicographically sorted distributed edge list.

    The host holds the global sequence as one :class:`Edges` block and
    ``p + 1`` ``offsets``: PE ``i``'s part is ``edges[offsets[i]:
    offsets[i + 1]]``.  Once built, the block is read-only.
    """

    def __init__(self, machine: Machine, edges: Edges, offsets,
                 check: bool = True):
        p = machine.n_procs
        offsets = np.asarray(offsets, dtype=np.int64)
        if len(offsets) != p + 1:
            raise ValueError(f"need {p} parts, got {len(offsets) - 1}")
        if offsets[0] != 0 or offsets[-1] != len(edges) or (
                np.diff(offsets) < 0).any():
            raise ValueError(
                f"offsets must rise from 0 to the block's {len(edges)} rows")
        self.machine = machine
        self.comm = Comm(machine)
        self.edges = edges
        self.offsets = offsets
        self._runs: Optional[np.ndarray] = None
        self._run_offsets: Optional[np.ndarray] = None
        self._row_pes: Optional[np.ndarray] = None
        if check:
            check_weights(edges, offsets)
            check_local_sorted(edges, offsets)
        self.rebuild_min_keys()
        if check:
            check_global_sorted(edges, offsets)
        # Invariant 2: the resident block is never written in place.  A
        # block the checks reject goes back to the caller still writable.
        for col in (edges.u, edges.v, edges.w, edges.id):
            col.flags.writeable = False

    def source_runs(self) -> np.ndarray:
        """The first row of every run of equal sources within a part: the
        parts' local vertices are ``edges.u`` there, PE by PE."""
        if self._runs is None:
            self._runs = np.flatnonzero(
                segmented_run_starts(self.edges.u, self.offsets))
        return self._runs

    def run_offsets(self) -> np.ndarray:
        """Where every part's runs begin in :meth:`source_runs` (``p + 1``
        entries): part ``i``'s local vertices are runs
        ``run_offsets()[i]:run_offsets()[i + 1]``."""
        if self._run_offsets is None:
            self._run_offsets = np.searchsorted(self.source_runs(),
                                                self.offsets)
        return self._run_offsets

    def row_pes(self) -> np.ndarray:
        """The PE holding every row of the block, in the narrowest policy
        dtype for ``p`` PEs (:func:`~repro.kernels.index_dtype`)."""
        if self._row_pes is None:
            p = len(self.offsets) - 1
            self._row_pes = np.repeat(np.arange(p, dtype=index_dtype(p)),
                                      np.diff(self.offsets))
        return self._row_pes

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    @classmethod
    def from_parts(cls, machine: Machine, parts: Sequence[Edges],
                   check: bool = True) -> "DistGraph":
        """A graph from one edge sequence per PE (concatenated once).

        The constructor for input that arrives as per-PE lists: tests and
        their per-PE oracles.
        """
        offsets = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum([len(part) for part in parts], out=offsets[1:])
        return cls(machine, Edges.concat(parts), offsets, check)

    @classmethod
    def from_global_edges(cls, machine: Machine, edges: Edges,
                          avoid_shared: bool = False) -> "DistGraph":
        """Sort a global edge list and block-partition it over the PEs.

        With ``avoid_shared`` the block boundaries are moved forward to the
        next source-group boundary, reproducing the KaGen input guarantee
        that the initial partition has no shared vertices (Section VII).
        """
        p = machine.n_procs
        m = len(edges)
        # Directed-edge ids are positions in the sorted global sequence --
        # the contract the MST output stage (REDISTRIBUTEMST) relies on.
        # Generated graphs arrive sorted with positional ids already
        # (graphgen finalisation), in which case the O(m log m) sort is
        # skipped for one copy; ``edges`` itself is never mutated or
        # locked.
        if edges.is_sorted_lex() and ids_are_positions(edges.id):
            g = edges.copy()
        else:
            g = edges.sort_lex()
            g.id[:] = np.arange(m, dtype=np.int64)
        bounds = np.linspace(0, m, p + 1).astype(np.int64)
        if avoid_shared and m:
            bounds = shared_free_bounds(g.u, bounds)
        return cls(machine, g, bounds)

    # ------------------------------------------------------------------
    # Replicated metadata (allgather of boundary information).
    # ------------------------------------------------------------------
    def rebuild_min_keys(self) -> None:
        """Re-establish the replicated ``min_lex`` array and boundary info.

        Performed with one allgather of a constant-size record per PE,
        exactly like the paper's REDISTRIBUTE re-establishes the structure
        (Section IV-C).
        """
        p = self.machine.n_procs
        records = part_records(self.edges, self.offsets)
        gathered = np.stack(self.comm.allgather(records))
        self.has_edges = gathered[:, 0] == 1
        first_u = gathered[:, 1].copy()
        self.last_src = gathered[:, 4].copy()
        self.part_sizes = gathered[:, 5].copy()
        self.min_keys = tuple(np.ascontiguousarray(min_lex_keys(gathered).T))
        # Resident footprint: the edge block (4 x int64 per directed edge)
        # plus the compressed initial-copy / working-buffer headroom.  The
        # paper needs >= 4096 cores before wdc-14 fits (Section VII-B); a
        # machine memory limit reproduces that gate for our algorithms too.
        self.machine.check_memory(self.part_sizes.astype(np.float64) * 64.0)
        self.first_src = np.where(self.has_edges, first_u, KEY_SENTINEL)
        # Shared-vertex flags: does part i start with the previous non-empty
        # part's last source vertex / end with the next's first?
        prev = np.maximum.accumulate(
            np.where(self.has_edges, np.arange(p), -1))
        prev = np.concatenate(([-1], prev[:-1]))  # strictly before i
        self.shared_first = (self.has_edges & (prev >= 0)
                             & (first_u == self.last_src[prev]))

    # ------------------------------------------------------------------
    # Global quantities.
    # ------------------------------------------------------------------
    def global_edge_count(self) -> int:
        """Total directed edges across all PEs (replicated metadata)."""
        return int(self.part_sizes.sum())

    def local_vertex_counts(self) -> np.ndarray:
        """Distinct source vertices per PE (shared vertices counted on each).

        Parts are sorted by source, so the count is the number of runs of
        equal sources that start in each part -- no per-PE sort.
        """
        return np.diff(self.run_offsets())

    def global_vertex_count(self) -> int:
        """Number of distinct source vertices in the global sequence.

        Shared vertices are counted once: each PE-boundary where the next
        non-empty part begins with this part's last source subtracts one.
        """
        counts = self.local_vertex_counts()
        return int(counts.sum() - self.shared_first.sum())

    def shared_vertex_set(self) -> np.ndarray:
        """Sorted array of all globally shared vertices.

        A vertex is shared iff its edge range spans a PE boundary, i.e. it is
        the first source of some part that continues its predecessor's last
        source.  Computable from the replicated boundary metadata alone --
        the property the paper exploits to skip communication for shared
        vertices during pointer doubling (Section IV-B).
        """
        vals = self.first_src[self.shared_first]
        return np.unique(vals)

    # ------------------------------------------------------------------
    # Localisation (binary search on the replicated min_lex array).
    # ------------------------------------------------------------------
    def home_of_edges(self, qu: np.ndarray, qv: np.ndarray,
                      qw: np.ndarray) -> np.ndarray:
        """Home PE of the directed edges ``(qu, qv, qw)``."""
        return home_pe_of_edges(self.min_keys, qu, qv, qw)

    def home_of_vertices(self, qv: np.ndarray) -> np.ndarray:
        """A PE owning edges with source ``qv`` (the rightmost such PE)."""
        return home_pe_of_vertices(self.min_keys[0], qv)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DistGraph(p={self.machine.n_procs}, "
                f"m={self.global_edge_count()})")


def source_groups(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values of a non-empty sorted column ``u``, the start of
    each value's run plus a trailing ``len(u)``)."""
    change = np.ones(len(u), dtype=bool)
    change[1:] = u[1:] != u[:-1]
    starts = np.flatnonzero(change)
    return u[starts], np.append(starts, len(u))


# ----------------------------------------------------------------------
# Per-block reads: each reads the whole block at once, with ``offsets``
# naming the parts (their per-part loops are the tests' oracles).
# ----------------------------------------------------------------------
def ids_are_positions(ids: np.ndarray) -> bool:
    """Whether ``ids`` is ``0, 1, ..., len(ids) - 1``."""
    return np.array_equal(ids, np.arange(len(ids), dtype=ids.dtype))


def split_edges(edges: Edges, offsets) -> List[Edges]:
    """``edges[offsets[i]:offsets[i + 1]]`` for every ``i``, as views."""
    e, off = edges, np.asarray(offsets).tolist()
    return [Edges(e.u[a:b], e.v[a:b], e.w[a:b], e.id[a:b])
            for a, b in zip(off[:-1], off[1:])]


def move_home(comm: Comm, edges: Edges, offsets: np.ndarray,
              home: np.ndarray, method: str = "auto"):
    """Move every row whose ``home`` PE is not its own PE there.

    One :func:`~repro.simmpi.alltoall.route_rows` call carries the moving
    rows; then one stable sort by (PE, u, v, w) merges each PE's kept rows
    with what it received, the kept rows first wherever the key ties.
    Returns ``(edges, offsets, received)``: the merged block, its offsets
    and the number of rows every PE received.
    """
    p = len(offsets) - 1
    pes = np.repeat(np.arange(p, dtype=index_dtype(p)), np.diff(offsets))
    move = np.flatnonzero(home != pes)
    cut = np.searchsorted(pes[move], np.arange(1, p))
    recv, _, _ = route_rows(comm, np.split(edges.take(move).as_matrix(), cut),
                            np.split(home[move], cut), method=method)
    got = RaggedArrays.from_arrays(recv)
    keep = np.flatnonzero(home == pes)
    merged = Edges.concat([edges.take(keep), Edges.from_matrix(got.flat)])
    merged_pes = np.concatenate([pes[keep], got.segment_ids()])
    order = packed_lexsort((merged.w, merged.v, merged.u, merged_pes))
    out = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(np.bincount(merged_pes, minlength=p), out=out[1:])
    return merged.take(order), out, got.lengths


def part_records(edges: Edges, offsets: np.ndarray) -> np.ndarray:
    """One record per PE: ``[has edges, first u, v, w, last u, size]``."""
    sizes = np.diff(offsets)
    records = np.zeros((len(sizes), 6), dtype=np.int64)
    records[:, 5] = sizes
    full = np.flatnonzero(sizes)
    first, last = offsets[full], offsets[full + 1] - 1
    records[full, 0] = 1
    records[full, 1] = edges.u[first]
    records[full, 2] = edges.v[first]
    records[full, 3] = edges.w[first]
    records[full, 4] = edges.u[last]
    return records


def min_lex_keys(records: np.ndarray) -> np.ndarray:
    """Every PE's replicated ``min_lex`` key ``(u, v, w)`` from its
    :func:`part_records` row: empty PEs inherit the next non-empty PE's
    key, with a sentinel past the last one."""
    p = len(records)
    nxt = np.minimum.accumulate(
        np.where(records[:, 0] == 1, np.arange(p), p)[::-1])[::-1]
    keys = np.full((p + 1, 3), KEY_SENTINEL, dtype=np.int64)
    keys[:p] = records[:, 1:4]
    return keys[nxt]


def shared_free_bounds(u: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``bounds`` with every interior one moved forward to the next start
    of a source group of the sorted column ``u`` (or its end)."""
    starts = source_groups(u)[1]
    return np.maximum.accumulate(starts[np.searchsorted(starts, bounds)])


def _part_of(offsets: np.ndarray, row) -> int:
    """The part holding ``row`` (the non-empty one where parts start)."""
    return int(np.searchsorted(offsets, row, side="right")) - 1


def check_weights(edges: Edges, offsets: np.ndarray) -> None:
    """Raise unless every weight is below :data:`WEIGHT_LIMIT`."""
    if len(edges) and int(edges.w.max()) >= WEIGHT_LIMIT:
        i = _part_of(offsets, np.argmax(edges.w >= WEIGHT_LIMIT))
        heaviest = int(edges.w[offsets[i]:offsets[i + 1]].max())
        raise ValueError(
            f"part {i} holds edge weight {heaviest}; "
            f"weights must be below 2^62 (WEIGHT_LIMIT)")


def _descents(edges: Edges, force: bool = False) -> np.ndarray:
    """Rows ``k + 1`` that sort before row ``k`` (comparison-based on
    purpose: ``np.diff`` on ``uint32`` columns wraps).  ``force=True``
    scans even a block whose cached flag says it is sorted."""
    if (edges._sorted_lex and not force) or len(edges) <= 1:
        return np.empty(0, dtype=np.int64)
    u, v, w = edges.u, edges.v, edges.w
    eq = u[1:] == u[:-1]
    bad = u[1:] < u[:-1]
    bad |= eq & (v[1:] < v[:-1])
    eq &= v[1:] == v[:-1]
    bad |= eq & (w[1:] < w[:-1])
    return np.flatnonzero(bad) + 1


def check_local_sorted(edges: Edges, offsets: np.ndarray) -> None:
    """Raise unless every part is lexicographically sorted."""
    rows = _descents(edges)
    inside = rows[~np.isin(rows, offsets)]
    if len(inside):
        raise ValueError(f"part {_part_of(offsets, inside[0])} is not "
                         f"lexicographically sorted")


def check_global_sorted(edges: Edges, offsets: np.ndarray) -> None:
    """Raise unless every non-empty part starts at or after the previous
    non-empty part's last edge."""
    rows = _descents(edges)
    if len(rows) == 0:
        edges._sorted_lex = True
    rows = rows[np.isin(rows, offsets)]
    if len(rows) == 0:
        return
    k = int(rows[0])
    first = (int(edges.u[k]), int(edges.v[k]), int(edges.w[k]))
    prev_last = (int(edges.u[k - 1]), int(edges.v[k - 1]),
                 int(edges.w[k - 1]))
    raise ValueError(f"global sortedness violated at PE "
                     f"{_part_of(offsets, k)}: {first} < {prev_last}")
