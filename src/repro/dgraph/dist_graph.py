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
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..simmpi.collectives import Comm
from ..simmpi.machine import Machine
from .edges import WEIGHT_LIMIT, Edges
from .search import home_pe_of_edges, home_pe_of_vertices

#: Sentinel key component for PEs with no following non-empty PE.
KEY_SENTINEL = np.iinfo(np.int64).max


class DistGraph:
    """1D-partitioned, globally lexicographically sorted distributed edge list."""

    def __init__(self, machine: Machine, parts: Sequence[Edges],
                 check: bool = True):
        if len(parts) != machine.n_procs:
            raise ValueError(
                f"need {machine.n_procs} parts, got {len(parts)}"
            )
        self.machine = machine
        self.comm = Comm(machine)
        self.parts: List[Edges] = list(parts)
        if machine.sanitizer is not None:
            # Register every part's arrays as PE-owned state: from here on
            # they are write-protected outside machine.on_pe(i) contexts.
            for i, part in enumerate(self.parts):
                machine.sanitizer.adopt_edges(i, part)
        if check:
            self._check_weights()
            self._check_local_sorted()
        self.rebuild_min_keys()
        if check:
            self._check_global_sorted()

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
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
        # (graphgen finalisation), in which case both the O(m log m) sort
        # and the O(m) copy are skipped; the parts below are takes (fresh
        # arrays), so ``edges`` itself is never mutated or adopted.
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
        return cls(machine, parts)

    def _check_weights(self) -> None:
        for i, part in enumerate(self.parts):
            if len(part) and int(part.w.max()) >= WEIGHT_LIMIT:
                raise ValueError(
                    f"part {i} holds edge weight {int(part.w.max())}; "
                    f"weights must be below 2^62 (WEIGHT_LIMIT)")

    def _check_local_sorted(self) -> None:
        for i, part in enumerate(self.parts):
            if not part.is_sorted_lex():
                raise ValueError(f"part {i} is not lexicographically sorted")

    def _check_global_sorted(self) -> None:
        prev_last: Optional[tuple] = None
        for i, part in enumerate(self.parts):
            if len(part) == 0:
                continue
            first = (int(part.u[0]), int(part.v[0]), int(part.w[0]))
            if prev_last is not None and first < prev_last:
                raise ValueError(
                    f"global sortedness violated at PE {i}: {first} < {prev_last}"
                )
            prev_last = (int(part.u[-1]), int(part.v[-1]), int(part.w[-1]))

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
        # One record per PE: [has edges, first u, v, w, last u, size].
        records = np.zeros((p, 6), dtype=np.int64)
        records[:, 5] = np.fromiter(map(len, self.parts), np.int64, count=p)
        full = np.flatnonzero(records[:, 5])
        if len(full):
            records[full, :5] = [
                (1, part.u[0], part.v[0], part.w[0], part.u[-1])
                for part in (self.parts[i] for i in full.tolist())]
        gathered = np.stack(self.comm.allgather(records))
        self.has_edges = gathered[:, 0] == 1
        first_u = gathered[:, 1].copy()
        self.last_src = gathered[:, 4].copy()
        self.part_sizes = gathered[:, 5].copy()
        # Empty PEs inherit the next non-empty PE's key (sentinel at the end).
        nxt = np.minimum.accumulate(
            np.where(self.has_edges, np.arange(p), p)[::-1])[::-1]
        keys = np.full((p + 1, 3), KEY_SENTINEL, dtype=np.int64)
        keys[:p] = gathered[:, 1:4]
        self.min_keys = tuple(np.ascontiguousarray(keys[nxt].T))
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

        Parts are sorted by source, so the count is the number of source
        changes plus one -- no per-PE sort.
        """
        return np.array(
            [np.count_nonzero(part.u[1:] != part.u[:-1]) + 1 if len(part)
             else 0 for part in self.parts],
            dtype=np.int64,
        )

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

    # ------------------------------------------------------------------
    # Per-part vertex structure (source groups are contiguous).
    # ------------------------------------------------------------------
    def vertex_groups(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(distinct source vertices of part i, group start offsets).

        ``starts`` has one extra trailing entry ``len(part)`` so group ``k``
        spans ``[starts[k], starts[k+1])``.
        """
        part = self.parts[i]
        if len(part) == 0:
            z = np.empty(0, dtype=np.int64)
            return z, np.zeros(1, dtype=np.int64)
        return source_groups(part.u)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DistGraph(p={self.machine.n_procs}, "
                f"m={self.global_edge_count()})")


def source_groups(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`DistGraph.vertex_groups` of a non-empty sorted column ``u``."""
    change = np.ones(len(u), dtype=bool)
    change[1:] = u[1:] != u[:-1]
    starts = np.flatnonzero(change)
    return u[starts], np.append(starts, len(u))
