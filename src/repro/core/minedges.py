"""MINEDGES: lightest incident edge per local vertex (Algorithm 1, step 1).

For every *non-shared* local vertex the lexicographically
``(w, min(u,v), max(u,v))``-smallest incident edge is selected ("shared
vertices are only considered in the base case", Section IV).  Because the
part is sorted by source vertex, the per-vertex groups are contiguous and
the selection is one vectorised pass (the paper's implementation uses
parlay's Min-Priority-Write; we charge the equivalent linear scan).

All PEs are processed at once: one grouped argmin
(:func:`~repro.dgraph.edges.lightest_per_group`) over a PE-major group id.
The per-PE loop it replaced is the oracle of the differential tests
(``tests/_loop_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import lightest_per_group
from ..dgraph.search import sorted_lookup
from ..kernels import segmented_run_starts


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


def min_edges(graph: DistGraph) -> List[ChosenEdges]:
    """Run MINEDGES on every PE; one linear pass per PE, no communication."""
    shared_set = graph.shared_vertex_set()
    p = graph.machine.n_procs
    parts = graph.parts
    lengths = np.array([len(part) for part in parts], dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return [_empty_chosen() for _ in range(p)]
    off = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(lengths, out=off[1:])
    u = np.concatenate([np.asarray(part.u) for part in parts])
    v = np.concatenate([np.asarray(part.v) for part in parts])
    w = np.concatenate([np.asarray(part.w) for part in parts])
    eid = np.concatenate([np.asarray(part.id) for part in parts])

    # Vertex groups of every PE at once: a group starts where the source
    # changes *or* a new PE's segment begins (shared vertices stay distinct
    # per PE, exactly like per-PE vertex_groups).
    change = segmented_run_starts(u, off)
    group = np.cumsum(change) - 1
    gstart = np.flatnonzero(change)
    vids_flat = u[gstart]
    seg = np.repeat(np.arange(p, dtype=np.int64), lengths)
    gcounts = np.bincount(seg[gstart], minlength=p)
    goff = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(gcounts, out=goff[1:])

    # Group ids are globally increasing PE-major, so one grouped argmin is
    # every PE's per-group (w, min, max) selection at once.
    _, pick = lightest_per_group(group, u, v, w, len(gstart))
    to_flat = v[pick]
    w_flat = w[pick]
    id_flat = eid[pick]
    shared_flat = sorted_lookup(shared_set, vids_flat)[0]

    out: List[ChosenEdges] = []
    for i in range(p):
        if lengths[i] == 0:
            out.append(_empty_chosen())
            continue
        sl = slice(goff[i], goff[i + 1])
        out.append(ChosenEdges(
            vids=vids_flat[sl],
            shared=shared_flat[sl],
            to=to_flat[sl],
            weight=w_flat[sl],
            edge_id=id_flat[sl],
        ))
    nonempty = np.flatnonzero(lengths)
    graph.machine.charge_scan(lengths[nonempty], ranks=nonempty)
    return out
