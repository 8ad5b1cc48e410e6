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

import numpy as np

from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import lightest_per_group
from ..dgraph.search import sorted_lookup
from ..kernels import segment_ids


@dataclass
class ChosenEdges:
    """Result of MINEDGES on every PE, laid end to end.

    PE ``i``'s entries are ``voff[i]:voff[i + 1]``, aligned with its *local
    vertex list* (all distinct sources of its part, shared or not, in
    order).  For shared vertices (mask ``shared``) no edge is chosen and
    the edge fields are undefined.
    """

    vids: np.ndarray        # distinct local vertex ids, sorted per PE
    shared: np.ndarray      # bool: vertex is globally shared
    to: np.ndarray          # chosen edge's other endpoint
    weight: np.ndarray      # chosen edge's weight
    edge_id: np.ndarray     # chosen edge's original directed-edge id
    voff: np.ndarray        # p + 1 offsets of the PEs' vertex lists

    def __len__(self) -> int:
        return len(self.vids)


def min_edges(graph: DistGraph) -> ChosenEdges:
    """Run MINEDGES on every PE; one linear pass per PE, no communication."""
    shared_set = graph.shared_vertex_set()
    e, off = graph.edges, graph.offsets
    u, v = e.u, e.v
    lengths = np.diff(off)

    # Vertex groups of every PE at once: a group starts where the source
    # changes *or* a new PE's segment begins (shared vertices stay distinct
    # per PE, exactly like per-PE vertex_groups).
    gstart = graph.source_runs()
    voff = np.searchsorted(gstart, off)

    # Group ids are globally increasing PE-major, so one grouped argmin is
    # every PE's per-group (w, min, max) selection at once.
    _, pick = lightest_per_group(segment_ids(np.append(gstart, len(u))),
                                 u, v, e.w, len(gstart))
    vids = u[gstart]
    chosen = ChosenEdges(vids=vids,
                         shared=sorted_lookup(shared_set, vids)[0],
                         to=v[pick], weight=e.w[pick], edge_id=e.id[pick],
                         voff=voff)
    nonempty = np.flatnonzero(lengths)
    graph.machine.charge_scan(lengths[nonempty], ranks=nonempty)
    return chosen
