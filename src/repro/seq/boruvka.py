"""Sequential (vectorised) Borůvka's algorithm [6] -- Section II-C.

This is the algorithmic template of the paper's distributed variants and the
base case of :mod:`repro.seq.filter_kruskal`'s Filter-Borůvka cousin.  The
implementation follows Section II-C exactly:

1. per component, select the lightest incident edge (ties broken by the
   shared total order on vertex pairs);
2. the selected edges form *pseudo trees* (trees plus one 2-cycle); the
   2-cycle is broken by rooting at the smaller label;
3. every non-root component contributes its selected edge to the MST;
4. components are contracted to their roots by pointer doubling, edges are
   relabelled, self loops discarded;
5. repeat until no edges remain.

All steps are numpy-vectorised (the grouped argmin of
:func:`~repro.dgraph.edges.lightest_per_group` for step 1, pointer doubling
on the parent array for step 4); there is no per-edge Python loop.
:func:`contract_pseudo_forest` (steps 2 and 4) is shared with KKT and the
distributed base case.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..dgraph.edges import Edges, lightest_per_group


def pseudo_tree_roots(comp: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Break the 2-cycles of a pseudo forest: smaller label becomes root.

    ``comp[k] -> parent[k]`` is the functional graph induced by minimum-edge
    selection over the present components.  Returns a bool mask (aligned with
    ``comp``) of the components that become roots.
    """
    # ``comp`` is sorted (produced by the group-min), so the parent's row can
    # be located with searchsorted; a parent without a row keeps itself.
    loc = np.searchsorted(comp, parent)
    loc_c = np.minimum(loc, len(comp) - 1)
    has_row = comp[loc_c] == parent
    parent_of_parent = np.where(has_row, parent[loc_c], parent)
    two_cycle = parent_of_parent == comp
    return (two_cycle & (comp < parent)) | (parent == comp)


def contract_pseudo_forest(comp: np.ndarray, parent: np.ndarray,
                           n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Contract the pseudo forest ``comp[k] -> parent[k]`` over ``[0, n)``.

    Returns ``(roots, parent_map)``: the :func:`pseudo_tree_roots` mask and
    the star map sending every label to its tree's root (labels without a
    row map to themselves), by pointer doubling.
    """
    roots = pseudo_tree_roots(comp, parent)
    parent_map = np.arange(n, dtype=np.int64)
    parent_map[comp] = parent
    parent_map[comp[roots]] = comp[roots]
    while True:
        nxt = parent_map[parent_map]
        if np.array_equal(nxt, parent_map):
            return roots, parent_map
        parent_map = nxt


def boruvka_round(edges: Edges, labels: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """One Borůvka round over current component ``labels``.

    Returns ``(chosen_positions, new_labels)`` where positions index into
    ``edges`` and ``new_labels`` maps every original vertex to its new
    component root.  (The body of :func:`boruvka_msf` and of KKT's step 1.)
    """
    a = labels[edges.u]
    b = labels[edges.v]
    pos = np.flatnonzero(a != b)
    if len(pos) == 0:
        return np.empty(0, dtype=np.int64), labels
    a, b, w = a[pos], b[pos], edges.w[pos]
    # Symmetrise for selection: each endpoint considers the edge.
    grp = np.concatenate([a, b])
    oth = np.concatenate([b, a])
    comp, arg = lightest_per_group(grp, grp, oth, np.concatenate([w, w]),
                                   len(labels))
    parent = oth[arg]
    roots, parent_map = contract_pseudo_forest(comp, parent, len(labels))
    # MST edges of all non-root components.
    chosen = np.unique(np.concatenate([pos, pos])[arg[~roots]])
    return chosen, parent_map[labels]


def boruvka_msf(edges: Edges, n_vertices: int,
                return_components: bool = False):
    """Minimum spanning forest via Borůvka rounds.

    Parameters
    ----------
    edges:
        Edge sequence; treated as undirected (back edges are welcome but not
        required).
    n_vertices:
        Vertex labels live in ``[0, n_vertices)``.
    return_components:
        Also return the component representative of every vertex in the
        final forest (the modified output specification Filter-Borůvka needs,
        Section V).

    Returns
    -------
    Edges  or  (Edges, np.ndarray)
        MSF edges (one directed representative per forest edge, positions
        from the input), and optionally the per-vertex representatives.
    """
    n = int(n_vertices)
    labels = np.arange(n, dtype=np.int64)
    if len(edges) == 0 or n == 0:
        return (Edges.empty(), labels) if return_components else Edges.empty()

    chosen_positions: list[np.ndarray] = []
    for _ in range(64):  # log2(n) bound with huge slack
        chosen, labels = boruvka_round(edges, labels)
        if len(chosen) == 0:
            break
        chosen_positions.append(chosen)
    else:
        raise RuntimeError("Borůvka failed to converge")

    msf = edges.take(np.unique(np.concatenate(chosen_positions))
                     if chosen_positions else np.empty(0, dtype=np.int64))
    if return_components:
        return msf, labels
    return msf
