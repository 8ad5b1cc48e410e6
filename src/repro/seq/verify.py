"""MSF verification utilities.

Every distributed algorithm in this package is checked against these
functions in the test suite.  Verification is stricter than "same weight":

* :func:`is_spanning_forest` -- the candidate is acyclic and connects exactly
  the same vertex pairs as the input graph;
* :func:`verify_msf` -- additionally, its total weight equals sequential
  Kruskal's (which, with the shared tie-breaking order, implies optimality),
  and optionally the edge multiset matches triple-for-triple;
* :func:`networkx_msf_weight` -- an *external* cross-check through networkx,
  so our own baselines cannot be wrong in a correlated way.
"""

from __future__ import annotations

import numpy as np

from ..dgraph.edges import Edges
from .kruskal import kruskal_msf
from .union_find import UnionFind


def is_forest(candidate: Edges, n_vertices: int) -> bool:
    """True iff the candidate edges contain no cycle."""
    uf = UnionFind(n_vertices)
    kept = uf.union_edges(candidate.u, candidate.v)
    return bool(kept.all())


def spans_same_components(candidate: Edges, graph: Edges, n_vertices: int) -> bool:
    """True iff candidate and graph induce identical connected components."""
    uf_g = UnionFind(n_vertices)
    uf_g.union_edges(graph.u, graph.v)
    uf_c = UnionFind(n_vertices)
    uf_c.union_edges(candidate.u, candidate.v)
    return np.array_equal(
        _canonical_components(uf_g), _canonical_components(uf_c)
    )


def _canonical_components(uf: UnionFind) -> np.ndarray:
    comp = uf.components()
    # Renumber groups by order of first occurrence: the result depends only
    # on the partition, not on which element each union picked as root.
    _, first_idx, inverse = np.unique(comp, return_index=True,
                                      return_inverse=True)
    order = np.argsort(first_idx)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[inverse]


def is_spanning_forest(candidate: Edges, graph: Edges, n_vertices: int) -> bool:
    """Candidate is a spanning forest of the graph (not necessarily minimum)."""
    return is_forest(candidate, n_vertices) and spans_same_components(
        candidate, graph, n_vertices
    )


class VerificationError(AssertionError):
    """A candidate is not the MSF (raised explicitly: survives ``-O``)."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise VerificationError(message)


def verify_msf(candidate: Edges, graph: Edges, n_vertices: int,
               check_edges: bool = True) -> None:
    """Check that ``candidate`` is *the* minimum spanning forest of ``graph``.

    Raises :class:`VerificationError` (an ``AssertionError``) with a
    diagnostic message on any violation.  With ``check_edges`` the
    canonical (w, min, max) triples must match Kruskal's exactly (valid when
    the input has no exactly-parallel duplicate edges); without it only
    forest structure and total weight are compared.
    """
    _require(is_forest(candidate, n_vertices), "candidate contains a cycle")
    _require(spans_same_components(candidate, graph, n_vertices),
             "candidate does not span the graph's components")
    reference = kruskal_msf(graph, n_vertices)
    got_w, ref_w = candidate.total_weight(), reference.total_weight()
    _require(got_w == ref_w, f"weight {got_w} != Kruskal weight {ref_w}")
    if check_edges:
        got = candidate.canonical_triples()
        ref = reference.canonical_triples()
        _require(got.shape == ref.shape and np.array_equal(got, ref),
                 "MSF edge multiset differs from Kruskal's")


def networkx_msf_weight(graph: Edges, n_vertices: int) -> int:
    """Independent MSF weight via networkx (keeps the lightest parallel edge)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n_vertices))
    # add_weighted_edges_from keeps the *last* parallel edge; feed heaviest
    # first so the lightest survives, matching MSF semantics.
    order = np.lexsort((graph.w,))[::-1]
    g.add_weighted_edges_from(
        zip(graph.u[order].tolist(), graph.v[order].tolist(),
            graph.w[order].tolist())
    )
    return int(
        sum(d["weight"] for _, _, d in
            nx.minimum_spanning_edges(g, algorithm="kruskal", data=True))
    )
