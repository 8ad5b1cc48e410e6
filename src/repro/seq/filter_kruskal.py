"""Sequential Filter-Kruskal [7] and Filter-Borůvka (paper Section V, Thm. 1).

Filter-Kruskal is "in many respects the best practical sequential algorithm"
(Section I): it quicksort-partitions the edges around a random pivot weight,
recurses on the light part, *filters* the heavy part (dropping edges whose
endpoints already share a component of the partial forest) and only then
recurses on the survivors.

The paper's Theorem 1 swaps the Kruskal base case for Borůvka to cut the span
from linear to polylogarithmic; the sequential :func:`filter_boruvka_msf`
here mirrors that exactly (and its instrumentation --
:class:`FilterStats` -- backs the Theorem-1 bench that counts base-case calls
and per-edge work).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dgraph.edges import Edges
from .boruvka import boruvka_msf
from .union_find import UnionFind


@dataclass
class FilterStats:
    """Instrumentation for the Theorem-1 work/span bench."""

    base_case_calls: int = 0
    base_case_edges: int = 0
    partition_rounds: int = 0
    filtered_out: int = 0
    edges_touched: int = 0


def filter_kruskal_msf(edges: Edges, n_vertices: int,
                       base_case_size: int | None = None,
                       rng: np.random.Generator | None = None,
                       stats: FilterStats | None = None) -> Edges:
    """Minimum spanning forest via Filter-Kruskal [7].

    ``base_case_size`` defaults to ``max(n_vertices, 1024)`` edges, the usual
    "fits in cache / sorting beats partitioning" heuristic.
    """
    return _filter_msf(edges, n_vertices, base_case="kruskal",
                       base_case_size=base_case_size, rng=rng, stats=stats)


def filter_boruvka_msf(edges: Edges, n_vertices: int,
                       base_case_size: int | None = None,
                       rng: np.random.Generator | None = None,
                       stats: FilterStats | None = None) -> Edges:
    """Sequential Filter-Borůvka (paper Section V).

    Same recursion as Filter-Kruskal but with Borůvka in the base case, which
    by Theorem 1 leaves the expected work unchanged at
    ``O(m + n log n log(m/n))`` while making the span polylogarithmic when
    the base case is parallel.
    """
    return _filter_msf(edges, n_vertices, base_case="boruvka",
                       base_case_size=base_case_size, rng=rng, stats=stats)


def _filter_msf(edges: Edges, n_vertices: int, base_case: str,
                base_case_size: int | None, rng, stats) -> Edges:
    n = int(n_vertices)
    if rng is None:
        rng = np.random.default_rng(0)
    if base_case_size is None:
        base_case_size = max(n, 1024)
    if stats is None:
        stats = FilterStats()

    uf = UnionFind(n)
    kept_global: list[Edges] = []

    def solve(e: Edges, degenerate: bool) -> None:
        """The base case on ``e`` relabelled by the current components, so
        the solver sees the contracted problem."""
        stats.base_case_calls += 1
        stats.base_case_edges += len(e)
        ru = uf.find_many(e.u)
        rv = uf.find_many(e.v)
        live = np.flatnonzero(ru != rv)
        e_live = e.take(live)
        # Positional ids so the base case's picks can be mapped back to
        # rows of ``e_live`` regardless of the caller's id scheme.
        contracted = Edges(ru[live], rv[live], e_live.w,
                           np.arange(len(e_live), dtype=np.int64))
        if base_case == "boruvka":
            # Hook every contracted root onto its Borůvka component.
            msf_c, comp = boruvka_msf(contracted, n, return_components=True)
            hooked = np.concatenate([contracted.u, contracted.v])
            uf.parent[hooked] = comp[hooked]
            kept_global.append(e_live.take(msf_c.id))
            return
        # A degenerate pivot's Kruskal orders by the original endpoints.
        order = (e_live if degenerate else contracted).weight_order()
        keep = uf.union_edges(contracted.u[order], contracted.v[order])
        kept_global.append(e_live.take(order[keep]))

    def recurse(e: Edges) -> None:
        if len(e) == 0:
            return
        stats.edges_touched += len(e)
        if len(e) <= base_case_size:
            solve(e, degenerate=False)
            return
        stats.partition_rounds += 1
        pivot = int(e.w[rng.integers(0, len(e))])
        light = e.w <= pivot
        if light.all() or not light.any():
            # Degenerate pivot (many equal weights): fall back to base case.
            solve(e, degenerate=True)
            return
        recurse(e.take(light))
        heavy = e.take(~light)
        ru = uf.find_many(heavy.u)
        rv = uf.find_many(heavy.v)
        survivors = ru != rv
        stats.filtered_out += int((~survivors).sum())
        recurse(heavy.take(survivors))

    recurse(edges)
    return Edges.concat(kept_global).sort_lex()
