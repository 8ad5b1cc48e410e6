"""Vectorised lexicographic searchsorted for home-PE localisation.

Section II-B: "We replicate an array of size p containing min_lex(E_i) ...
This allows localization of the home PE of a vertex or edge by binary
search."  The keys are (u, v, w) triples; numpy's ``searchsorted`` only
handles scalar keys, so this module provides a vectorised multi-key variant
built on one ``lexsort`` over keys and queries combined -- O((p+q) log(p+q))
for q queries against p keys, with no per-query Python loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def sorted_lookup(haystack: np.ndarray, needles: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Membership probe of ``needles`` in a sorted 1-D ``haystack``.

    Returns ``(found, idx)``: ``found[k]`` is whether ``needles[k]`` occurs
    in ``haystack`` and ``idx[k]`` is its position (clamped to the valid
    range, 0 for an empty haystack, so gathering ``haystack[idx]`` is always
    safe; ``idx`` is meaningful only where ``found``).  This is the one
    clamped-searchsorted-probe used everywhere a sorted array serves as a
    lookup table -- pointer-doubling replies, ghost-label tables, RELABEL's
    destination lookup -- replacing three hand-rolled copies with subtly
    different empty-array handling.
    """
    needles = np.asarray(needles)
    idx = np.searchsorted(haystack, needles)
    if len(haystack) == 0:
        return np.zeros(len(needles), dtype=bool), np.zeros(len(needles),
                                                            dtype=np.int64)
    valid = idx < len(haystack)
    idx = np.minimum(idx, len(haystack) - 1)
    found = valid & (haystack[idx] == needles)
    return found, idx


def _pack_columns(keys: Sequence[np.ndarray], queries: Sequence[np.ndarray]):
    """Pack multi-column lexicographic keys into single int64 scalars.

    Returns ``(packed_keys, packed_queries)`` when the per-column value
    ranges are narrow enough that the mixed-radix encoding fits int64 (the
    encoding is strictly monotone in lexicographic order, so a plain binary
    search replaces the merged lexsort), else ``None``.
    """
    lo_hi = []
    capacity = 1
    for c in range(len(keys)):
        kc = np.asarray(keys[c], dtype=np.int64)
        qc = np.asarray(queries[c], dtype=np.int64)
        lo = int(kc.min())
        hi = int(kc.max())
        if len(qc):
            lo = min(lo, int(qc.min()))
            hi = max(hi, int(qc.max()))
        span = hi - lo + 1
        capacity *= span
        # Bail out when the packed key or the raw values overflow int64.
        if capacity >= (1 << 62) or hi >= (1 << 62) or lo <= -(1 << 62):
            return None
        lo_hi.append((lo, span, kc, qc))
    pk = np.zeros(len(lo_hi[0][2]), dtype=np.int64)
    pq = np.zeros(len(lo_hi[0][3]), dtype=np.int64)
    for lo, span, kc, qc in lo_hi:
        pk = pk * span + (kc - lo)
        pq = pq * span + (qc - lo)
    return pk, pq


def lex_searchsorted(
    keys: Sequence[np.ndarray],
    queries: Sequence[np.ndarray],
    side: str = "right",
) -> np.ndarray:
    """Insertion indices of lexicographic ``queries`` into sorted ``keys``.

    ``keys`` and ``queries`` are sequences of equally many component arrays,
    most-significant component first (e.g. ``(u, v, w)``).  ``keys`` must be
    lexicographically sorted.  Semantics match ``np.searchsorted``: with
    ``side='right'`` the result counts keys <= query, with ``side='left'``
    keys < query.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    n_comp = len(keys)
    if len(queries) != n_comp:
        raise ValueError("keys and queries must have the same number of components")
    k = len(keys[0]) if n_comp else 0
    q = len(queries[0]) if n_comp else 0
    if q == 0:
        return np.empty(0, dtype=np.int64)
    if k == 0:
        return np.zeros(q, dtype=np.int64)

    packed = _pack_columns(keys, queries)
    if packed is not None:
        pk, pq = packed
        return np.searchsorted(pk, pq, side=side)

    merged = [
        np.concatenate([np.asarray(keys[c], dtype=np.int64),
                        np.asarray(queries[c], dtype=np.int64)])
        for c in range(n_comp)
    ]
    is_query = np.zeros(k + q, dtype=np.int8)
    is_query[k:] = 1
    # side='right': equal queries sort after keys (tie-break key 1);
    # side='left': before (tie-break 0 for queries via negation).
    tie = is_query if side == "right" else (1 - is_query)
    # lexsort takes least-significant key first.
    order = np.lexsort(tuple([tie] + list(reversed(merged))))
    sorted_is_query = is_query[order] == 1
    keys_before = np.cumsum(~sorted_is_query)
    result = np.empty(q, dtype=np.int64)
    query_positions = order[sorted_is_query] - k
    result[query_positions] = keys_before[sorted_is_query]
    return result


#: :func:`home_pe_of_edges` tabulates the home PE per source vertex only
#: while the queried vertex range has at most this many ids per query.
HOME_VERTICES_PER_QUERY = 4


def home_pe_of_edges(
    min_keys: Sequence[np.ndarray],
    qu: np.ndarray,
    qv: np.ndarray,
    qw: np.ndarray,
) -> np.ndarray:
    """Home PE of each queried directed edge ``(qu, qv, qw)``.

    ``min_keys = (u, v, w)`` is the replicated per-PE first-edge array (with
    empty PEs holding their successor's key, see
    :meth:`repro.dgraph.dist_graph.DistGraph.rebuild_min_keys`).  The home PE
    is the rightmost PE whose first edge is <= the query.

    The source vertex alone decides it unless some PE's first edge starts
    at that very vertex: every first edge with a smaller source is below the
    query, every one with a larger source above.  So the home PE is
    tabulated once per vertex of the queried id range (a count of first
    sources per vertex and its running sum; the table stays in cache for
    dense ids), gathered per query, and only queries at one of the <= p
    boundary vertices (0.4 % of the rows of a 64-PE GNM instance) run the
    three-key search.  Packing three full columns to search p keys was
    0.050 of this function's 0.058 s per op there (now 0.020 s); a plain
    one-key ``np.searchsorted(min_u, qu)`` on the unsorted ``qu`` is slower
    than either (0.076 s, branch misses).

    Id ranges sparser than :data:`HOME_VERTICES_PER_QUERY` ids per query
    keep the three-key search for every row.  The measurement behind 4
    (512 k ``uint32`` queries, p = 64, min of 7, ms; ids per query ->
    table, against a three-key search of 25): 0.03 -> 4.5, 1 -> 8.7, 4 ->
    16, 8 -> 26, 16 -> 52; the same crossover at 8 with 8 k queries (0.35)
    and at p = 256 (34).
    """
    qu = np.asarray(qu)
    if len(qu) and qu.dtype.kind in "iu":
        lo, hi = int(qu.min()), int(qu.max())
        if hi - lo < HOME_VERTICES_PER_QUERY * len(qu):
            first_src = np.asarray(min_keys[0])
            inside = first_src[(first_src >= lo) & (first_src <= hi)] - lo
            starts_here = np.bincount(inside, minlength=hi - lo + 1)
            home = np.cumsum(starts_here)  # first sources in [lo, vertex]
            home += np.count_nonzero(first_src < lo) - 1
            np.maximum(home, 0, out=home)
            home[inside] = -1  # a PE's first source: ask all three keys
            idx = home[qu - lo]
            rows = np.flatnonzero(idx < 0)
            idx[rows] = lex_searchsorted(
                min_keys, (qu[rows], np.asarray(qv)[rows],
                           np.asarray(qw)[rows]), side="right") - 1
            return np.maximum(idx, 0)
    idx = lex_searchsorted(min_keys, (qu, qv, qw), side="right") - 1
    return np.maximum(idx, 0)


def home_pe_of_vertices(min_u: np.ndarray, qv: np.ndarray) -> np.ndarray:
    """A PE that owns edges with source vertex ``qv`` (rightmost such PE)."""
    idx = np.searchsorted(min_u, np.asarray(qv, dtype=np.int64), side="right") - 1
    return np.maximum(idx, 0)
