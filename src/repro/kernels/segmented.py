"""Segmented kernels: one numpy pass over all PEs' data at once.

Every kernel takes flat arrays plus segment information (ids or offsets) and
reproduces, per segment, exactly what the corresponding per-PE numpy
operation computes -- same values, same orders, same dtypes.  This is what
makes the flat path bit-identical to the per-PE reference loops: a stable
``lexsort`` keyed by ``(segment, ...)`` restricted to one segment *is* that
segment's own stable lexsort.

All kernels are O(total log total) or better with no per-segment Python
loop.
"""

from __future__ import annotations

import functools
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from .dtypes import index_dtype
from .engine import kernel_sink, record_kernel
from .pool import active_pool


def _instrumented(fn):
    """Report calls and host seconds to the kernel sink when one is attached.

    With no sink attached (the default, untraced case) the wrapper is a
    single ``is None`` check around the call -- the timing path only runs
    for traced machines, keeping the disabled overhead near zero.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        """Forward to the kernel, timing it when a sink is attached."""
        if kernel_sink() is None:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record_kernel(fn.__name__, time.perf_counter() - t0)
    return wrapper


@_instrumented
def segment_ids(offsets: np.ndarray) -> np.ndarray:
    """Segment id of every flat position for ``p + 1`` offsets."""
    offsets = np.asarray(offsets, dtype=np.int64)
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.int64),
                     np.diff(offsets))


def _narrow_perm(perm: np.ndarray, n: int) -> np.ndarray:
    """Permutation indices in the narrowest safe policy dtype."""
    dt = index_dtype(max(n - 1, 0))
    if perm.dtype != dt:
        return perm.astype(dt)
    return perm


#: Packed keys stay below this so mixed-radix arithmetic cannot overflow int64.
_PACK_LIMIT = 1 << 62


def _key_spans(keys: Sequence[np.ndarray], ranges: Optional[Sequence] = None):
    """``([(column, lo, span), ...], capacity)`` of integer key columns, or
    ``None`` when a column is non-integer or its raw values already overflow
    int64 arithmetic.  ``capacity`` is the product of the spans (the number
    of distinct packed values); it may exceed :data:`_PACK_LIMIT`."""
    capacity = 1
    cols = []
    for pos, k in enumerate(keys):
        k = np.asarray(k)
        if k.dtype.kind not in "iub":
            return None
        bound = ranges[pos] if ranges is not None else None
        if bound is None:
            lo = int(k.min())
            hi = int(k.max())
        else:
            lo, hi = int(bound[0]), int(bound[1])
        if hi >= _PACK_LIMIT or lo <= -_PACK_LIMIT:
            return None
        span = hi - lo + 1
        capacity *= span
        cols.append((k, lo, span))
    return cols, capacity


def _pack(cols, out: np.ndarray) -> np.ndarray:
    """Mixed-radix pack of ``cols`` (least-significant first) into ``out``:
    strictly monotone in the lexicographic order, equal exactly on ties."""
    pool = active_pool()
    col_buf = None
    first = True
    for k, lo, span in reversed(cols):  # most-significant column first
        if first:
            np.subtract(k, lo, out=out, casting="unsafe")
            first = False
            continue
        np.multiply(out, span, out=out)
        if col_buf is None:
            col_buf = pool.take(len(out), np.int64)
        np.subtract(k, lo, out=col_buf, casting="unsafe")
        np.add(out, col_buf, out=out)
    pool.give(col_buf)
    return out


def _argsort_packed(cols, capacity: int) -> np.ndarray:
    """Stable argsort of the packed key of ``cols`` (pooled scratch).

    The key sorts in the narrowest width its capacity fits: ``uint16`` up to
    2^16 (numpy's stable argsort of 16-bit keys is a radix pass -- 640 k
    keys: 58 ms as ``int32``, 8-11 ms as ``uint16``), ``int32`` below 2^31
    (half the bytes the merge sort touches), ``int64`` otherwise.  Stable in
    every width, so the permutation does not depend on which one ran.
    """
    pool = active_pool()
    n = len(cols[0][0])
    packed = _pack(cols, pool.take(n, np.int64))
    if capacity < (1 << 31):
        key = pool.take(n, np.uint16 if capacity <= (1 << 16) else np.int32)
        key[:] = packed  # values fit by the capacity bound
        perm = np.argsort(key, kind="stable")
        pool.give(key)
    else:
        perm = np.argsort(packed, kind="stable")
    pool.give(packed)
    return perm


@_instrumented
def packed_lexsort(keys: Sequence[np.ndarray],
                   ranges: Optional[Sequence] = None) -> np.ndarray:
    """Permutation equal to ``np.lexsort(keys)`` (least-significant first).

    Fast path: pack the integer columns into one mixed-radix scalar --
    strictly monotone in the lexicographic order, equal exactly on full-key
    ties -- and run a single stable argsort, one sort pass instead of one
    per key.  Falls back to ``np.lexsort`` when a column is non-integer or
    the combined value ranges overflow int64.

    ``ranges`` optionally supplies a known ``(lo, hi)`` value bound per key
    (aligned with ``keys``, ``None`` entries computed as usual), skipping
    the per-column min/max reduction scans.  The packed key accumulates in
    a pooled scratch buffer (no per-column temporaries) and sorts in the
    narrowest width the combined capacity fits (``uint16`` -- a radix pass
    -- ``int32`` or ``int64``).  Returned indices use the narrowest safe
    policy dtype (:mod:`repro.kernels.dtypes`).
    """
    keys = tuple(keys)
    if not keys:
        return np.empty(0, dtype=index_dtype(0))
    n = len(keys[0])
    if n <= 64 or len(keys) == 1:
        # Packing overhead only pays off once the argsort itself dominates;
        # tiny inputs go straight to lexsort.
        return _narrow_perm(np.lexsort(keys), n)
    spans = _key_spans(keys, ranges)
    if spans is None or spans[1] >= _PACK_LIMIT:
        return _narrow_perm(np.lexsort(keys), n)
    return _narrow_perm(_argsort_packed(*spans), n)


@_instrumented
def order_key(keys: Sequence[np.ndarray]) -> np.ndarray:
    """One int64 per row, strictly monotone in the lexicographic order of
    ``keys`` (least-significant first) and equal exactly on full-key ties.

    The mixed-radix packed key when the value ranges fit int64; the dense
    rank of each row's key (one ``np.lexsort``) otherwise.  Callers that
    compare and re-sort the same rows many times pay for the columns once.
    """
    keys = tuple(keys)
    n = len(keys[0])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    spans = _key_spans(keys)
    if spans is not None and spans[1] < _PACK_LIMIT:
        return _pack(spans[0], np.empty(n, dtype=np.int64))
    order = np.lexsort(keys)
    new_key = np.zeros(n, dtype=bool)
    for k in keys:
        s = np.asarray(k)[order]
        new_key[1:] |= s[1:] != s[:-1]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.cumsum(new_key)
    return rank


@_instrumented
def segmented_lexsort(keys: Sequence[np.ndarray],
                      seg_ids: np.ndarray) -> np.ndarray:
    """Flat permutation equal to a per-segment stable ``np.lexsort``.

    ``keys`` follow numpy's convention (least significant first); the
    segment id is applied as the most significant key.  Because segments are
    contiguous and ascending in flat order, the returned permutation maps
    each segment's range onto itself, so ``perm[off[i]:off[i+1]] - off[i]``
    is exactly ``np.lexsort(keys_of_segment_i)``.

    When the keys pack into int64 but the segment id on top of them does
    not, the sort runs in two stable passes -- the packed keys, then the
    segment ids (16-bit when they fit: a radix pass) -- instead of falling
    back to one ``np.lexsort`` pass per column.
    """
    keys = tuple(keys) + (seg_ids,)
    n = len(seg_ids)
    spans = _key_spans(keys) if n > 64 else None
    if spans is None:
        return _narrow_perm(np.lexsort(keys), n)
    cols, capacity = spans
    if capacity < _PACK_LIMIT:
        return _narrow_perm(_argsort_packed(cols, capacity), n)
    _, seg_lo, seg_span = cols.pop()
    if capacity // seg_span >= _PACK_LIMIT:
        return _narrow_perm(np.lexsort(keys), n)
    by_key = _argsort_packed(cols, capacity // seg_span)
    seg = np.asarray(seg_ids)[by_key]
    if seg_span <= (1 << 16):  # 16-bit keys: stable argsort is a radix pass
        seg = (seg - seg_lo).astype(np.uint16)
    return _narrow_perm(by_key[np.argsort(seg, kind="stable")], n)


@_instrumented
def first_in_group(group_ids: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal adjacent group ids."""
    n = len(group_ids)
    first = np.ones(n, dtype=bool)
    if n > 1:
        first[1:] = group_ids[1:] != group_ids[:-1]
    return first


#: :func:`group_argmin` scatters while ``n_groups`` is at most this many
#: times the row count; sparser groups take the sort.
SCATTER_GROUPS_PER_ROW = 8


def _scatter_fits(n: int, n_groups: int, capacity: int) -> bool:
    """Whether :func:`group_argmin` takes the scatter arm: the packed key
    with the row position below it fits int64, and the groups are dense
    enough that the ``n_groups`` table costs less than a sort."""
    return (capacity << n.bit_length() < _PACK_LIMIT
            and n_groups <= SCATTER_GROUPS_PER_ROW * n)


@_instrumented
def group_argmin(group: np.ndarray, keys: Sequence[np.ndarray],
                 n_groups: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per group, the row with the lexicographically smallest key.

    ``keys`` are integer columns, *priority first* (the reverse of
    ``np.lexsort``'s convention); ``group`` holds ids in ``[0, n_groups)``.
    Returns ``(groups, pick)``, both ``int64``: the ascending ids of the
    groups that have rows and, for each, the position of its minimal row,
    full-key ties going to the lowest position -- exactly the first row of
    every group in a stable sort keyed ``(group, *keys)``.

    Scatter arm, O(m + n_groups): the keys pack mixed-radix
    (:func:`_pack`) with the row position in the low ``bitlen(m)`` bits, so
    one ``np.minimum.at`` into an ``n_groups`` table finds key and
    tie-break at once (the ``encode_edge`` + atomic-min of the paper's
    Borůvka codes).  Sort arm: stable :func:`packed_lexsort` plus the
    first row per group, taken when the packed key with its position bits
    reaches :data:`_PACK_LIMIT`, or when ``n_groups`` exceeds
    :data:`SCATTER_GROUPS_PER_ROW` times the row count.

    The measurement behind 8 (2^20 groups, ``uint32`` keys ``(w, min,
    max)`` over 2^16 ids, ms, min of 7, scatter / sort; groups in random
    order, then contiguous): 1 group per row 31 / 210, 24 / 54; 4 per row
    12 / 43, 11 / 7.8; 8 per row 4.2 / 19, 4.1 / 3.2; 16 per row 4.1 / 8.7,
    4.1 / 1.5; 64 per row 1.9 / 1.9, 1.9 / 0.36; 512 per row 1.4 / 0.27,
    1.3 / 0.13.  The table's fill and scan cross the sort near 64 groups
    per row when the groups arrive in random order (union-find roots,
    component labels) and near 4 when they arrive contiguous (a sort of
    already-grouped rows is cheap); at 8 the arm taken is within 1.3x of
    the better one in both shapes.  Minimum-edge selection over 2^20 rows
    in 2^14 contiguous groups scatters in 13 ms where the sort took 51.
    """
    group = np.asarray(group)
    n = len(group)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lsf = tuple(keys)[::-1]  # least significant first, as packed_lexsort
    spans = _key_spans(lsf)
    if spans is not None and _scatter_fits(n, n_groups, spans[1]):
        pool = active_pool()
        shift = n.bit_length()
        key = _pack(spans[0], pool.take(n, np.int64))
        key <<= shift
        key += np.arange(n, dtype=np.int64)
        best = np.full(n_groups, np.iinfo(np.int64).max)
        np.minimum.at(best, group, key)
        pool.give(key)
        groups = np.flatnonzero(best != np.iinfo(np.int64).max)
        return groups, best[groups] & ((1 << shift) - 1)
    order = packed_lexsort(lsf + (group,))
    first = first_in_group(group[order])
    return (group[order[first]].astype(np.int64),
            order[first].astype(np.int64))


def segmented_run_starts(values: np.ndarray,
                         offsets: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal adjacent ``values``
    *within a segment*: a run also starts where a segment begins.

    For segments sorted by ``values`` the runs are each segment's distinct
    values in order, so ``np.cumsum(mask) - 1`` is every position's index
    into the concatenated per-segment unique lists -- the layout answers
    what a per-segment ``searchsorted`` into those lists would.
    """
    change = first_in_group(values)
    starts = np.asarray(offsets[:-1])
    change[starts[starts < len(values)]] = True
    return change


@_instrumented
def segmented_unique(
    values: np.ndarray,
    seg_ids: np.ndarray,
    n_segments: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment ``np.unique(values, return_inverse=True)`` in one pass.

    Returns ``(uniq, uniq_offsets, inverse)``: ``uniq`` concatenates each
    segment's sorted distinct values (segment ``i`` spanning
    ``uniq[uniq_offsets[i]:uniq_offsets[i+1]]``) and ``inverse`` maps every
    input position to the index of its value *within its own segment's*
    unique list -- exactly numpy's ``return_inverse`` semantics per segment.
    """
    order = packed_lexsort((values, seg_ids))
    sv = values[order]
    sseg = seg_ids[order]
    first = np.ones(len(sv), dtype=bool)
    if len(sv) > 1:
        first[1:] = (sv[1:] != sv[:-1]) | (sseg[1:] != sseg[:-1])
    uniq = sv[first]
    useg = sseg[first]
    counts = np.bincount(useg, minlength=n_segments)
    uniq_offsets = np.zeros(n_segments + 1, dtype=np.int64)
    np.cumsum(counts, out=uniq_offsets[1:])
    global_rank = np.cumsum(first) - 1
    inverse = np.empty(len(values), dtype=np.int64)
    inverse[order] = global_rank - uniq_offsets[sseg]
    return uniq, uniq_offsets, inverse


@_instrumented
def segmented_searchsorted(
    haystack: np.ndarray,
    hay_offsets: np.ndarray,
    needles: np.ndarray,
    needle_seg: np.ndarray,
    side: str = "left",
) -> np.ndarray:
    """Per-segment ``np.searchsorted`` with a different haystack per segment.

    Each segment's haystack slice must be sorted.  Fast path: when the value
    range is narrow enough, shift each segment's values by ``seg * span`` --
    the flat haystack becomes globally sorted and one plain binary search
    answers every query (O((h+q) log h)).  Values too wide to pack fall back
    to one merged stable lexsort over haystack and needles combined (the
    same trick as :func:`repro.dgraph.search.lex_searchsorted`, with the
    segment id as the most significant key).  Either way no per-segment
    Python loop runs.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    hay_offsets = np.asarray(hay_offsets, dtype=np.int64)
    h, q = len(haystack), len(needles)
    if q == 0:
        return np.empty(0, dtype=np.int64)
    if h == 0:
        return np.zeros(q, dtype=np.int64)
    haystack = np.asarray(haystack)
    needles = np.asarray(needles)
    needle_seg = np.asarray(needle_seg, dtype=np.int64)
    lo = min(int(haystack.min()), int(needles.min()))
    hi = max(int(haystack.max()), int(needles.max()))
    span = hi - lo + 1
    n_segments = len(hay_offsets) - 1
    if (haystack.dtype.kind in "iub" and needles.dtype.kind in "iub"
            and n_segments * span < (1 << 62)  # packed keys fit int64
            and -(1 << 62) < lo and hi < (1 << 62)):
        hkey = (haystack.astype(np.int64) - lo
                + segment_ids(hay_offsets) * span)
        nkey = needles.astype(np.int64) - lo + needle_seg * span
        return (np.searchsorted(hkey, nkey, side=side)
                - hay_offsets[needle_seg])
    merged = np.concatenate([haystack, needles])
    seg = np.concatenate([segment_ids(hay_offsets),
                          np.asarray(needle_seg, dtype=np.int64)])
    is_query = np.zeros(h + q, dtype=np.int8)
    is_query[h:] = 1
    tie = is_query if side == "right" else (1 - is_query)
    order = np.lexsort((tie, merged, seg))
    sorted_is_query = is_query[order] == 1
    keys_before = np.cumsum(~sorted_is_query)
    qpos = order[sorted_is_query] - h
    result = np.empty(q, dtype=np.int64)
    result[qpos] = (keys_before[sorted_is_query]
                    - hay_offsets[seg[order][sorted_is_query]])
    return result


#: :func:`segmented_lookup` builds its direct-address table only while the
#: table has at most this many cells per haystack-plus-needle element.
LOOKUP_CELLS_PER_ELEMENT = 16


def _lookup_table(haystack: np.ndarray, hay_offsets: np.ndarray,
                  needles: np.ndarray, needle_seg: np.ndarray):
    """Direct-address arm of :func:`segmented_lookup`, or ``None`` when the
    segments' value windows are too sparse (or too wide) to tabulate."""
    if any(a.dtype.kind not in "iub" or a.dtype == np.uint64
           for a in (haystack, needles)):
        return None  # values must be exact in int64
    h, q = len(haystack), len(needles)
    lens = np.diff(hay_offsets)
    nonempty = lens > 0
    # A sorted segment's values lie in [first, last]; empty segments get the
    # empty window [0, -1].
    first = np.zeros(len(lens), dtype=np.int64)
    last = np.full(len(lens), -1, dtype=np.int64)
    first[nonempty] = haystack[hay_offsets[:-1][nonempty]]
    last[nonempty] = haystack[hay_offsets[1:][nonempty] - 1]
    extent = last - first  # wraps negative when a window exceeds int64
    if (extent[nonempty] < 0).any() or extent.max() >= (1 << 31):
        return None
    toff = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(extent + 1, out=toff[1:])
    cells = int(toff[-1])
    if (cells > LOOKUP_CELLS_PER_ELEMENT * (h + q) or cells >= (1 << 31)
            or h >= (1 << 31)):
        return None
    # Windows side by side, plus one trailing "absent" cell that every
    # out-of-window needle is pointed at.  Not pooled: the pool's
    # power-of-two blocks double the table (32 MB for the 4 M cells of 256
    # ghost tables), which read +8..13 MB of peak RSS in half the runs.
    table = np.full(cells + 1, -1, dtype=np.int32)
    shift = toff[:-1] - first  # value -> cell, per segment
    cell = haystack + np.repeat(shift, lens)
    local = np.arange(h, dtype=np.int32)
    local -= np.repeat(hay_offsets[:-1], lens).astype(np.int32)
    # Repeated indices keep the last value assigned: reversed, that is the
    # first occurrence of a duplicated haystack value (searchsorted "left").
    table[cell[::-1]] = local[::-1]
    # A needle outside its segment's window lands outside that segment's
    # stretch of the table.  (int64 wrap-around cannot fake a hit: that
    # takes needle - first + 2^64 <= extent, i.e. a window ending past 2^63.)
    cell = needles + shift[needle_seg]
    np.putmask(cell, (cell < toff[:-1][needle_seg])
               | (cell >= toff[1:][needle_seg]), cells)
    idx = table[cell]
    return idx >= 0, idx.astype(np.int64)


@_instrumented
def segmented_lookup(
    haystack: np.ndarray,
    hay_offsets: np.ndarray,
    needles: np.ndarray,
    needle_seg: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment :func:`repro.dgraph.search.sorted_lookup` in one pass.

    Returns ``(found, idx)`` with ``idx`` *local* to the segment: the global
    flat position of a hit is ``hay_offsets[needle_seg] + idx`` (the first
    occurrence when a segment repeats a value).  ``idx`` is defined only
    where ``found``.

    Direct-address path: each segment's haystack is sorted, so its values
    lie in the window ``[first, last]``.  The windows are laid side by side
    in one ``int32`` table of local indices (-1 = absent) and every
    needle is answered by a single gather -- no binary search, no
    ``haystack[pos] == needle`` verify.  Taken while the table has at most
    :data:`LOOKUP_CELLS_PER_ELEMENT` cells per haystack-plus-needle element
    (and fits ``int32``); sparser inputs keep the
    :func:`segmented_searchsorted` probe.  Dense vertex ids put both of
    RELABEL's lookups on the table (local vertices: disjoint windows, about
    n + p cells; ghost tables: about p * n), while p = 1024 PEs over 2^18
    vertices (2^28 ghost cells) stay on the search.

    The measurement behind 16 (64 segments, ``uint32``, min of 7, ms;
    cells per element -> table, against a search that does not depend on
    it): 16 k ids / 512 k needles, disjoint windows, search 20 -- 0.5 ->
    4.6, 4 -> 5.6, 16 -> 10, 62 -> 29; 512 k ids / 512 k needles,
    overlapping windows, search 70 -- 1 -> 8.7, 4 -> 11, 16 -> 35, 64 ->
    89; 2 k ids / 8 k needles, search 0.20 -- 1.6 -> 0.07, 13 -> 0.08,
    102 -> 0.33.  The table's fill and its cache-missing gather grow with
    the cells and cross the search between 16 and 64 in all three shapes;
    16 keeps a 2x margin and bounds the scratch at 64 bytes per element.
    """
    hay_offsets = np.asarray(hay_offsets, dtype=np.int64)
    needle_seg = np.asarray(needle_seg, dtype=np.int64)
    haystack = np.asarray(haystack)
    needles = np.asarray(needles)
    if len(needles) == 0:
        return np.zeros(0, dtype=bool), np.empty(0, dtype=np.int64)
    if len(haystack) == 0:
        return (np.zeros(len(needles), dtype=bool),
                np.zeros(len(needles), dtype=np.int64))
    tabled = _lookup_table(haystack, hay_offsets, needles, needle_seg)
    if tabled is not None:
        return tabled
    idx = segmented_searchsorted(haystack, hay_offsets, needles, needle_seg,
                                 side="left")
    lens = np.diff(hay_offsets)[needle_seg]
    valid = idx < lens
    idx = np.minimum(idx, np.maximum(lens - 1, 0))
    found = np.zeros(len(needles), dtype=bool)
    nz = lens > 0
    gpos = hay_offsets[needle_seg] + idx
    found[nz] = valid[nz] & (haystack[gpos[nz]] == needles[nz])
    return found, idx


@_instrumented
def segmented_isin(values: np.ndarray, seg: np.ndarray, needles: np.ndarray,
                   needle_seg: np.ndarray, n_segments: int) -> np.ndarray:
    """Whether each pair ``(needle_seg[k], needles[k])`` occurs among the
    unsorted pairs ``(seg[j], values[j])``: ``np.isin`` on packed
    ``(segment, value)`` keys, in one pass.

    Bitmap arm: one ``bool`` cell per (segment, value) of the common value
    window -- one scatter, one gather -- while it has at most
    :data:`LOOKUP_CELLS_PER_ELEMENT` cells per pair-plus-needle element
    (RELABEL at p = 256 over 2^14 vertices: 4 M cells).  Search arm: the
    pairs' :func:`order_key` sorted once, every needle binary-searched.
    """
    values, needles = np.asarray(values), np.asarray(needles)
    h, q = len(values), len(needles)
    if h == 0 or q == 0:
        return np.zeros(q, dtype=bool)
    lo = min(int(values.min()), int(needles.min()))
    span = max(int(values.max()), int(needles.max())) - lo + 1
    if n_segments * span <= LOOKUP_CELLS_PER_ELEMENT * (h + q):
        hit = np.zeros(n_segments * span, dtype=bool)
        hit[np.asarray(seg, dtype=np.int64) * span
            + (values.astype(np.int64) - lo)] = True
        return hit[np.asarray(needle_seg, dtype=np.int64) * span
                   + (needles.astype(np.int64) - lo)]
    key = order_key((np.concatenate([values, needles]),
                     np.concatenate([seg, needle_seg])))
    hay = np.sort(key[:h])
    at = np.minimum(np.searchsorted(hay, key[h:]), h - 1)
    return hay[at] == key[h:]


@_instrumented
def route_plan(
    seg_ids: np.ndarray,
    dests: np.ndarray,
    n_segments: int,
    size: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused routing plan: gather order plus per-segment destination counts.

    Equivalent to ``packed_lexsort((dests, seg_ids))`` followed by
    :func:`route_counts` -- the pairing every exchange wrapper performs --
    but the ``seg * size + dest`` key is built once (in a pooled buffer of
    the narrowest width it fits: ``uint16`` -- whose stable argsort is a
    radix pass -- up to 2^16 slots, ``int32`` below 2^31) and reused for
    both the stable argsort and the bincount.  Requires ``0 <= dests <
    size`` and ``0 <= seg_ids < n_segments``, which every routing call site
    guarantees; the fused key is then strictly monotone in ``(segment,
    destination)`` so the stable argsort equals the two-key lexsort
    permutation exactly, in every key width.
    """
    n = len(dests)
    if n == 0:
        return (np.empty(0, dtype=index_dtype(0)),
                np.zeros((n_segments, size), dtype=np.int64))
    pool = active_pool()
    slots = int(n_segments) * int(size)
    key = pool.take(n, np.uint16 if slots <= (1 << 16)
                    else np.int32 if slots < (1 << 31) else np.int64)
    np.multiply(seg_ids, size, out=key, casting="unsafe")
    np.add(key, dests, out=key, casting="unsafe")
    counts = np.bincount(key, minlength=n_segments * size)
    counts = counts.reshape(n_segments, size)
    order = np.argsort(key, kind="stable")
    pool.give(key)
    return _narrow_perm(order, n), counts


@_instrumented
def route_counts(
    seg_ids: np.ndarray,
    dests: np.ndarray,
    n_segments: int,
    size: int,
) -> np.ndarray:
    """Per-segment destination histogram: ``counts[i, d]`` rows of segment
    ``i`` go to rank ``d``.  One flat bincount over ``seg * size + dest``."""
    if len(dests) == 0:
        return np.zeros((n_segments, size), dtype=np.int64)
    flat = np.asarray(seg_ids, dtype=np.int64) * size \
        + np.asarray(dests, dtype=np.int64)
    return np.bincount(flat, minlength=n_segments * size).reshape(
        n_segments, size)
