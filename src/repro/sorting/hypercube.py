"""Distributed hypercube quicksort (Axtmann & Sanders [9], simplified).

The paper uses hypercube quicksort for *small* inputs (at most 512 elements
per PE on average, Section VI-C): its ``O((alpha + beta l) log p)``-style
cost profile beats sample sort's ``alpha * p`` startup when there is little
data.

Scheme: recursively split the communicator in half; a pivot (the median of a
small gathered sample) partitions every PE's rows into low/high; low rows are
scattered evenly over the lower half, high rows over the upper half; recurse
until single PEs remain, then sort locally.  Data therefore moves
``ceil(log2 p)`` times.  The classic formulation pairs PEs along hypercube
dimensions; splitting arbitrary communicator halves generalises it to
non-power-of-two ``p`` (the paper's d-dimensional grid generalisation covers
the same gap).

Level-synchronous execution: charges computed per level, applied in recursion order
------------------------------------------------------------------------------------
The split tree has ``2 p - 1`` nodes but only ``ceil(log2 p)`` levels, and
the sub-communicators of one level are disjoint, so the host walks *levels*:
all rows stay in one flat block (PE-major, a ``p + 1`` offsets vector), each
row carries one scalar :func:`~repro.kernels.order_key`, and per level one
pass does for every live sub-communicator what the recursion does per node
-- one batched pivot draw, sample median, ``<= pivot`` mask, destination
rule -- followed by one stable sort by destination PE and one ``bincount``
that yields every node's (source, destination) count block, stacked per
node size.  The exchange charges of each stack are computed in one call
(:func:`repro.simmpi.alltoall.exchange_charges`, each block under its own
``auto`` decision).  The payload itself is gathered once, at the end.

What the simulated machine observes is then *applied* by walking the tree
in the recursion's pre-order (:func:`_replay`): sample ``allgatherv``,
partition scan, ``allreduce``, the degenerate-split extras, the node's
precomputed exchange (:func:`repro.simmpi.alltoall.apply_charges`), and
after the walk the leaves' sort charges.  Charges of disjoint
sub-communicators commute on the clocks, but the event stream, the fault
injector's draw order, metrics and the sanitizer shadow see the order, so
it is kept.  Each PE's pivot draws come from its own stream, once per
level it is live on, exactly as in the recursion.

The output is globally sorted but only approximately balanced -- callers that
need exact block balance chain :func:`repro.sorting.common.rebalance_blocks`.
"""

from __future__ import annotations

import functools
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..kernels import RaggedArrays, index_dtype, order_key, segmented_lexsort
from ..simmpi.alltoall import (SendBlock, apply_charges, exchange_charges,
                               split_rows)
from ..simmpi.collectives import Comm
from ..utils.partition import owner_of
from .common import sample_positions

#: Sample rows gathered per PE for pivot selection.
_PIVOT_SAMPLE = 4

#: What a node of the split tree did with its rows.
_EMPTY, _SPLIT, _STRICT, _SPREAD = range(4)


class _Level(NamedTuple):
    """Rows per PE before and after one level's move, plus -- only while a
    fault injector may ask for a victim's buffer -- what rebuilds a node's
    send side: the rows' positions in the input block, their destination
    PEs and the offsets before the move."""

    sent: np.ndarray
    received: np.ndarray
    payload: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]


class _Node(NamedTuple):
    """One sub-communicator's record: its level, the rows of its gathered
    pivot sample, what it did, and the count matrix of its exchange with
    the charges :func:`~repro.simmpi.alltoall.exchange_charges` computed
    from it (scheme and hops)."""

    level: int
    sample_rows: int
    kind: int
    counts: Optional[np.ndarray]
    charges: Optional[Tuple[str, list]]


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, sizes)])``."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1] if len(ends) else 0) \
        + np.repeat(starts - (ends - sizes), sizes)


def _running_count(flags: np.ndarray) -> np.ndarray:
    """``out[i] = flags[:i].sum()`` for ``i`` in ``0 .. len(flags)``."""
    out = np.zeros(len(flags) + 1, dtype=index_dtype(len(flags)))
    np.cumsum(flags, out=out[1:])
    return out


def _offsets(lens: np.ndarray) -> np.ndarray:
    """The ``len(lens) + 1`` block boundaries of consecutive blocks."""
    off = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    return off


def _pivots(machine, ranks: np.ndarray, key: np.ndarray, lens: np.ndarray,
            off: np.ndarray, lo: np.ndarray, hi: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Per node ``[lo, hi)``: the rows in its pivot sample and their median
    key (0 for an empty sample).

    Every non-empty member PE draws ``min(4, rows)`` of its rows from its
    own RNG stream -- one batched draw for the level; the medians of all
    nodes come out of one sort keyed ``(node, key)``.
    """
    g = hi - lo
    members = _ranges(lo, g)
    drawing, take, picks = sample_positions(machine, ranks[members],
                                            lens[members], _PIVOT_SAMPLE)
    draws = members[drawing]
    node = np.repeat(np.repeat(np.arange(len(lo)), g)[drawing], take)
    n_samples = np.bincount(node, minlength=len(lo))
    pivot = np.zeros(len(lo), dtype=key.dtype)
    if len(draws):
        sample = key[picks + np.repeat(off[draws], take)]
        by_key = np.lexsort((sample, node))
        sampled = n_samples > 0
        median = np.cumsum(n_samples) - n_samples + n_samples // 2
        pivot[sampled] = sample[by_key[median[sampled]]]
    return n_samples, pivot


def _destinations(low: np.ndarray, lows_upto: np.ndarray, off: np.ndarray,
                  lens: np.ndarray, first: np.ndarray, n_low: np.ndarray,
                  n_high: np.ndarray) -> np.ndarray:
    """Destination PE of every row under the recursion's rule.

    PE ``i``'s ``k``-th low row goes to PE ``first[i] + k % n_low[i]``, its
    ``k``-th high row to ``first[i] + n_low[i] + k % n_high[i]`` (``first``
    is the first PE of ``i``'s sub-communicator; a PE that is not being
    split has only low rows, ``first = i`` and ``n_low = 1``: they stay).
    ``lows_upto`` is the :func:`_running_count` of ``low``.
    """
    idx = lows_upto.dtype
    # Low rows of the own PE up to and including each row, and the row's
    # position within its PE: together the rank among lows / among highs.
    k_low = lows_upto[1:] - np.repeat(lows_upto[off[:-1]], lens)
    pos = np.arange(len(low), dtype=idx) - np.repeat(off[:-1].astype(idx),
                                                     lens)
    first, n_low, n_high = (t.astype(idx) for t in (first, n_low, n_high))
    return np.where(
        low,
        np.repeat(first, lens) + (k_low - 1) % np.repeat(n_low, lens),
        np.repeat(first + n_low, lens)
        + (pos - k_low) % np.repeat(n_high, lens))


def _route(key: np.ndarray, lens: np.ndarray, off: np.ndarray,
           lo: np.ndarray, hi: np.ndarray, pivot: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray]:
    """What each non-empty node ``[lo, hi)`` does (``_SPLIT``, ``_STRICT``
    or ``_SPREAD``) and the destination PE of every row of the level."""
    p = len(lens)
    g = hi - lo
    members = _ranges(lo, g)
    # A PE outside every node keeps its rows: all low, modulus 1.
    pivot_of_pe = np.full(p, np.iinfo(key.dtype).max)
    pivot_of_pe[members] = np.repeat(pivot, g)
    low = key <= np.repeat(pivot_of_pe, lens)
    lows_upto = _running_count(low)
    kind = np.full(len(lo), _SPLIT)
    for k in np.flatnonzero(
            lows_upto[off[hi]] - lows_upto[off[lo]] == off[hi] - off[lo]):
        # All rows on the low side.  If every key equals the pivot the data
        # is already "sorted": spread it evenly and stop.  Else the pivot is
        # the maximum; only the rows strictly below it go low.
        a, b = off[lo[k]], off[hi[k]]
        if key[a:b].min() == key[a:b].max():
            kind[k] = _SPREAD
        else:
            kind[k] = _STRICT
            low[a:b] = key[a:b] < pivot[k]
    if (kind == _STRICT).any():
        lows_upto = _running_count(low)
    first, n_low, n_high = np.arange(p), np.ones(p, np.int64), \
        np.ones(p, np.int64)
    first[members] = np.repeat(lo, g)
    n_low[members] = np.repeat(g // 2, g)
    n_high[members] = np.repeat(g - g // 2, g)
    dest = _destinations(low, lows_upto, off, lens, first, n_low, n_high)
    for k in np.flatnonzero(kind == _SPREAD):
        a, b = off[lo[k]], off[hi[k]]
        dest[a:b] = lo[k] + owner_of(np.arange(b - a), b - a, g[k])
    return kind, dest


def _level_stacks(lo: np.ndarray, hi: np.ndarray, lens: np.ndarray,
                  dest: np.ndarray):
    """``(nodes, stack)`` per node size ``g``: the level's nodes of that
    size and their ``(n, g, g)`` diagonal blocks of the level's (source,
    destination) count matrix -- node ``[a, b)`` owns block ``[a:b, a:b]``.
    The ``p x p`` matrix is one ``bincount`` and lives only here."""
    p = len(lens)
    cells = np.repeat(np.arange(p) * p, lens)
    cells += dest
    matrix = np.bincount(cells, minlength=p * p).reshape(p, p)
    g = hi - lo
    for size in np.unique(g).tolist():
        idx = np.flatnonzero(g == size)
        at = lo[idx, None] + np.arange(size)
        yield idx, matrix[at[:, :, None], at[:, None, :]]


def _group_block(rows: np.ndarray, payload, lo: int, hi: int) -> SendBlock:
    """The send side of sub-communicator ``[lo, hi)``'s exchange, rebuilt
    from its level's retained payload: each PE's rows stably sorted by
    destination, as the recursion's ``route_rows`` laid them out."""
    at, dest, off = payload
    a, b = off[lo], off[hi]
    g = hi - lo
    src = np.repeat(np.arange(g), np.diff(off[lo:hi + 1]))
    order = np.argsort(src * g + (dest[a:b].astype(np.int64) - lo),
                       kind="stable")
    return SendBlock(rows, at[a:b][order])


def sort_hypercube(
    comm: Comm,
    parts: Sequence[np.ndarray],
    n_key_cols: int,
) -> List[np.ndarray]:
    """Globally sort per-PE row matrices with recursive quick-splitting.

    ``parts`` are 2-D integer row matrices of one width, one per rank
    (:func:`repro.sorting.sort_rows` is the validating entry point).
    """
    p = comm.size
    machine = comm.machine
    packed = RaggedArrays.from_arrays(parts)
    rows, lens, off = packed.flat, packed.lengths, packed.offsets
    key = order_key(tuple(rows[:, c] for c in reversed(range(n_key_cols))))
    # Position of every current row in ``rows``: the levels permute this and
    # the scalar keys; the payload is gathered once, after the last level.
    at = np.arange(len(rows), dtype=index_dtype(len(rows)))
    pe_dtype = np.uint16 if p <= (1 << 16) else index_dtype(p)  # radix sorts

    levels: List[_Level] = []
    nodes: Dict[Tuple[int, int], _Node] = {}
    # Live nodes of the current level: sub-communicators [lo, hi) of >= 2 PEs.
    lo = np.zeros(1 if p > 1 else 0, dtype=np.int64)
    hi = lo + p
    while len(lo):
        n_samples, pivot = _pivots(machine, comm.ranks, key, lens, off, lo, hi)
        for k in np.flatnonzero(n_samples == 0):  # no rows: the node stops
            nodes[int(lo[k]), int(hi[k])] = _Node(-1, 0, _EMPTY, None, None)
        full = n_samples > 0
        lo, hi, n_samples, pivot = (x[full] for x in
                                    (lo, hi, n_samples, pivot))
        if not len(lo):
            break
        kind, dest = _route(key, lens, off, lo, hi, pivot)
        dest = dest.astype(pe_dtype)

        # The level's count matrix as its diagonal blocks, one (n, g, g)
        # stack per node size g, each block charged under its own rule.
        received = np.bincount(dest, minlength=p)
        blocks: List = [None] * len(lo)
        for idx, stack in _level_stacks(lo, hi, lens, dest):
            charges = exchange_charges(machine, "auto", rows[:0], stack)
            for j, k in enumerate(idx.tolist()):
                blocks[k] = stack[j]
                nodes[int(lo[k]), int(hi[k])] = _Node(
                    len(levels), int(n_samples[k]), int(kind[k]), stack[j],
                    charges[j])
        if machine.sanitizer is not None:
            machine.sanitizer.check_sort_level(lo, blocks, lens, received)
        levels.append(_Level(
            lens, received,
            (at, dest, off) if machine.faults is not None else None))

        # One move for the level: stable, so every PE receives source-major
        # with per-pair order preserved, as from its node's own exchange.
        order = np.argsort(dest, kind="stable")
        at, key = at[order], key[order]
        lens, off = received, _offsets(received)

        # Next level: the halves (of >= 2 PEs) of every node that split.
        split = kind != _SPREAD
        mid = lo[split] + (hi[split] - lo[split]) // 2
        lo, hi = np.stack([lo[split], mid], 1).ravel(), \
            np.stack([mid, hi[split]], 1).ravel()
        live = hi - lo > 1
        lo, hi = lo[live], hi[live]

    _replay(comm, nodes, levels, lens, rows, n_key_cols)
    if len(rows) == 0:  # nothing moved: every part goes back as it came
        return list(parts)
    order = segmented_lexsort(
        (key,), np.repeat(np.arange(p, dtype=pe_dtype), lens))
    return split_rows(np.take(rows, at[order], axis=0), off)


def _replay(comm: Comm, nodes: Dict[Tuple[int, int], _Node],
            levels: List[_Level], final_lens: np.ndarray, rows: np.ndarray,
            n_key_cols: int) -> None:
    """Issue every node's charges in the recursion's pre-order.

    Per node: the sample ``allgatherv``; then, unless it holds no row, the
    partition scan and the scalar ``allreduce`` of the low count; for a
    degenerate split the two key-tuple ``allreduce``s (a tuple per PE, one
    word when the node's first PE is empty and contributes ``None``)
    followed by the spread's ``exscan`` or the strict split's second count;
    the exchange, from the charges computed per level; for a spread the
    closing scan.  The single PEs' sorts come last, in one charge: each is
    its rank's last charge of the sort, and a plain charge is neither an
    event nor a fault draw.  (With a fault injector attached they stay in
    the walk: a fault's machine-global trace instant is stamped with the
    maximum clock, which a later leaf sort may raise.)
    """
    machine = comm.machine
    cost = machine.cost
    template = rows[:0]
    row_words = rows.shape[1]
    leaves = []
    stack = [(0, comm.size)]
    while stack:
        lo, hi = stack.pop()
        g = hi - lo
        if g == 1:
            if machine.faults is None:
                leaves.append(lo)
            else:  # a fault's trace instant stamps the max clock mid-walk
                machine.charge_sort(final_lens[lo:hi], ranks=comm.ranks[lo:hi])
            continue
        sub = comm.slice(lo, hi)
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
        apply_charges(sub, *node.charges, template, node.counts,
                      functools.partial(_group_block, rows, level.payload,
                                        lo, hi))
        if node.kind == _SPREAD:
            machine.charge_scan(level.received[lo:hi], ranks=sub.ranks)
            continue
        mid = lo + g // 2
        stack += [(mid, hi), (lo, mid)]
    if leaves:
        machine.charge_sort(final_lens[leaves], ranks=comm.ranks[leaves])
