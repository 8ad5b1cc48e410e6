"""The recursive hypercube quicksort, kept as the sorter's oracle.

Until ISSUE 17 this was ``repro.sorting.hypercube.sort_hypercube``: a Python
recursion over the ``2 p - 1`` sub-communicators of the split tree, each
node building its ``Comm.sub``, drawing and gathering its pivot sample,
comparing tuple keys and routing its handful of rows with its own
``route_rows``.  Production now walks the ``ceil(log2 p)`` *levels* of that
tree on one flat row block and replays every node's charges in this
recursion's order; this module keeps the recursion, verbatim (the per-PE
arm of its two former engine forks), as what the differential tests in
``test_sorting.py`` compare against: receive buffers and dtypes, clocks,
collective and byte counters, trace and metrics exports, fault draws,
per-PE RNG states and the communication matrix.

Only the dead parameters differ from the code as it was shipped (``seed``
and ``depth`` were never read), and the pivot sample draws through
``Machine.pe_integers`` one PE at a time (the per-PE ``Generator`` it drew
from became the machine's batched streams, bit for bit); the two arms production no longer carries
because they cannot be reached -- ``len(gathered) == 0`` after
``total > 0`` and ``low_total == 0`` on the first split test -- stay here.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.simmpi.alltoall import route_rows
from repro.simmpi.collectives import Comm
from repro.sorting.common import as_row_matrix, local_lexsort
from repro.utils.partition import owner_of

#: Sample rows gathered per PE for pivot selection.
_PIVOT_SAMPLE = 4


def _row_tuple_keys(rows: np.ndarray, n_key_cols: int):
    return [tuple(int(x) for x in r[:n_key_cols]) for r in rows]


def _le_pivot(rows: np.ndarray, pivot: tuple, n_key_cols: int) -> np.ndarray:
    """Boolean mask: row key <= pivot key (vectorised lexicographic compare)."""
    if len(rows) == 0:
        return np.zeros(0, dtype=bool)
    le = np.zeros(len(rows), dtype=bool)
    tie = np.ones(len(rows), dtype=bool)
    for c in range(n_key_cols):
        col = rows[:, c]
        le |= tie & (col < pivot[c])
        tie &= col == pivot[c]
    return le | tie


def sort_hypercube(
    comm: Comm,
    parts: Sequence[np.ndarray],
    n_key_cols: int,
) -> List[np.ndarray]:
    """Globally sort per-PE row matrices with recursive quick-splitting."""
    parts = [as_row_matrix(x) for x in parts]
    machine = comm.machine

    def recurse(sub: Comm, sub_parts: List[np.ndarray]) -> List[np.ndarray]:
        g = sub.size
        if g == 1:
            machine.charge_sort(np.array([len(sub_parts[0])]),
                                ranks=sub.ranks)
            return [local_lexsort(sub_parts[0], n_key_cols)]

        # --- Pivot selection: median of a gathered sample. ---
        samples = []
        for r in range(g):
            rows = sub_parts[r]
            if len(rows) == 0:
                samples.append(rows[:0])
            else:
                take = machine.pe_integers([sub.ranks[r]], [len(rows)],
                                           [min(_PIVOT_SAMPLE, len(rows))])
                samples.append(rows[take])
        gathered = sub.allgatherv(samples)
        total = sum(len(x) for x in sub_parts)
        if total == 0:
            return sub_parts
        if len(gathered) == 0:
            gathered = np.concatenate([x for x in sub_parts if len(x)])[:1]
        keys = sorted(_row_tuple_keys(gathered, n_key_cols))
        pivot = keys[len(keys) // 2]

        # --- Partition and detect degenerate splits. ---
        low_masks = [_le_pivot(x, pivot, n_key_cols) for x in sub_parts]
        machine.charge_scan(np.array([len(x) for x in sub_parts]),
                            ranks=sub.ranks)
        low_total = int(sub.allreduce([int(m.sum()) for m in low_masks]))
        g_low = g // 2
        lows = list(range(g_low))
        highs = list(range(g_low, g))
        if low_total == total or low_total == 0:
            # All rows on one side of the pivot.  If every key equals the
            # pivot the data is already "sorted"; spread evenly and stop
            # recursing on it.  Otherwise retry cannot help (pivot is the
            # min/max); fall back to even spread + recursion with the
            # offending rows forced apart by a strict comparison.
            all_min = sub.allreduce(
                [_global_extreme(x, n_key_cols, np.lexsort) for x in sub_parts],
                op=_tuple_min,
            )
            all_max = sub.allreduce(
                [_global_extreme(x, n_key_cols, _lexsort_desc) for x in sub_parts],
                op=_tuple_max,
            )
            if all_min == all_max:
                spread = _spread_evenly(sub, sub_parts)
                machine.charge_scan(np.array([len(x) for x in spread]),
                                    ranks=sub.ranks)
                return spread
            # Use a strict split at the pivot: rows < pivot go low.
            low_masks = [
                _le_pivot(x, pivot, n_key_cols) & ~_eq_key(x, pivot, n_key_cols)
                for x in sub_parts
            ]
            low_total = int(sub.allreduce([int(m.sum()) for m in low_masks]))
            if low_total == 0:
                # pivot is the unique minimum: route only its copies low.
                low_masks = [_eq_key(x, pivot, n_key_cols) for x in sub_parts]

        # --- Scatter low rows over the lower half, high over the upper. ---
        rows_out = []
        dest_out = []
        for rk in range(g):
            mask = low_masks[rk]
            rows = sub_parts[rk]
            low_rows, high_rows = rows[mask], rows[~mask]
            dl = np.asarray(lows, dtype=np.int64)[
                np.arange(len(low_rows)) % len(lows)]
            dh = np.asarray(highs, dtype=np.int64)[
                np.arange(len(high_rows)) % len(highs)]
            rows_out.append(np.concatenate([low_rows, high_rows], axis=0))
            dest_out.append(np.concatenate([dl, dh]))
        recv, _, _ = route_rows(sub, rows_out, dest_out, method="auto")

        left = recurse(sub.sub(lows), recv[:g_low])
        right = recurse(sub.sub(highs), recv[g_low:])
        return left + right

    return recurse(comm, parts)


def _eq_key(rows: np.ndarray, pivot: tuple, n_key_cols: int) -> np.ndarray:
    if len(rows) == 0:
        return np.zeros(0, dtype=bool)
    eq = np.ones(len(rows), dtype=bool)
    for c in range(n_key_cols):
        eq &= rows[:, c] == pivot[c]
    return eq


def _global_extreme(rows: np.ndarray, n_key_cols: int, sorter):
    if len(rows) == 0:
        return None
    order = sorter(tuple(rows[:, c] for c in reversed(range(n_key_cols))))
    return tuple(int(x) for x in rows[order[0], :n_key_cols])


def _lexsort_desc(keys):
    return np.lexsort(keys)[::-1]


def _tuple_min(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _tuple_max(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _spread_evenly(sub: Comm, sub_parts: List[np.ndarray]) -> List[np.ndarray]:
    """Evenly redistribute (all-equal) rows over the sub-communicator."""
    g = sub.size
    sizes = [len(x) for x in sub_parts]
    offsets = sub.exscan(sizes)
    total = int(np.sum(sizes))
    dests = []
    for r in range(g):
        if sizes[r] == 0:
            dests.append(np.empty(0, dtype=np.int64))
        else:
            idx = offsets[r] + np.arange(sizes[r], dtype=np.int64)
            dests.append(owner_of(idx, total, g))
    recv, _, _ = route_rows(sub, sub_parts, dests, method="auto")
    return recv
