"""Shared helpers for the distributed sorters.

Rows are ``(k, c)`` int64 matrices sorted by the lexicographic order of their
first ``n_key_cols`` columns (remaining columns are payload that travels with
the row).  Edges sort as ``[u, v, w, id]`` with three key columns -- the
paper's lexicographic edge order with the id carried along.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..kernels import RaggedArrays, segmented_lexsort
from ..kernels.segmented import packed_lexsort
from ..simmpi.alltoall import SendBlock, account, split_rows
from ..utils.partition import block_bounds


def as_row_matrix(x: np.ndarray) -> np.ndarray:
    """Coerce to a 2-D integer row matrix (1-D input becomes one column).

    Integer inputs keep their storage dtype (narrowed matrices travel as
    uint32); anything else is coerced to int64.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "iu":
        x = x.astype(np.int64)
    if x.ndim == 1:
        return x.reshape(-1, 1)
    if x.ndim != 2:
        raise ValueError(f"rows must be 1-D or 2-D, got ndim={x.ndim}")
    return x


def local_lexsort(rows: np.ndarray, n_key_cols: int) -> np.ndarray:
    """Rows sorted by the lexicographic order of the first ``n_key_cols``."""
    if len(rows) <= 1:
        return rows
    keys = tuple(rows[:, c] for c in reversed(range(n_key_cols)))
    return rows[packed_lexsort(keys)]


def local_lexsort_parts(parts: Sequence[np.ndarray],
                        n_key_cols: int) -> List[np.ndarray]:
    """Every PE's :func:`local_lexsort`, as one segmented lexsort."""
    r = RaggedArrays.from_arrays(parts)
    if len(r.flat) == 0:
        return list(parts)
    keys = tuple(r.flat[:, c] for c in reversed(range(n_key_cols)))
    order = segmented_lexsort(keys, r.segment_ids())
    s = r.flat[order]
    return [s[r.offsets[i]:r.offsets[i + 1]] for i in range(r.n_segments)]


def is_locally_sorted(rows: np.ndarray, n_key_cols: int) -> bool:
    """Whether one part is sorted by its first ``n_key_cols`` columns.

    Comparison-based on purpose: ``np.diff`` on uint32 columns wraps.
    """
    if len(rows) <= 1:
        return True
    tie = None
    for c in range(n_key_cols):
        lo, hi = rows[:-1, c], rows[1:, c]
        lt = hi < lo
        if c == 0:
            if lt.any():
                return False
            tie = hi == lo
        else:
            if (lt & tie).any():
                return False
            tie = tie & (hi == lo)
    return True


def is_globally_sorted(parts: Sequence[np.ndarray], n_key_cols: int) -> bool:
    """Concatenation of per-PE parts is lexicographically sorted."""
    prev_last = None
    for part in parts:
        if not is_locally_sorted(part, n_key_cols):
            return False
        if len(part) == 0:
            continue
        first = tuple(int(x) for x in part[0, :n_key_cols])
        if prev_last is not None and first < prev_last:
            return False
        prev_last = tuple(int(x) for x in part[-1, :n_key_cols])
    return True


def rebalance_blocks(comm, parts: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Redistribute globally sorted parts into exact block partition.

    Keeps the global order; afterwards PE ``i`` holds rows
    ``[bounds[i], bounds[i+1])`` of the global sequence (numpy
    ``array_split`` convention).  One exscan for the global offsets plus one
    all-to-all, charged from its count matrix -- the overlaps of the source
    and destination ranges -- while the host only re-cuts the concatenated
    rows (they arrive source-major, which is global order).
    """
    p = comm.size
    packed = RaggedArrays.from_arrays(parts)
    rows = packed.flat
    comm.exscan(packed.lengths.tolist())
    total = len(rows)
    if total == 0:
        return [part.copy() for part in parts]
    src, dst = packed.offsets, block_bounds(total, p)
    counts = np.clip(np.minimum(src[1:, None], dst[None, 1:])
                     - np.maximum(src[:-1, None], dst[None, :-1]), 0, None)
    # Each source's rows go out in order: the send side is the block itself.
    account(comm, "auto", rows[:0], counts, lambda: SendBlock(rows))
    return split_rows(rows, dst)
