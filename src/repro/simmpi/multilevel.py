"""d-dimensional generalisation of the indirect all-to-all (Section VI-A).

"For larger p, the grid approach can easily be generalized to dimensions
2 < d <= log(p).  For d = log(p), we basically get the hypercube all-to-all
algorithm from [44]."

PEs are arranged in a virtual d-dimensional grid with side lengths
``s_0 >= s_1 >= ... >= s_{d-1}`` (as balanced as possible, product >= p).
A message from ``i`` to ``j`` is routed in ``d`` hops: hop ``k`` fixes the
``k``-th coordinate to the destination's, moving within a *fiber* of the
grid (all PEs agreeing on every other coordinate).  Each hop is one dense
all-to-all over a group of ``s_k`` PEs, so the startup term drops from
``alpha * p`` to ``alpha * sum_k s_k ~ alpha * d * p^(1/d)`` while the
volume is multiplied by ``d``.

PEs beyond the grid (when ``prod(s) > p``) are *virtual*: routing snaps any
intermediate coordinate vector that does not correspond to a real PE to the
nearest real PE in its fiber (the same idea as the paper's incomplete-row
handling for d = 2).

Like the two-level grid, the scheme is a memoised hop table charged hop by
hop from exact count matrices, followed by one data move (see the "Hop
tables" section of :mod:`repro.simmpi.alltoall`).
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

import numpy as np

from .collectives import Comm
from .alltoall import (
    _TABLE_CACHE_SIZE,
    _HopPlan,
    _charge_hops,
    _hop_plan,
    _move,
    _recvcounts,
    _validate,
    account,
)


def grid_sides(p: int, d: int) -> List[int]:
    """Balanced side lengths for a d-dimensional grid covering ``p`` PEs."""
    if d < 1:
        raise ValueError("d must be >= 1")
    sides = []
    remaining = p
    for k in range(d, 0, -1):
        s = int(np.ceil(remaining ** (1.0 / k)))
        s = max(s, 1)
        sides.append(s)
        remaining = int(np.ceil(remaining / s))
    sides.sort(reverse=True)
    return sides


def _coords(ranks: np.ndarray, sides: Sequence[int]) -> np.ndarray:
    """Mixed-radix digits of each rank (least-significant dimension last)."""
    out = np.empty((len(ranks), len(sides)), dtype=np.int64)
    rest = ranks.copy()
    for k in range(len(sides) - 1, -1, -1):
        out[:, k] = rest % sides[k]
        rest //= sides[k]
    return out


def _rank_of(coords: np.ndarray, sides: Sequence[int]) -> np.ndarray:
    rank = np.zeros(len(coords), dtype=np.int64)
    for k in range(len(sides)):
        rank = rank * sides[k] + coords[:, k]
    return rank


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _multilevel_plan(size: int, d: int) -> _HopPlan:
    """Hop ``k`` moves a cell to the PE whose coordinates agree with the
    destination on dims ``0..k`` and with the current holder on the rest."""
    sides = grid_sides(size, d)
    coords = _coords(np.arange(size), sides)
    holder, dst = np.divmod(np.arange(size * size), size)
    dst_coords = coords[dst]
    holders = []
    for k in range(len(sides)):
        target = coords[holder]
        target[:, :k + 1] = dst_coords[:, :k + 1]
        target = _rank_of(target, sides)
        # Snap virtual targets (rank >= p) onto the destination itself:
        # the destination is always real and lies in the same remaining
        # fiber, so the residual hops still converge.
        holder = np.where(target >= size, dst, target)
        holders.append(holder.reshape(size, size))
    return _hop_plan(
        [f"alltoallv_multilevel/hop{k}" for k in range(len(sides))],
        holders, sides)


def _account_multilevel(comm: Comm, template: np.ndarray,
                        counts: np.ndarray, block_of, d: int) -> None:
    """Charge one d-level exchange (direct on three ranks or fewer)."""
    size = comm.size
    if size <= 3 or d <= 1:
        return account(comm, "direct", template, counts, block_of)
    plan = _multilevel_plan(size, d)
    hops = _charge_hops(comm, plan, template, counts, block_of)
    san = comm.machine.sanitizer
    if san is not None:
        san.check_multilevel(size, len(hops), int(counts.sum()),
                             [int(H.sum()) for H in hops], plan.groups)


def alltoallv_multilevel(
    comm: Comm,
    sendbufs: Sequence[np.ndarray],
    sendcounts: Sequence[np.ndarray],
    d: int = 3,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Indirect all-to-all over a d-dimensional PE grid.

    Semantics identical to the other variants (receive buffers source-major,
    per-pair order preserved); ``d`` hops of dense all-to-alls over groups
    of ``~p^(1/d)`` PEs each.
    """
    block, counts = _validate(sendbufs, sendcounts, comm.size)
    _account_multilevel(comm, block.rows, counts, lambda: block, d)
    return _move(block, counts), _recvcounts(counts)
