"""Sparse personalized all-to-all exchanges (direct, two-level grid, hypercube).

This module implements the communication primitive at the heart of the
paper's algorithms (Sections II-A and VI-A).  Three delivery schemes are
provided, all with identical semantics but different cost profiles:

``alltoallv_direct``
    One dense ``MPI_Alltoallv``: startup ``O(alpha * p)`` per PE regardless of
    how many messages are non-empty, plus ``beta * l`` for bottleneck volume
    ``l``.  This is what becomes prohibitive at scale (Fig. 2).

``alltoallv_grid``
    The paper's two-level scheme (Section VI-A): PEs are arranged in a
    virtual ``c x r`` grid with ``c = floor(sqrt(p))`` columns and
    ``r = ceil(p / c)`` rows.  A message from ``i`` to ``j`` is first routed
    to the intermediate PE in row ``row(j)`` / column ``col(i)`` (an
    all-to-all *within columns*), then delivered within the row.  Startup
    drops to ``O(alpha * sqrt(p))`` at the cost of doubling the communicated
    volume.  The incomplete-last-row case is handled exactly as described in
    the paper: if ``j`` lies in the incomplete last row, the intermediate is
    the PE in row ``col(j)`` / column ``col(i)`` and ``j`` is virtually
    appended to row ``col(j)`` for the second exchange.

``alltoallv_hypercube``
    The ``d = log p`` extreme of the grid generalisation [Johnsson & Ho]:
    ``log p`` pairwise exchange rounds, moving data up to ``log p`` times,
    with startup ``O(alpha * log p)``.

``alltoallv_auto``
    The dispatch rule from Section VI-A: use the indirect grid scheme when
    the average number of bytes per message is below a threshold (the paper
    uses 500 bytes on SuperMUC-NG), the direct scheme otherwise.

Message representation
----------------------
A payload is a numpy array whose *rows* are the message units (1-D arrays are
treated as single-column rows).  ``sendcounts[i]`` gives, for PE ``i``, the
number of rows destined to each rank, destination-major: ``sendbufs[i]`` rows
must be grouped by destination rank in ascending order.  Receivers obtain
rows grouped by *source* rank in ascending order, preserving per-pair
ordering -- exactly the ``MPI_Alltoallv`` contract.  All three schemes return
bit-identical results (a property the test suite checks exhaustively).
Every scheme also accepts the packed form :func:`route_rows` produces: a
:class:`SendBlock` (all senders' rows as one flat block plus the send
permutation) for ``sendbufs`` and the 2-D counts matrix for ``sendcounts``.

Hop tables: indirect schemes are accounted, the payload moves once
------------------------------------------------------------------
The rows rank ``i`` sends to rank ``j`` form the *cell* ``(i, j)``; a cell
travels as a unit.  An indirect scheme on ``p`` ranks is a *hop table*:
``holder_k[i, j]`` is the rank holding cell ``(i, j)`` after hop ``k``
(``holder_last[i, j] == j``), a pure function of the scheme and ``p`` that
is built once and memoised (:class:`_HopPlan`).  Everything the simulated
machine observes of a hop depends only on the hop's count matrix
``H_k[a, b] = sum(counts[i, j] : holder_{k-1} = a, holder_k = b)``, and its
clock only on the marginals: :func:`exchange_charges` sums each (sender,
receiver) group once and builds the dense ``H_k`` only for an observer
that reads it.  The payload then goes source -> destination in one block
transpose (:func:`_move`), which is what the hops deliver by contract.  The
payload a rank holds *between* hops is materialised (:func:`_hop_payload`)
only for the victim of a drawn corruption fault, so detection still runs on
real bytes.

Every scheme is *account, then move*: :func:`account` charges any method
from a count matrix, the row dtype/width and a lazy materialiser for that
one victim, and each ``alltoallv_*`` adds one :func:`_move`.  Callers whose
result the host already knows only charge: the sorters, EXCHANGELABELS'
push, and :func:`ask`, one request/reply round answered in one host gather.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..kernels import RaggedArrays, route_plan, segmented_unique
from ..kernels.dtypes import logical_itemsize
from .collectives import Comm

#: Average-bytes-per-message threshold below which the auto dispatcher picks
#: the indirect two-level scheme (Section VI-A: "we use 500 on our system").
GRID_DISPATCH_THRESHOLD_BYTES = 500.0

#: Memoised per-size routing tables kept alive (a handful of communicator
#: sizes occur per run: the machine and the hypercube sorter's subcubes).
_TABLE_CACHE_SIZE = 64


def _row_nbytes(buf: np.ndarray) -> int:
    """*Logical* bytes per message row of a payload array.

    Integer elements always count 8 bytes -- the simulated machine's word --
    so host-side dtype narrowing (repro.kernels.dtypes) never changes a
    simulated cost, traced byte or sanitizer shadow entry.
    """
    return logical_itemsize(buf.dtype) * _row_width(buf)


def _row_width(buf: np.ndarray) -> int:
    """Elements per message row (1 for a 1-D payload)."""
    return math.prod(buf.shape[1:])


def _empty_like_rows(template: np.ndarray, n: int = 0) -> np.ndarray:
    """An ``n``-row array with the same row shape/dtype as ``template``."""
    shape = (n,) + template.shape[1:]
    return np.empty(shape, dtype=template.dtype)


class SendBlock:
    """The send side of one exchange as a single flat row block.

    ``rows[order]`` (``rows`` itself when ``order`` is None) is the
    concatenation of the per-PE send buffers, i.e. the rows in (source,
    destination)-cell-major order.  :func:`route_rows` hands the schemes
    its unsorted rows plus the send permutation, so the send sort and the
    block transpose compose into one payload gather (:meth:`take`).
    """

    __slots__ = ("rows", "order")

    def __init__(self, rows: np.ndarray, order: Optional[np.ndarray] = None):
        self.rows = rows
        self.order = order

    def __len__(self) -> int:
        return len(self.rows)

    def take(self, index: np.ndarray) -> np.ndarray:
        """The rows at positions ``index`` of the cell-major send layout
        (``np.take``: several times faster than fancy indexing on rows)."""
        return np.take(self.rows, index if self.order is None
                       else self.order[index], axis=0)


def _validate(sendbufs, sendcounts, size: int
              ) -> Tuple[SendBlock, np.ndarray]:
    """Check one exchange's send side; returns its row block and the
    ``size x size`` (source, destination) counts matrix.

    ``sendcounts`` is a 2-D matrix or one count vector per PE; ``sendbufs``
    one buffer per PE or an already packed :class:`SendBlock`.
    """
    if isinstance(sendcounts, np.ndarray) and sendcounts.ndim == 2:
        if sendcounts.shape != (size, size):
            raise ValueError(f"sendcounts must be a {size} x {size} matrix")
        counts = sendcounts.astype(np.int64, copy=False)
    else:
        if len(sendcounts) != size:
            raise ValueError(f"need {size} send buffers/count vectors")
        counts = np.empty((size, size), dtype=np.int64)
        for i in range(size):
            c = np.asarray(sendcounts[i], dtype=np.int64)
            if c.shape != (size,):
                raise ValueError(f"sendcounts[{i}] must have length {size}")
            counts[i] = c
    if isinstance(sendbufs, SendBlock):
        if int(counts.sum()) != len(sendbufs):
            raise ValueError(f"sendcounts sum to {counts.sum()} but the "
                             f"send block has {len(sendbufs)} rows")
        return sendbufs, counts
    if len(sendbufs) != size:
        raise ValueError(f"need {size} send buffers/count vectors")
    if not any(isinstance(b, np.ndarray) for b in sendbufs):
        raise ValueError("at least one send buffer must be a numpy array")
    buf_lens = np.fromiter((len(b) for b in sendbufs), dtype=np.int64,
                           count=size)
    bad = np.flatnonzero(counts.sum(axis=1) != buf_lens)
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"sendcounts[{i}] sums to {counts[i].sum()} but buffer has "
            f"{len(sendbufs[i])} rows"
        )
    rows = np.concatenate(
        [b if isinstance(b, np.ndarray) and b.ndim else np.atleast_1d(b)
         for b in sendbufs], axis=0)
    return SendBlock(rows), counts


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, locked: memoised tables are shared by every caller."""
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _transposed_cells(size: int) -> np.ndarray:
    """Cell ids ``i * size + j`` listed in (destination, source) order."""
    return _read_only(
        np.arange(size * size).reshape(size, size).T.ravel())


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _source_of_cell(size: int) -> np.ndarray:
    """Source rank of every cell in (destination, source) order."""
    return _read_only(np.tile(np.arange(size), size))


def _exclusive_cumsum(lens: np.ndarray) -> np.ndarray:
    """``out[k] = lens[:k].sum()``: where block ``k`` of a packed run starts."""
    starts = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    return starts


def _rows_of_cells(counts: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Positions, in the (src, dst)-cell-major send layout, of the rows of
    the cells ``cells`` (ids ``i * size + j``), cell after cell."""
    lens = counts.ravel()
    starts = _exclusive_cumsum(lens)[cells]
    lens = lens[cells]
    return (np.arange(int(lens.sum()))
            + np.repeat(starts - _exclusive_cumsum(lens), lens))


def _gather_order(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Shared gather index transposing (src, dst) cell order to (dst, src).

    The concatenated send buffers are laid out in (src, dst) cell-major
    order; receivers need (dst, src)-major.  The stable sort by destination
    is exactly the block transpose of the cell structure, so build the
    gather index directly in O(rows + size^2) instead of an
    O(rows log rows) argsort.  Returns the gather order plus per-receiver
    offsets into the gathered sequence.
    """
    size = counts.shape[0]
    order = _rows_of_cells(counts, _transposed_cells(size))
    offs = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=0), out=offs[1:])
    return order, offs


def _move(block: SendBlock, counts: np.ndarray) -> List[np.ndarray]:
    """Pure data movement for one exchange (no cost accounting).

    ``counts[i, j]`` rows go from rank ``i`` to rank ``j``.  Returns the
    per-rank receive buffers: rows source-major, per-pair order preserved.
    """
    size = counts.shape[0]
    if len(block) == 0:
        return [_empty_like_rows(block.rows) for _ in range(size)]
    order, offs = _gather_order(counts)
    return split_rows(block.take(order), offs)


def split_rows(routed: np.ndarray, offs: np.ndarray) -> List[np.ndarray]:
    """Per-rank views ``routed[offs[j]:offs[j + 1]]`` of one row block.

    Ranks that hold nothing get a standalone empty array: a zero-length
    *slice* would pin the whole block in memory for as long as any rank
    keeps its (empty) buffer alive.
    """
    return [routed[offs[j]:offs[j + 1]]
            if offs[j + 1] > offs[j] else _empty_like_rows(routed)
            for j in range(len(offs) - 1)]


def _recvcounts(counts: np.ndarray) -> List[np.ndarray]:
    """Per-receiver source counts: the rows of one contiguous ``counts.T``."""
    return list(np.ascontiguousarray(counts.T))


def _record_trace(comm: Comm, counts: np.ndarray, row_bytes: float,
                  op: str = "alltoall") -> None:
    """Accumulate one exchange into the machine's communication trace.

    The sanitizer keeps its own shadow of the same per-pair matrix (fed
    unconditionally when attached) so it can cross-check
    ``bytes_communicated`` without changing tracing semantics.  ``op``
    names the exchange flavour for the metrics registry
    (bytes/messages per collective, per-PE send volumes); metrics see the
    exact same counts matrix as the trace and the sanitizer shadow.
    """
    m = comm.machine
    if m.metrics is not None:
        from ..obs.hooks import observe_exchange

        observe_exchange(comm, op, counts, row_bytes)
    tr, san = m.trace, m.sanitizer
    if tr is None and san is None:
        return
    sub = np.asarray(counts, dtype=np.float64) * row_bytes
    if tr is not None:
        tr.matrix[np.ix_(comm.ranks, comm.ranks)] += sub
        tr.n_exchanges += 1
    if san is not None:
        san.on_comm(comm.ranks, sub)


def _hop_cost(machine, group: int, rows_out: np.ndarray,
              rows_in: np.ndarray, template: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per rank ``(cost, bytes out, bytes in)`` of one hop from the rows
    it puts on and takes off the wire.  ``group`` is the size of the PE
    group whose dense all-to-all the hop is charged as, or 0 for one
    pairwise exchange.  Elementwise, so the arrays may stack the hops of
    many exchanges (one row each) with scalar-loop float semantics."""
    cm = machine.cost
    row_bytes = _row_nbytes(template)
    bytes_out = np.asarray(rows_out, dtype=np.float64) * row_bytes
    bytes_in = np.asarray(rows_in, dtype=np.float64) * row_bytes
    if group:
        cost = cm.alltoall_dense(group, bytes_out, bytes_in, machine.threads)
    else:
        cost = (cm.c_call + cm.alpha
                + (cm.beta + cm.beta_sw) * (bytes_out + bytes_in))
    return cost, bytes_out, bytes_in


def _charge_hop(comm: Comm, op: str, group: int, cost: np.ndarray,
                bytes_out: np.ndarray, bytes_in: np.ndarray,
                held: np.ndarray, wire_of, template: np.ndarray,
                materialise) -> None:
    """Charge one hop (or one whole direct exchange) from its
    :func:`_hop_cost` and the rows each rank ``held`` after it (staying
    rows included).  ``wire_of()`` builds the dense per-pair wire matrix, only
    for a trace, metrics or the sanitizer.  In the order every exchange of
    the simulated machine follows: fault hook (``materialise(rank)`` builds
    the payload ``rank`` holds after the hop, on demand),
    ``bytes_communicated``, trace/metrics/sanitizer shadow, clock charge.
    """
    m = comm.machine
    if m.faults is not None:
        cost = m.faults.on_exchange(
            comm, op, held * _row_width(template), materialise,
            _row_nbytes(template), bytes_out, bytes_in, cost)
    nbytes = float(bytes_out.sum())
    m.bytes_communicated += nbytes
    if not (m.trace is None and m.metrics is None and m.sanitizer is None):
        _record_trace(comm, wire_of(), _row_nbytes(template), op=op)
    comm._sync_and_charge(cost, op=op, nbytes=nbytes)


def alltoallv_direct(
    comm: Comm,
    sendbufs: Sequence[np.ndarray],
    sendcounts: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Dense one-level all-to-all (built-in ``MPI_Alltoallv`` model)."""
    return _exchange(comm, "direct", sendbufs, sendcounts)


# ----------------------------------------------------------------------
# Indirect schemes: a hop table, accounted hop by hop, one data move.
# ----------------------------------------------------------------------
class _Hop(NamedTuple):
    """One hop's cells grouped by (sender, receiver), memoised with its plan:
    ``perm`` lists the cells group by group, ``starts`` marks each group and
    ``sender`` / ``receiver`` are its endpoints."""

    perm: np.ndarray
    starts: np.ndarray
    sender: np.ndarray
    receiver: np.ndarray


class _HopPlan(NamedTuple):
    """An indirect scheme's routing on a fixed number of ranks.

    ``ops[k]`` names hop ``k``; ``keys[k][i * size + j]`` is
    ``holder_{k-1}[i, j] * size + holder_k[i, j]`` (the hop's sender and
    receiver of cell ``(i, j)``; ``holder_{-1} = i``); ``groups[k]`` is the
    size of the PE group whose dense all-to-all the hop is charged as, or
    0 for one pairwise exchange (a hypercube dimension); ``hops[k]`` groups
    its cells (:class:`_Hop`).
    """

    ops: Tuple[str, ...]
    keys: Tuple[np.ndarray, ...]
    groups: Tuple[int, ...]
    hops: Tuple[_Hop, ...]


def _hop_plan(ops: Sequence[str], holders: Sequence[np.ndarray],
              groups: Sequence[int]) -> _HopPlan:
    """Pack per-hop ``holder_k`` tables (each ``size x size``) into a plan."""
    size = holders[0].shape[0]
    if not np.array_equal(holders[-1],
                          np.broadcast_to(np.arange(size), (size, size))):
        raise RuntimeError(
            f"{ops[-1]}: routing failed to converge (a cell does not end "
            f"at its destination)")
    keys = []
    prev = np.repeat(np.arange(size), size)
    for holder in holders:
        holder = np.asarray(holder, dtype=np.int64).ravel()
        keys.append(_read_only(prev * size + holder))
        prev = holder
    hops = []
    for key in keys:  # group each hop's cells by (sender, receiver)
        perm = np.argsort(key, kind="stable")
        sk = key[perm]
        starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
        hops.append(_Hop(*map(_read_only, (perm, starts,
                                           *np.divmod(sk[starts], size)))))
    return _HopPlan(tuple(ops), tuple(keys), tuple(groups), tuple(hops))


def _hop_payload(plan: _HopPlan, hop: int, block_of, counts: np.ndarray,
                 rank: int) -> np.ndarray:
    """The payload ``rank`` holds after hop ``hop``, as the replayed routing
    would have built it.

    A rank's hop buffer is a concatenation of whole cells.  Each hop, a
    sender forwards its buffer stably sorted by next holder and a receiver
    concatenates what arrives source-major (a hypercube rank keeps its
    staying rows first, then the partner's), so the cells are ordered by
    (holder, arrival key, order before the hop), hop after hop.
    """
    size = counts.shape[0]
    seq = np.arange(size * size)
    for key, group in zip(plan.keys[:hop + 1], plan.groups):
        sender, holder = np.divmod(key, size)
        arrival = sender if group else sender != holder
        seq = seq[np.argsort((holder * size + arrival)[seq], kind="stable")]
    return block_of().take(_rows_of_cells(counts, seq[holder[seq] == rank]))


def _hop_sums(hop: _Hop, cells: np.ndarray) -> np.ndarray:
    """Rows per (sender, receiver) group of one hop: one integer
    ``reduceat`` over the plan's cell order."""
    return np.add.reduceat(cells[hop.perm], hop.starts)


def _hop_marginals(hop: _Hop, group: int, sums: np.ndarray, size: int):
    """Per rank: rows out and in on the wire (a pairwise exchange does not
    send the rows that stay put) and rows held after the hop.  Sums of at
    most ``p * group`` integers, exact in float64."""
    wire = sums if group else np.where(hop.sender == hop.receiver, 0, sums)
    out = np.bincount(hop.sender, weights=wire, minlength=size)
    in_ = np.bincount(hop.receiver, weights=wire, minlength=size)
    held = in_ if group else np.bincount(hop.receiver, weights=sums,
                                         minlength=size)
    return out, in_, held.astype(np.int64), wire


def _hop_matrix(hop: _Hop, values: np.ndarray, size: int) -> np.ndarray:
    """The dense ``size x size`` matrix of per-group ``values``."""
    out = np.zeros(size * size, dtype=np.int64)
    out[hop.sender * size + hop.receiver] = values
    return out.reshape(size, size)


def _grid_shape(size: int) -> Tuple[int, int]:
    """Columns ``c = floor(sqrt(p))`` and rows ``r = ceil(p / c)``."""
    c = int(math.isqrt(size))
    r = (size + c - 1) // c
    return c, r


def _grid_intermediate(size: int) -> np.ndarray:
    """``T[i, j]``: intermediate PE for a message from ``i`` to ``j``.

    Implements the routing rule of Section VI-A including the special case
    for destinations in an incomplete last grid row.
    """
    c, r = _grid_shape(size)
    i = np.arange(size)[:, None]
    j = np.arange(size)[None, :]
    col_i = i % c
    row_j = j // c
    col_j = j % c
    T = row_j * c + col_i
    if size != c * r:
        # j in the incomplete last row: reroute via row col(j).
        incomplete = row_j == r - 1
        T = np.where(incomplete, col_j * c + col_i, T)
    return T.astype(np.int64)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _grid_plan(size: int) -> _HopPlan:
    """Hop 1 within grid columns (groups of ``r``), hop 2 within rows (of
    ``c``, plus the two virtual members of an incomplete last row)."""
    c, r = _grid_shape(size)
    dst = np.broadcast_to(np.arange(size), (size, size))
    return _hop_plan(("alltoallv_grid/hop1", "alltoallv_grid/hop2"),
                     (_grid_intermediate(size), dst),
                     (r, c + (0 if size == c * r else 2)))


def alltoallv_grid(
    comm: Comm,
    sendbufs: Sequence[np.ndarray],
    sendcounts: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Two-level grid all-to-all (Section VI-A).

    Each message travels via one intermediate PE; the two hops are charged as
    two dense all-to-alls over groups of at most ``sqrt(p) + 2`` PEs, cutting
    the per-PE startup from ``alpha * p`` to ``O(alpha * sqrt(p))`` while
    doubling the communicated volume.
    """
    return _exchange(comm, "grid", sendbufs, sendcounts)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _hypercube_plan(size: int) -> _HopPlan:
    """After dimension ``k`` a cell sits at the rank with the low ``k + 1``
    bits of its destination and the remaining bits of its source."""
    dims = size.bit_length() - 1
    src = np.arange(size)[:, None]
    dst = np.arange(size)[None, :]
    holders = []
    for k in range(dims):
        low = (2 << k) - 1
        holders.append((dst & low) | (src & ~low))
    return _hop_plan([f"alltoallv_hypercube/dim{k}" for k in range(dims)],
                     holders, (0,) * dims)


def alltoallv_hypercube(
    comm: Comm,
    sendbufs: Sequence[np.ndarray],
    sendcounts: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Hypercube all-to-all: ``log p`` pairwise rounds, data moved each round.

    Requires a power-of-two communicator size; other sizes fall back to the
    two-level grid scheme (the paper's generalisation covers the gap).
    """
    return _exchange(comm, "hypercube", sendbufs, sendcounts)


def _plan(scheme: str, size: int) -> _HopPlan:
    """The hop plan of indirect scheme ``scheme`` on ``size`` ranks."""
    return (_grid_plan if scheme == "grid" else _hypercube_plan)(size)


def _auto_takes_grid(size: int, total_rows: int,
                     template: np.ndarray) -> bool:
    """The dispatch rule of Section VI-A: indirect delivery when the average
    message is below the threshold (and the grid is not degenerate)."""
    return (size > 3 and total_rows * _row_nbytes(template)
            / float(size * size) < GRID_DISPATCH_THRESHOLD_BYTES)


def _resolve(method: str, size: int, total_rows: int,
             template: np.ndarray) -> str:
    """The scheme an exchange under ``method`` runs as: ``auto`` takes the
    grid below :data:`GRID_DISPATCH_THRESHOLD_BYTES` per message (Section
    VI-A), ``hypercube`` falls back to the grid on a non-power-of-two size
    and to direct on one rank, ``grid`` and ``grid3`` to direct on <= 3
    ranks."""
    if method not in ALLTOALL_METHODS:
        raise KeyError(method)
    if method == "auto":
        method = ("grid" if _auto_takes_grid(size, total_rows, template)
                  else "direct")
    elif method == "hypercube" and size & (size - 1):
        method = "grid"
    if method == "direct" or size == 1 or size <= 3 and method != "hypercube":
        return "direct"
    return method


def _plan_hops(machine, plan: _HopPlan, template: np.ndarray,
               stack: np.ndarray) -> List[list]:
    """Every matrix's hops under an indirect plan, summed together: one
    integer ``reduceat`` per hop over the plan's cell order."""
    n, size = stack.shape[:2]
    cells = stack.reshape(n, size * size)
    base = np.arange(n)[:, None] * size  # matrix j's ranks: j * size + rank
    per_hop = []
    for op, group, hop in zip(plan.ops, plan.groups, plan.hops):
        sums = np.add.reduceat(cells[:, hop.perm], hop.starts, axis=1)
        stacked = hop._replace(sender=(base + hop.sender).ravel(),
                               receiver=(base + hop.receiver).ravel())
        out, in_, held = (x.reshape(n, size) for x in _hop_marginals(
            stacked, group, sums.ravel(), n * size)[:3])
        per_hop.append(zip(itertools.repeat(op), itertools.repeat(group),
                           *_hop_cost(machine, group, out, in_, template),
                           held))
    return [list(hops) for hops in zip(*per_hop)]


def exchange_charges(machine, method: str, template: np.ndarray,
                     stack: np.ndarray) -> List[Tuple[str, list]]:
    """What each exchange of a stack of ``(n, size, size)`` count matrices
    charges on ``machine``: the scheme its dispatch rule picks (per matrix)
    and its hops ``(op, group, cost, bytes out, bytes in, rows held)``
    per rank (:func:`_hop_cost`), computed for the whole stack at once.
    Pure: no clock, observer or fault is touched (:func:`apply_charges`
    does that).  ``grid3`` is not resolved here."""
    n, size = stack.shape[:2]
    picked = [_resolve(method, size, int(t), template)
              for t in stack.reshape(n, -1).sum(axis=1)]
    out: List = [None] * n
    for scheme in dict.fromkeys(picked):
        idx = [k for k, m in enumerate(picked) if m == scheme]
        sub = stack[idx]
        if scheme == "direct":
            held = sub.sum(axis=1)
            hops = [[("alltoallv_direct", size, *c)] for c in zip(
                *_hop_cost(machine, size, sub.sum(axis=2), held, template),
                held)]
        else:
            hops = _plan_hops(machine, _plan(scheme, size), template, sub)
        for k, h in zip(idx, hops):
            out[k] = (scheme, h)
    return out


def _charge_hops(comm: Comm, plan: _HopPlan, hops: Sequence[tuple],
                 template: np.ndarray, counts: np.ndarray, block_of
                 ) -> List[np.ndarray]:
    """Charge every hop of an indirect exchange from its marginals.

    The dense ``H_k`` (diagonal = rows staying put) is built from
    ``counts`` only for the sanitizer and the trace.  ``block_of()``
    returns the exchange's :class:`SendBlock`, only for a drawn corruption
    victim.  Returns the ``H_k`` when the sanitizer is attached (which
    checks them), else [].
    """
    m = comm.machine
    size = comm.size
    observed = not (m.trace is None and m.metrics is None
                    and m.sanitizer is None)
    dense: List[np.ndarray] = []
    for k, (hop, charge) in enumerate(zip(plan.hops, hops)):
        wire_of = None
        if observed:
            sums = _hop_sums(hop, counts.ravel())
            if m.sanitizer is not None:
                dense.append(_hop_matrix(hop, sums, size))
            wire_of = functools.partial(
                _hop_matrix, hop,
                _hop_marginals(hop, charge[1], sums, size)[3], size)
        _charge_hop(comm, *charge, wire_of, template,
                    functools.partial(_hop_payload, plan, k, block_of,
                                      counts))
    if m.sanitizer is not None:
        m.sanitizer.check_hops(int(counts.sum()), dense,
                               (plan.keys[-1] % size).reshape(size, size))
    return dense


def apply_charges(comm: Comm, scheme: str, hops: Sequence[tuple],
                  template: np.ndarray, counts: np.ndarray, block_of) -> None:
    """Issue one exchange's precomputed :func:`exchange_charges` on
    ``comm``: per hop the fault hook, ``bytes_communicated``, the
    trace/metrics/sanitizer shadow and the clock charge, in that order
    (:func:`_charge_hop`); observers read ``counts``."""
    size = comm.size
    if scheme == "direct":
        def received(rank: int) -> np.ndarray:
            """A victim's receive buffer: the cells addressed to it."""
            return block_of().take(
                _rows_of_cells(counts, np.arange(size) * size + rank))

        return _charge_hop(comm, *hops[0], lambda: counts, template,
                           received)
    plan = _plan(scheme, size)
    dense = _charge_hops(comm, plan, hops, template, counts, block_of)
    san = comm.machine.sanitizer
    if san is not None and scheme == "grid":
        san.check_two_level(size, int(counts.sum()),
                            [int(H.sum()) for H in dense], plan.groups)


def account(comm: Comm, method: str, template: np.ndarray,
            counts: np.ndarray, block_of) -> None:
    """Charge one exchange under ``method`` without moving a row.

    Everything the simulated machine observes of an exchange follows from
    its ``comm.size x comm.size`` count matrix and the row dtype/width
    (``template``: any array of such rows).  ``block_of()`` returns the
    send side as a :class:`SendBlock`, called only for a drawn corruption
    victim.  :func:`exchange_charges` on a stack of one, then
    :func:`apply_charges`; ``grid3`` keeps its own branch.
    """
    if _resolve(method, comm.size, int(counts.sum()), template) == "grid3":
        from .multilevel import _account_multilevel

        return _account_multilevel(comm, template, counts, block_of, 3)
    (scheme, hops), = exchange_charges(comm.machine, method, template,
                                       counts[None])
    apply_charges(comm, scheme, hops, template, counts, block_of)


def _exchange(comm: Comm, method: str, sendbufs, sendcounts
              ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Validate, account under ``method``, then move the rows once."""
    block, counts = _validate(sendbufs, sendcounts, comm.size)
    account(comm, method, block.rows, counts, lambda: block)
    return _move(block, counts), _recvcounts(counts)


def alltoallv_auto(
    comm: Comm,
    sendbufs: Sequence[np.ndarray],
    sendcounts: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Dispatch between direct and grid scheme by average message size.

    Section VI-A: the indirect grid variant is used when the average number
    of bytes sent per message is below :data:`GRID_DISPATCH_THRESHOLD_BYTES`.
    """
    return _exchange(comm, "auto", sendbufs, sendcounts)


def _alltoallv_grid3(comm, sendbufs, sendcounts):
    """Three-level indirect delivery (the d = 3 point of Section VI-A's
    generalisation; see :mod:`repro.simmpi.multilevel`)."""
    return _exchange(comm, "grid3", sendbufs, sendcounts)


#: Name -> implementation map for experiment configuration.
ALLTOALL_METHODS = {
    "direct": alltoallv_direct,
    "grid": alltoallv_grid,
    "grid3": _alltoallv_grid3,
    "hypercube": alltoallv_hypercube,
    "auto": alltoallv_auto,
}


# ----------------------------------------------------------------------
# Higher-level conveniences used by the MST algorithms.
# ----------------------------------------------------------------------
def route_rows(
    comm: Comm,
    rows_per_pe: Sequence[np.ndarray],
    dest_per_row: Sequence[np.ndarray],
    method: str = "auto",
) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
    """Deliver arbitrary per-PE rows to per-row destination ranks.

    This is the workhorse wrapper the algorithms use: it sorts each PE's rows
    by destination (stable), performs the exchange, and returns

    ``recv_rows``
        per-PE received rows (source-major, per-pair order preserved),
    ``recv_src``
        per-PE source rank of every received row, and
    ``send_order``
        the permutation applied to each sender's rows.  Because replies to a
        request arrive back in exactly the order requests were sent (both
        directions are source/destination-major with per-pair order
        preserved), ``reply[invert_permutation(send_order)]`` restores the
        original query order -- see :func:`unsort`.
    """
    size = comm.size
    fn = ALLTOALL_METHODS[method]
    rows_r = RaggedArrays.from_arrays(rows_per_pe)
    dest_r = RaggedArrays.from_arrays(
        [np.asarray(d, dtype=np.int64) for d in dest_per_row])
    mismatch = np.flatnonzero(rows_r.lengths != dest_r.lengths)
    if len(mismatch):
        i = int(mismatch[0])
        raise ValueError(
            f"PE {i}: {rows_r.lengths[i]} rows but "
            f"{dest_r.lengths[i]} destinations"
        )
    seg = rows_r.segment_ids()
    # route_plan fuses (segment, destination) into one key, so a rank
    # outside [0, size) would alias a neighbouring PE's cell.
    dest = dest_r.flat
    if len(dest) and (dest.min() < 0 or dest.max() >= size):
        k = int(np.flatnonzero((dest < 0) | (dest >= size))[0])
        raise ValueError(
            f"PE {int(seg[k])}: destination {int(dest[k])} outside "
            f"[0, {size})"
        )
    order_g, counts_mat = route_plan(seg, dest, size, size)
    off = rows_r.offsets
    local_order = order_g - np.repeat(off[:-1], rows_r.lengths)
    orders = [local_order[off[i]:off[i + 1]] for i in range(size)]
    # The scheme gets the unsorted block, the send permutation and the
    # counts matrix: nothing is split per PE and re-concatenated, and
    # send sort + transpose cost one payload gather.
    recvbufs, _ = fn(comm, SendBlock(rows_r.flat, order_g), counts_mat)
    src_flat = np.repeat(_source_of_cell(size), counts_mat.T.ravel())
    roff = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(counts_mat.sum(axis=0), out=roff[1:])
    recv_src = [src_flat[roff[i]:roff[i + 1]] for i in range(size)]
    return recvbufs, recv_src, orders


def ask(comm: Comm, method: str, keys: np.ndarray, key_seg: np.ndarray,
        owner, answer) -> np.ndarray:
    """One deduplicated request/reply round, charged from one count matrix.

    PE ``key_seg[k]`` asks for ``keys[k]``: each PE's distinct keys go to
    ``owner(uniq)``, and ``answer(uniq, dest)`` is the owners' lookup over
    all PEs at once, one reply row per key (raising the owner's error,
    naming the lowest failing owner PE).  Charged as routing would charge
    it: the request exchange from ``C = bincount(src * p + dest)``, the
    owners' hash probes ``C.sum(0)``, the reply exchange from ``C.T``.  A
    corruption victim's block is built only when drawn: each PE's keys by
    owner, each owner's answers source-major.  Returns the replies aligned
    with ``keys``.
    """
    size = comm.size
    uniq, uoff, inv = segmented_unique(keys, key_seg, size)
    dest = np.asarray(owner(uniq), dtype=np.int64)
    cell = np.repeat(np.arange(size, dtype=np.int64) * size,
                     np.diff(uoff)) + dest
    counts = np.bincount(cell, minlength=size * size).reshape(size, size)

    @functools.lru_cache(maxsize=1)
    def send_order() -> np.ndarray:
        return np.argsort(cell, kind="stable")

    account(comm, method, uniq, counts,
            lambda: SendBlock(uniq, send_order()))
    replies = answer(uniq, dest)
    comm.machine.charge_hash(counts.sum(axis=0), ranks=comm.ranks)
    account(comm, method, replies, np.ascontiguousarray(counts.T),
            lambda: SendBlock(replies,
                              send_order()[_gather_order(counts)[0]]))
    return replies[uoff[key_seg] + inv]


def unsort(order: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Undo the send permutation from :func:`route_rows` on reply rows."""
    out = np.empty_like(values)
    out[order] = values
    return out
