"""SPMD collectives over the simulated machine.

A :class:`Comm` binds a :class:`~repro.simmpi.machine.Machine` to an ordered
subset of its PEs (like an MPI communicator).  Because the simulator drives
all PEs from one Python process, collectives take a *list of per-rank values*
(index = rank within the communicator) and return either a replicated value
(for bcast/allreduce-style operations -- every rank holds the same result) or
a list of per-rank results.

Every operation

1. really computes the result from the per-rank inputs (data semantics are
   identical to MPI), and
2. charges simulated time to the participants' clocks using the collective
   bounds from Section II-A of the paper
   (``O(alpha log p + beta l)`` for tree collectives,
   ``O(alpha log p + beta L)`` with total length ``L`` for allgather).

Collectives synchronise the participants' clocks to their maximum before the
operation completes (bulk-synchronous semantics), which matches how the
paper's algorithms use them.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Union

import numpy as np

from ..kernels.dtypes import logical_nbytes
from .machine import Machine

#: Reduction operators accepted by name.
_OPS: dict[str, Callable] = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


def _nbytes(value) -> int:
    """Communication size in *logical* bytes of one per-rank contribution.

    The simulated machine moves 8-byte words for every integer payload
    regardless of the host storage width (repro.kernels.dtypes narrowing),
    so integer arrays count ``size * 8`` -- keeping every simulated cost
    bit-identical between narrow and wide storage.  Floats and bools keep
    their true width, as they always did.
    """
    if isinstance(value, np.ndarray):
        return logical_nbytes(value)
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return 8  # scalars travel as one machine word


def _resolve_op(op: Union[str, Callable]) -> Callable:
    if callable(op):
        return op
    try:
        return _OPS[op]
    except KeyError:
        raise ValueError(f"unknown reduction op {op!r}; use one of {sorted(_OPS)}")


class Comm:
    """An ordered group of PEs supporting collective operations.

    Parameters
    ----------
    machine:
        The simulated machine.
    ranks:
        Global PE ids that form this communicator, in rank order.  ``None``
        means all PEs (the world communicator).
    """

    def __init__(self, machine: Machine, ranks: Sequence[int] | None = None):
        self.machine = machine
        if ranks is None:
            self.ranks = np.arange(machine.n_procs)
        else:
            self.ranks = np.asarray(ranks, dtype=np.int64)
            if len(np.unique(self.ranks)) != len(self.ranks):
                raise ValueError("communicator ranks must be distinct")
        self.size = len(self.ranks)

    # ------------------------------------------------------------------
    def _sync_and_charge(self, per_rank_cost, op: str = "collective",
                         nbytes: float = 0.0) -> None:
        """Barrier-synchronise participants, then charge per-rank costs.

        ``op`` names the collective for the observability layer (span
        events and per-operation metrics); ``nbytes`` is its per-rank
        payload size.  Both are observation-only: the synchronisation and
        charging sequence is identical whether or not tracing is attached.

        When a fault injector is attached (repro.faults) it adjusts the
        per-rank cost here -- dropped messages are retried with backoff,
        stragglers and slow links multiply their ranks' costs -- before
        the sanitizer validates the charge, so every injected fault still
        has to satisfy the cost-accounting invariants.
        """
        m = self.machine
        m.n_collectives += 1
        san = m.sanitizer
        ev = m.events
        if ev is not None:
            ev.begin_ranks(op, m.clock, self.ranks, cat="collective")
        if m.metrics is not None:
            m.metrics.counter(f"collective/{op}/count").inc()
            m.metrics.counter(f"collective/{op}/bytes").inc(nbytes)
        if m.faults is not None:
            per_rank_cost = m.faults.on_collective(op, self.ranks,
                                                   per_rank_cost, nbytes)
        if san is not None:
            san.pre_collective(self.ranks, per_rank_cost)
        clocks = m.clock[self.ranks]
        m.clock[self.ranks] = clocks.max() + per_rank_cost
        if san is not None:
            san.post_collective(self.ranks)
        if ev is not None:
            ev.end_ranks(op, m.clock, self.ranks, cat="collective")

    def sub(self, local_ranks: Sequence[int]) -> "Comm":
        """Sub-communicator from rank indices *within this communicator*."""
        return Comm(self.machine, self.ranks[np.asarray(local_ranks, dtype=np.int64)])

    def slice(self, start: int, stop: int) -> "Comm":
        """Sub-communicator of the contiguous rank positions ``[start, stop)``.

        A slice of distinct ranks is distinct, so this skips the
        constructor's ``np.unique`` check (:meth:`sub` keeps it for
        arbitrary rank lists); the hypercube sorter builds one per node of
        its split tree.
        """
        out = Comm.__new__(Comm)
        out.machine = self.machine
        out.ranks = self.ranks[start:stop]
        out.size = len(out.ranks)
        return out

    # ------------------------------------------------------------------
    # Rooted / replicated collectives.
    # ------------------------------------------------------------------
    def bcast(self, value, root: int = 0):
        """Broadcast ``value`` held by ``root`` to all ranks (returned replicated)."""
        nb = _nbytes(value)
        cost = self.machine.cost.collective_tree(self.size, nb)
        self._sync_and_charge(cost, op="bcast", nbytes=nb)
        return value

    def reduce(self, values: Sequence, op: Union[str, Callable] = "sum", root: int = 0):
        """Reduce per-rank ``values``; only ``root`` semantically holds the result."""
        result = self._reduced(values, op)
        nb = _nbytes(values[0])
        cost = self.machine.cost.collective_tree(self.size, nb)
        self._sync_and_charge(cost, op="reduce", nbytes=nb)
        return result

    def allreduce(self, values: Sequence, op: Union[str, Callable] = "sum"):
        """Reduce per-rank ``values`` and replicate the result on every rank.

        ``values`` may be scalars or numpy arrays of identical shape (the
        paper's base case relies on a *vector* allreduce of length n',
        Section IV-D).
        """
        result = self._reduced(values, op)
        nb = _nbytes(values[0])
        cost = self.machine.cost.collective_tree(self.size, nb)
        self._sync_and_charge(cost, op="allreduce", nbytes=nb)
        return result

    def _reduced(self, values: Sequence, op: Union[str, Callable]):
        if len(values) != self.size:
            raise ValueError(
                f"expected {self.size} per-rank values, got {len(values)}"
            )
        fn = _resolve_op(op)
        if not isinstance(fn, np.ufunc) and hasattr(fn, "reduce"):
            return fn.reduce(values)  # the whole fold in one call
        if (len(values) > 1 and fn in _OPS.values()
                and set(map(type, values)) == {int}):
            # Python ints: the loop's first step already yields an int64
            # scalar and wraps like this one reduce; a value past int64
            # raises OverflowError here as it does there.
            return fn.reduce(np.array(values, dtype=np.int64))
        acc = values[0]
        if isinstance(acc, np.ndarray):
            acc = acc.copy()
        for v in values[1:]:
            acc = fn(acc, v)
        return acc

    # ------------------------------------------------------------------
    # Prefix sums.
    # ------------------------------------------------------------------
    def exscan(self, values: Sequence, op: Union[str, Callable] = "sum") -> List:
        """Exclusive prefix reduction: rank r receives op(values[0..r-1]).

        Rank 0 receives the operation's identity (0 for sum; for general ops
        rank 0 receives ``None`` and callers must handle it).
        """
        fn = _resolve_op(op)
        out: List = []
        acc = None
        for r in range(self.size):
            if acc is None:
                out.append(0 if fn is np.add else None)
            else:
                out.append(acc)
            acc = values[r] if acc is None else fn(acc, values[r])
        nb = _nbytes(values[0])
        cost = self.machine.cost.collective_tree(self.size, nb)
        self._sync_and_charge(cost, op="exscan", nbytes=nb)
        return out

    def scan(self, values: Sequence, op: Union[str, Callable] = "sum") -> List:
        """Inclusive prefix reduction: rank r receives op(values[0..r])."""
        fn = _resolve_op(op)
        out: List = []
        acc = None
        for r in range(self.size):
            acc = values[r] if acc is None else fn(acc, values[r])
            out.append(acc)
        nb = _nbytes(values[0])
        cost = self.machine.cost.collective_tree(self.size, nb)
        self._sync_and_charge(cost, op="scan", nbytes=nb)
        return out

    # ------------------------------------------------------------------
    # Gather family.
    # ------------------------------------------------------------------
    def allgather(self, values: Sequence) -> List:
        """Each rank contributes one value; all ranks receive the full list."""
        total = sum(_nbytes(v) for v in values)
        cost = self.machine.cost.allgather(self.size, total)
        self._sync_and_charge(cost, op="allgather", nbytes=total)
        return list(values)

    def allgatherv(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate per-rank arrays; every rank receives the concatenation."""
        total = sum(logical_nbytes(a) for a in arrays)
        cost = self.machine.cost.allgather(self.size, total)
        self._sync_and_charge(cost, op="allgatherv", nbytes=total)
        return np.concatenate([np.atleast_1d(a) for a in arrays])

    def gatherv(self, arrays: Sequence[np.ndarray], root: int = 0) -> np.ndarray:
        """Concatenate per-rank arrays at ``root`` (returned; only root holds it)."""
        total = sum(logical_nbytes(a) for a in arrays)
        cost = self.machine.cost.allgather(self.size, total)
        self._sync_and_charge(cost, op="gatherv", nbytes=total)
        return np.concatenate([np.atleast_1d(a) for a in arrays])

    def barrier(self) -> None:
        """Synchronise all participants."""
        self._sync_and_charge(self.machine.cost.collective_tree(self.size, 0),
                              op="barrier")

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Comm(size={self.size})"
