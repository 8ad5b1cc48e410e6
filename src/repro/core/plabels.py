"""The distributed component-representative array ``P`` (Section V).

Filter-Borůvka maintains "a distributed array P of size n, where PE i holds
the elements in/p..(i+1)n/p.  After a Borůvka round, each PE stores the
component root for its local vertices in P.  In the end, the implicitly
constructed trees in P are contracted using O(log(log n)) pointer doubling
rounds."

:class:`DistributedLabelArray` implements exactly that: it is plugged into
:class:`~repro.core.state.MSTRun` as the label sink, buffers each
contraction's ``vertex -> root`` map, flushes the buffered updates to the
block owners with one sparse all-to-all, and contracts the resulting pointer
trees by distributed pointer doubling.  ``request`` then resolves arbitrary
(historical) vertex labels to their current component representatives -- the
REQUESTLABELS step of the FILTER routine.

The host holds ``P`` as one flat ``int64`` array (PE ``i``'s block is
``bounds[i]:bounds[i + 1]``); every exchange is charged from its count
matrix (:func:`repro.simmpi.alltoall.account` / ``ask``) and no row moves.
The routed per-PE class is the oracle of the differential tests.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..kernels import RaggedArrays
from ..simmpi.alltoall import SendBlock, account, ask
from ..simmpi.collectives import Comm
from ..utils.partition import block_bounds, owner_of


class DistributedLabelArray:
    """Block-distributed ``P[0..n)`` with buffered updates and doubling."""

    def __init__(self, comm: Comm, n: int, alltoall: str = "auto"):
        self.comm = comm
        self.n = int(n)
        self.p = comm.size
        self.alltoall = alltoall
        self.bounds = block_bounds(self.n, self.p)
        #: ``P``, flat, initialised to the identity.
        self.values = np.arange(self.n, dtype=np.int64)
        self._pending: List[List[np.ndarray]] = [[] for _ in range(self.p)]

    def _owner(self, index: np.ndarray) -> np.ndarray:
        return owner_of(index, self.n, self.p)

    def _ask(self, keys: np.ndarray, key_seg: np.ndarray) -> np.ndarray:
        """``P[keys]``, asked of the block owners by PE ``key_seg``."""
        return ask(self.comm, self.alltoall, keys, key_seg, self._owner,
                   lambda uniq, _owner: self.values[uniq])

    # ------------------------------------------------------------------
    def sink(self, pe: int, vertices: np.ndarray, roots: np.ndarray) -> None:
        """Label-sink entry point (buffered; see :meth:`flush`)."""
        if len(vertices):
            self._pending[pe].append(
                np.stack([np.asarray(vertices, dtype=np.int64),
                          np.asarray(roots, dtype=np.int64)], axis=1)
            )

    def flush(self) -> None:
        """Deliver buffered updates to their block owners (one all-to-all).

        The buffer is source-major, which is the order every owner applies
        what it receives, so of two updates to one entry the later wins.
        """
        p = self.p
        r = RaggedArrays.from_arrays(
            [np.concatenate(b, axis=0) if b else np.empty((0, 2), np.int64)
             for b in self._pending])
        self._pending = [[] for _ in range(p)]
        rows = r.flat
        cell = r.segment_ids() * p + self._owner(rows[:, 0])
        counts = np.bincount(cell, minlength=p * p).reshape(p, p)
        account(self.comm, self.alltoall, rows, counts,
                lambda: SendBlock(rows, np.argsort(cell, kind="stable")))
        self.values[rows[:, 0]] = rows[:, 1]
        self.comm.machine.charge_scan(counts.sum(axis=0))

    def _per_pe(self, index: np.ndarray) -> List[int]:
        """How many of the sorted positions ``index`` each PE holds."""
        return np.diff(np.searchsorted(index, self.bounds)).tolist()

    # ------------------------------------------------------------------
    def contract(self, max_rounds: int = 64) -> None:
        """Pointer-double P to fixpoint: ``P[v] <- P[P[v]]`` until stable."""
        self.flush()
        ids = np.arange(self.n)
        for _ in range(max_rounds):
            # Ask the owner of every (deduplicated) non-trivial target.
            pos = np.flatnonzero(self.values != ids)
            if self.comm.allreduce(self._per_pe(pos)) == 0:
                return
            new = self._ask(self.values[pos], self._owner(pos))
            changed = pos[new != self.values[pos]]
            self.values[pos] = new
            if self.comm.allreduce(self._per_pe(changed)) == 0:
                return
        raise RuntimeError("P-array pointer doubling failed to converge")

    # ------------------------------------------------------------------
    def request(self, keys: np.ndarray, seg: np.ndarray) -> np.ndarray:
        """REQUESTLABELS: PE ``seg[k]`` resolves vertex label ``keys[k]`` to
        its representative; the answers are aligned with ``keys``.

        Call :meth:`contract` first; chains are then fully collapsed and one
        lookup round suffices.
        """
        return self._ask(np.asarray(keys, dtype=np.int64), seg)

    def assembled(self) -> np.ndarray:
        """The full array (testing/diagnostics only -- not a PE operation)."""
        return self.values.copy()
