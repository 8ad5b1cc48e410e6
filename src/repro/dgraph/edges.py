"""Edge-array container and ordering utilities.

The paper represents a graph as a lexicographically sorted sequence of
*directed* edges ``e = (u, v, w)``; for every edge the back edge ``(v, u, w)``
is also present (Section II-B).  :class:`Edges` stores such a sequence as
four parallel int64 numpy arrays:

``u``  source vertex label,
``v``  destination vertex label,
``w``  weight (the experiments draw integer weights uniformly from [1, 255)),
``id`` global id of the *directed* edge in the original input sequence --
       used to report original endpoints of MST edges after contractions
       have relabelled ``u``/``v`` (Section VI-C).

Tie-breaking
------------
Borůvka-style algorithms need a total order on (current) vertex *pairs* so
that minimum-edge selection cannot create cycles when weights collide
(Section II-C: "one can use vertex labels to consistently break ties").  We
use the key

    ``(w, min(u, v), max(u, v))``

throughout -- both in the distributed algorithms and in the sequential
baselines, so that all implementations select the same forest whenever the
input has no exactly-parallel duplicate edges (and the same *weight* in all
cases).  :func:`tie_key` is the one place that key is built: sorts go
through :meth:`Edges.weight_order`, and every minimum-edge selection --
MINEDGES, local preprocessing, the base case, the sequential Borůvka
rounds, the Awerbuch-Shiloach hook and Prim's frontier -- through
:func:`lightest_per_group`, whose kernel gives exactly-parallel duplicates
to the lowest position.

Weights are integers below :data:`WEIGHT_LIMIT` (2^62): the base case and
Prim use 2^62 as "no candidate", and :class:`~repro.dgraph.dist_graph.DistGraph`
refuses heavier edges at construction.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ..kernels.dtypes import index_dtype
from ..kernels.segmented import group_argmin, packed_lexsort

#: Exclusive upper bound of an edge weight; also the "no candidate" weight.
WEIGHT_LIMIT = 1 << 62


def tie_key(u, v, w) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tie-breaking total-order key ``(w, min(u, v), max(u, v))``,
    priority first."""
    return w, np.minimum(u, v), np.maximum(u, v)


def lightest_per_group(group, u, v, w,
                       n_groups: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per group, the position of the smallest edge under :func:`tie_key`.

    Returns ``(groups, pick)`` as :func:`~repro.kernels.segmented.group_argmin`
    does: the ascending ids in ``[0, n_groups)`` that have rows and, for
    each, its lightest row, exactly-parallel duplicates going to the lowest
    position.
    """
    return group_argmin(group, tie_key(u, v, w), n_groups)


def _as_col(a) -> np.ndarray:
    """A contiguous integer column: integer dtypes kept, others -> int64.

    Preserving the caller's integer dtype is what lets the adaptive
    narrowing policy (``repro.kernels.dtypes``) flow through: a graph built
    from ``uint32`` columns stays ``uint32`` through take/concat/transport.
    """
    a = np.ascontiguousarray(a)
    if a.dtype.kind not in "iu":
        a = np.ascontiguousarray(a, dtype=np.int64)
    return a


class Edges:
    """A sequence of directed weighted edges as parallel integer arrays.

    Columns are ``int64`` by default; integer inputs keep their own dtype
    (the narrowing policy stores benchmark-scale graphs as ``uint32``).
    Simulated-machine byte accounting is unaffected by the storage width --
    every integer element counts as one logical 8-byte word (see
    ``repro.kernels.dtypes``).
    """

    __slots__ = ("u", "v", "w", "id", "_sorted_lex")

    def __init__(self, u, v, w, id=None):
        self.u = _as_col(u)
        self.v = _as_col(v)
        self.w = _as_col(w)
        if id is None:
            n = len(self.u)
            id = np.arange(n, dtype=index_dtype(max(n - 1, 0)))
        self.id = _as_col(id)
        self._sorted_lex = False
        n = len(self.u)
        if not (len(self.v) == len(self.w) == len(self.id) == n):
            raise ValueError("u, v, w, id must have equal length")

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "Edges":
        """An edge sequence of length zero."""
        z = np.empty(0, dtype=np.int64)
        return cls(z, z.copy(), z.copy(), z.copy())

    @classmethod
    def concat(cls, parts: Iterable["Edges"]) -> "Edges":
        """Concatenate edge sequences (order preserved, no re-sorting)."""
        parts = list(parts)
        if not parts:
            return cls.empty()
        # Zero-length parts contribute nothing but their dtype (an int64
        # Edges.empty() would silently widen narrow columns) -- drop them.
        nonempty = [p for p in parts if len(p)]
        if not nonempty:
            return cls.empty()
        return cls(
            np.concatenate([p.u for p in nonempty]),
            np.concatenate([p.v for p in nonempty]),
            np.concatenate([p.w for p in nonempty]),
            np.concatenate([p.id for p in nonempty]),
        )

    def __len__(self) -> int:
        return len(self.u)

    def take(self, idx) -> "Edges":
        """Subset / reorder by integer or boolean index."""
        if isinstance(idx, np.ndarray) and idx.dtype == bool:
            # Select by index, not by mask (docs/kernels.md).
            if idx.shape != self.u.shape:
                raise IndexError("boolean index does not match the edges")
            idx = np.flatnonzero(idx)
        # The columns are already integer and equally long; skip __init__'s
        # re-coercion (ascontiguousarray is still needed for strided slices).
        e = object.__new__(Edges)
        e.u = np.ascontiguousarray(self.u[idx])
        e.v = np.ascontiguousarray(self.v[idx])
        e.w = np.ascontiguousarray(self.w[idx])
        e.id = np.ascontiguousarray(self.id[idx])
        e._sorted_lex = False
        return e

    def copy(self) -> "Edges":
        """A deep copy (all four arrays duplicated)."""
        e = Edges(self.u.copy(), self.v.copy(), self.w.copy(), self.id.copy())
        e._sorted_lex = self._sorted_lex
        return e

    # ------------------------------------------------------------------
    # Ordering.
    # ------------------------------------------------------------------
    def lex_order(self) -> np.ndarray:
        """Permutation sorting by the paper's lexicographic order (u, v, w)."""
        return packed_lexsort((self.w, self.v, self.u))

    def sort_lex(self) -> "Edges":
        """Sorted copy in lexicographic (u, v, w) order.

        When the sequence is already *known* sorted (cached flag set by a
        previous sort or verify) the O(m log m) sort collapses to an O(m)
        copy; the result is still a fresh object the caller may mutate.
        """
        if self._sorted_lex:
            return self.copy()
        e = self.take(self.lex_order())
        e._sorted_lex = True
        return e

    def is_sorted_lex(self, force: bool = False) -> bool:
        """Whether the sequence is in lexicographic (u, v, w) order.

        A positive answer is cached (columns are never mutated in place
        anywhere in the tree; only ``id`` is, which the order ignores).
        ``force=True`` re-verifies even when the cached flag is set -- the
        sanitizer uses it so its checks never become vacuous.
        """
        if self._sorted_lex and not force:
            return True
        ok = self._verify_sorted_lex()
        if ok:
            self._sorted_lex = True
        return ok

    def _verify_sorted_lex(self) -> bool:
        # Comparison-based on purpose: np.diff on uint32 columns wraps.
        if len(self) <= 1:
            return True
        u, v, w = self.u, self.v, self.w
        u0, u1 = u[:-1], u[1:]
        if (u1 < u0).any():
            return False
        eq = u1 == u0
        v0, v1 = v[:-1], v[1:]
        if ((v1 < v0) & eq).any():
            return False
        eq &= v1 == v0
        if ((w[1:] < w[:-1]) & eq).any():
            return False
        return True

    def tie_key(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Total-order key arrays (w, min(u,v), max(u,v)), priority first.

        Pass reversed to ``np.lexsort`` (which takes least-significant key
        first): ``np.lexsort(edges.tie_key()[::-1])``.
        """
        return tie_key(self.u, self.v, self.w)

    def weight_order(self) -> np.ndarray:
        """Permutation sorting by the tie-breaking total order."""
        w, cu, cv = self.tie_key()
        return packed_lexsort((cv, cu, w))

    # ------------------------------------------------------------------
    # Communication helpers.
    # ------------------------------------------------------------------
    N_COLS = 4

    def as_matrix(self) -> np.ndarray:
        """Pack into an ``(m, 4)`` matrix ``[u, v, w, id]`` for transport.

        The matrix dtype is the promotion of the four columns -- ``uint32``
        for a fully narrowed graph, halving the bytes the host shuffles
        (simulated byte counts stay at 8 logical bytes per element either
        way).
        """
        dt = np.result_type(self.u, self.v, self.w, self.id)
        out = np.empty((len(self), self.N_COLS), dtype=dt)
        out[:, 0] = self.u
        out[:, 1] = self.v
        out[:, 2] = self.w
        out[:, 3] = self.id
        return out

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "Edges":
        """Unpack an ``(m, 4)`` transport matrix back into an edge sequence."""
        mat = np.asarray(mat)
        if mat.dtype.kind not in "iu":
            mat = mat.astype(np.int64)
        mat = mat.reshape(-1, cls.N_COLS)
        return cls(mat[:, 0], mat[:, 1], mat[:, 2], mat[:, 3])

    # ------------------------------------------------------------------
    # Structure helpers.
    # ------------------------------------------------------------------
    def with_back_edges(self) -> "Edges":
        """Union with the reversed edges (making the sequence symmetric)."""
        return Edges(
            np.concatenate([self.u, self.v]),
            np.concatenate([self.v, self.u]),
            np.concatenate([self.w, self.w]),
            np.concatenate([self.id, self.id]),
        )

    def canonical_triples(self) -> np.ndarray:
        """Sorted (w, min(u,v), max(u,v)) rows -- the *undirected* multiset.

        Two MSF computations agree iff these arrays are equal (weights alone
        are enough for optimality checks; the triples additionally pin the
        edge set up to exactly-parallel duplicates).
        """
        w, cu, cv = self.tie_key()
        trip = np.stack([w, cu, cv], axis=1)
        order = packed_lexsort((cv, cu, w))
        return trip[order]

    def total_weight(self) -> int:
        """Sum of the weight column."""
        return int(self.w.sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Edges(m={len(self)})"
