"""simsan: the SPMD runtime sanitizer (distribution & cost-invariant checker).

DESIGN.md Section 4 promises four invariants; until now invariants 2-4 were
only spot-checked.  This module enforces them *at runtime*, opt-in, on any
:class:`~repro.simmpi.machine.Machine`:

Distribution discipline (invariant 2)
    Per-PE numpy arrays registered with the sanitizer (the edge blocks of
    every :class:`~repro.dgraph.dist_graph.DistGraph`) are wrapped in
    :class:`PEArray` views that know their owning rank and are
    write-protected (``ndarray.flags.writeable = False``).  Driver code may
    only write a PE's arrays inside an explicit ``machine.on_pe(rank)``
    block for that same rank (or inside simmpi's own collective machinery);
    any other write raises :class:`DistributionViolation` naming the
    offending (writer, owner) PE pair.  Writes that bypass the wrapper
    (e.g. through ``arr.view(np.ndarray)`` or in-place ``ndarray`` methods)
    are still stopped by the read-only flag, just with numpy's plain
    ``ValueError``.

Cost accounting (invariant 4)
    * per-PE clocks are monotone: every ``Machine.charge`` must be
      non-negative and clocks never drop below the sanitizer's running
      floor (updated after every collective);
    * every collective charges **all** participant ranks with a strictly
      positive cost;
    * ``machine.bytes_communicated`` stays consistent with the per-pair
      byte matrix the sanitizer shadows from every exchange (the same data
      ``trace=True`` records, but kept internally so tracing semantics are
      unchanged);
    * the two-level all-to-all moves at most 2x the direct volume using
      groups of ``O(sqrt p)`` PEs (and the d-dimensional generalisation at
      most d-times the volume with groups of ``O(p^(1/d))``);
    * the hop count matrices an indirect all-to-all is charged from
      conserve rows hop to hop and its routing table ends at the
      destination (:meth:`Sanitizer.check_hops`);
    * the count matrices one level of the hypercube sorter is charged from
      account every row the level's single move carried
      (:meth:`Sanitizer.check_sort_level`).

Sortedness (invariant 3)
    After every REDISTRIBUTE the edge list must be globally
    lexicographically sorted and the replicated min-lex array must agree
    with the actual per-PE first edges (:meth:`Sanitizer.check_redistributed`,
    called from :func:`repro.core.redistribute.redistribute`).

Enable with ``Machine(..., sanitize=True)``, the ``REPRO_SIMSAN``
environment variable (picked up when ``sanitize`` is left at ``None``), the
``--simsan`` CLI flag, or the pytest ``--simsan`` option (on by default in
the test suite).  See docs/sanitizer.md for semantics and overhead.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

__all__ = [
    "SanitizerViolation",
    "DistributionViolation",
    "CostAccountingViolation",
    "SortednessViolation",
    "PEArray",
    "Sanitizer",
]

#: Sentinel key component used by DistGraph's replicated min-lex array.
_KEY_SENTINEL = np.iinfo(np.int64).max


class SanitizerViolation(RuntimeError):
    """Base class for every invariant violation simsan reports."""


class DistributionViolation(SanitizerViolation):
    """A PE's arrays were written outside its ``on_pe`` context.

    ``writer_pe`` is the rank whose context was active (``None`` when the
    write happened outside any ``on_pe`` block); ``owner_pe`` owns the
    violated array.
    """

    def __init__(self, writer_pe: Optional[int], owner_pe: int, op: str):
        self.writer_pe = writer_pe
        self.owner_pe = owner_pe
        self.op = op
        writer = (f"PE {writer_pe}" if writer_pe is not None
                  else "driver code outside any on_pe context")
        super().__init__(
            f"distribution discipline violated: {writer} wrote to "
            f"PE {owner_pe}'s array via {op}; per-PE state may only move "
            f"between PEs through simmpi communication calls"
        )


class CostAccountingViolation(SanitizerViolation):
    """Clocks went backwards, a participant was skipped, or volumes lie."""


class SortednessViolation(SanitizerViolation):
    """The distributed edge list broke invariant 3 after a redistribute."""


class PEArray(np.ndarray):
    """An ndarray view that knows which PE owns it.

    Write access (``__setitem__`` and ufunc ``out=`` targets) is checked
    against the sanitizer's active ``on_pe`` context; views keep the owner,
    copies (fancy indexing, ``.copy()``, arithmetic results) drop it and
    behave like plain arrays.
    """

    _simsan: Optional["Sanitizer"] = None
    _simsan_owner: Optional[int] = None

    def __array_finalize__(self, obj):
        if obj is None:
            return
        # Ownership follows *views* of the registered buffer only: copies
        # (including fancy-index results, which arrive as views of a fresh
        # intermediate buffer) are private memory and are unrestricted.
        if isinstance(obj, PEArray) and obj._simsan is not None \
                and self.base is not None and np.may_share_memory(self, obj):
            self._simsan = obj._simsan
            self._simsan_owner = obj._simsan_owner
        else:
            self._simsan = None
            self._simsan_owner = None

    def _check_write(self, op: str) -> None:
        san, owner = self._simsan, self._simsan_owner
        if san is not None and owner is not None:
            san.check_write(owner, op)

    def __setitem__(self, key, value):
        self._check_write("setitem")
        # The check authorised this write; the read-only flag is only the
        # backstop against raw (unwrapped) access, so lift it temporarily
        # for views created while the buffer was locked.
        if self.flags.writeable:
            np.ndarray.__setitem__(self, key, value)
            return
        try:
            self.flags.writeable = True
        except ValueError:
            np.ndarray.__setitem__(self, key, value)  # read-only base: raise
            return
        try:
            np.ndarray.__setitem__(self, key, value)
        finally:
            self.flags.writeable = False

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        # Delegate on plain views: ndarray's default implementation defers
        # (returns NotImplemented) whenever an operand overrides
        # __array_ufunc__, so results are computed -- and returned -- as
        # base-class arrays (copies carry no ownership anyway).
        unlocked = []
        if out:
            for o in out:
                if isinstance(o, PEArray):
                    o._check_write(f"ufunc:{ufunc.__name__}")
                    if not o.flags.writeable:
                        try:
                            o.flags.writeable = True
                            unlocked.append(o)
                        except ValueError:
                            pass  # read-only base: numpy will raise below
            kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, PEArray) else o
                for o in out)
        plain = tuple(i.view(np.ndarray) if isinstance(i, PEArray) else i
                      for i in inputs)
        try:
            return getattr(ufunc, method)(*plain, **kwargs)
        finally:
            for o in unlocked:
                o.flags.writeable = False


class Sanitizer:
    """Runtime invariant checker bound to one simulated machine.

    Created by ``Machine(..., sanitize=True)``; algorithms and the simmpi
    substrate call its hooks.  All checks raise a
    :class:`SanitizerViolation` subclass; ``counters`` records how many
    checks of each kind actually ran (useful to assert coverage in tests).
    """

    #: Relative tolerance for the bytes-vs-traced-matrix consistency check.
    BYTES_RTOL = 1e-6

    def __init__(self, machine):
        self.machine = machine
        p = machine.n_procs
        #: Rank whose ``on_pe`` context is active (None = driver code).
        self.current_pe: Optional[int] = None
        self._collective_depth = 0
        #: Weak refs to the registered wrapper views, per owning rank.
        self._arrays: Dict[int, List[weakref.ref]] = {}
        #: Shadow per-pair byte matrix (same data a CommTrace records).
        self.comm_matrix = np.zeros((p, p), dtype=np.float64)
        self._traced_bytes = 0.0
        #: Monotone per-PE clock floor, advanced after every collective.
        self._clock_floor = np.zeros(p, dtype=np.float64)
        self.counters: Dict[str, int] = {
            "write_checks": 0,
            "charges": 0,
            "collectives": 0,
            "exchanges": 0,
            "alltoall_bounds": 0,
            "hop_checks": 0,
            "sort_level_checks": 0,
            "redistribute_checks": 0,
            "checkpoints": 0,
        }

    def reset(self) -> None:
        """Forget accumulated state (mirrors ``Machine.reset``)."""
        self.comm_matrix[:] = 0.0
        self._traced_bytes = 0.0
        self._clock_floor[:] = 0.0

    # ------------------------------------------------------------------
    # Ownership tracking (invariant 2).
    # ------------------------------------------------------------------
    def wrap(self, pe: int, arr: np.ndarray) -> PEArray:
        """Register ``arr`` as PE ``pe``'s state; returns the locked view."""
        if isinstance(arr, PEArray) and arr._simsan is self \
                and arr._simsan_owner == pe:
            return arr
        view = np.asarray(arr).view(PEArray)
        view._simsan = self
        view._simsan_owner = pe
        try:
            view.flags.writeable = False
        except ValueError:  # base chain already read-only: stays locked
            pass
        self._arrays.setdefault(pe, []).append(weakref.ref(view))
        return view

    def adopt_edges(self, pe: int, edges) -> None:
        """Register all four arrays of an edge block as PE ``pe``'s state."""
        edges.u = self.wrap(pe, edges.u)
        edges.v = self.wrap(pe, edges.v)
        edges.w = self.wrap(pe, edges.w)
        edges.id = self.wrap(pe, edges.id)

    def _set_writeable(self, pe: int, flag: bool) -> List[np.ndarray]:
        toggled = []
        live = []
        for ref in self._arrays.get(pe, ()):
            arr = ref()
            if arr is None:
                continue
            live.append(ref)
            try:
                arr.flags.writeable = flag
                toggled.append(arr)
            except ValueError:
                pass  # view of a read-only base; wrapper check still applies
        self._arrays[pe] = live
        return toggled

    @contextmanager
    def on_pe(self, rank: int) -> Iterator[None]:
        """Execute the block as PE ``rank``: its arrays become writeable."""
        if not 0 <= rank < self.machine.n_procs:
            raise ValueError(f"on_pe rank {rank} out of range")
        prev = self.current_pe
        self.current_pe = rank
        unlocked = self._set_writeable(rank, True)
        try:
            yield
        finally:
            self.current_pe = prev
            if prev != rank:
                for arr in unlocked:
                    arr.flags.writeable = False

    @contextmanager
    def collective(self) -> Iterator[None]:
        """Mark a block as simmpi communication machinery (writes allowed)."""
        self._collective_depth += 1
        try:
            yield
        finally:
            self._collective_depth -= 1

    def check_write(self, owner: int, op: str) -> None:
        """Validate a write to PE ``owner``'s array (called by PEArray)."""
        self.counters["write_checks"] += 1
        if self._collective_depth > 0:
            return
        if self.current_pe == owner:
            return
        raise DistributionViolation(self.current_pe, owner, op)

    # ------------------------------------------------------------------
    # Cost accounting (invariant 4).
    # ------------------------------------------------------------------
    def on_charge(self, seconds, ranks=None) -> None:
        """Validate one ``Machine.charge`` (clock monotonicity)."""
        self.counters["charges"] += 1
        s = np.asarray(seconds, dtype=np.float64)
        if not np.all(np.isfinite(s)):
            raise CostAccountingViolation(
                f"non-finite charge {seconds!r}: clocks must stay finite")
        if np.any(s < 0):
            raise CostAccountingViolation(
                f"negative charge {seconds!r}: per-PE clocks must be "
                f"monotone (invariant 4)")

    def on_comm(self, ranks: np.ndarray, bytes_matrix: np.ndarray) -> None:
        """Shadow one exchange's per-pair byte volume."""
        self.counters["exchanges"] += 1
        self.comm_matrix[np.ix_(ranks, ranks)] += bytes_matrix
        self._traced_bytes += float(bytes_matrix.sum())

    def pre_collective(self, ranks: np.ndarray, per_rank_cost) -> None:
        """Validate one collective *before* its clocks are advanced."""
        self.counters["collectives"] += 1
        c = np.asarray(per_rank_cost, dtype=np.float64)
        if c.ndim > 0 and c.shape != (len(ranks),):
            raise CostAccountingViolation(
                f"collective charged {c.shape[0] if c.ndim else 1} ranks "
                f"but has {len(ranks)} participants: every collective must "
                f"charge all participant ranks")
        if not np.all(np.isfinite(c)) or np.any(c < 0):
            raise CostAccountingViolation(
                f"collective cost {per_rank_cost!r} is negative or "
                f"non-finite: clocks must be monotone")
        if np.any(c == 0):
            skipped = (np.asarray(ranks)[np.atleast_1d(c) == 0]
                       if c.ndim else np.asarray(ranks))
            raise CostAccountingViolation(
                f"collective skipped charging rank(s) {skipped.tolist()}: "
                f"every participant pays at least the startup cost")
        m = self.machine
        floor = self._clock_floor
        if np.any(m.clock < floor - 1e-12):
            bad = int(np.argmax(floor - m.clock))
            raise CostAccountingViolation(
                f"PE {bad}'s clock went backwards: {m.clock[bad]!r} is "
                f"below its previous value {floor[bad]!r}")
        drift = abs(m.bytes_communicated - self._traced_bytes)
        if drift > self.BYTES_RTOL * max(self._traced_bytes, 1.0):
            raise CostAccountingViolation(
                f"bytes_communicated ({m.bytes_communicated:.1f}) is "
                f"inconsistent with the traced per-pair matrix "
                f"({self._traced_bytes:.1f}): some exchange moved data "
                f"without accounting for it (or vice versa)")

    def post_collective(self, ranks: np.ndarray) -> None:
        """Advance the clock floor after a collective completed."""
        self._clock_floor[ranks] = self.machine.clock[ranks]

    def checkpoint(self, label: str = "") -> None:
        """Assert monotone progress at an algorithm-level checkpoint."""
        self.counters["checkpoints"] += 1
        m = self.machine
        if np.any(m.clock < self._clock_floor - 1e-12):
            bad = int(np.argmax(self._clock_floor - m.clock))
            raise CostAccountingViolation(
                f"checkpoint {label!r}: PE {bad}'s clock went backwards "
                f"({m.clock[bad]!r} < {self._clock_floor[bad]!r})")
        np.maximum(self._clock_floor, m.clock, out=self._clock_floor)

    def check_two_level(self, size: int, direct_rows: int,
                        hop_rows: Sequence[int],
                        group_sizes: Sequence[int]) -> None:
        """Bound the grid all-to-all: <= 2x volume, O(sqrt p) startups."""
        self.counters["alltoall_bounds"] += 1
        total = int(np.sum(hop_rows))
        if total > 2 * direct_rows:
            raise CostAccountingViolation(
                f"two-level all-to-all moved {total} rows for "
                f"{direct_rows} direct rows: must stay within 2x the "
                f"direct volume")
        bound = int(np.ceil(np.sqrt(size))) + 2
        for g in group_sizes:
            if g > bound:
                raise CostAccountingViolation(
                    f"two-level all-to-all used a group of {g} PEs on a "
                    f"{size}-PE machine: groups must stay O(sqrt p) "
                    f"(<= {bound})")

    def check_multilevel(self, size: int, d: int, direct_rows: int,
                         hop_rows: Sequence[int],
                         group_sizes: Sequence[int]) -> None:
        """Bound the d-dim all-to-all: <= d x volume, O(p^(1/d)) groups."""
        self.counters["alltoall_bounds"] += 1
        total = int(np.sum(hop_rows))
        if total > d * direct_rows:
            raise CostAccountingViolation(
                f"{d}-level all-to-all moved {total} rows for "
                f"{direct_rows} direct rows: must stay within {d}x the "
                f"direct volume")
        bound = int(np.ceil(size ** (1.0 / d))) + 2
        for g in group_sizes:
            if g > bound:
                raise CostAccountingViolation(
                    f"{d}-level all-to-all used a group of {g} PEs on a "
                    f"{size}-PE machine: groups must stay O(p^(1/{d})) "
                    f"(<= {bound})")

    def check_hops(self, direct_rows: int,
                   hop_matrices: Sequence[np.ndarray],
                   last_holder: np.ndarray) -> None:
        """Conservation across the accounted hops of an indirect all-to-all.

        The hops are charged from count matrices ``H_k`` derived from a
        routing table instead of from moved data, so the table is what can
        lie: every ``H_k`` (diagonal = rows staying put) must hold exactly
        the direct row count, what a rank sends in hop ``k`` is what it
        held after hop ``k - 1``, and the last table must be the
        destination (``last_holder[i, j] == j``).
        """
        self.counters["hop_checks"] += 1
        held = None
        for k, H in enumerate(hop_matrices):
            if int(H.sum()) != direct_rows:
                raise CostAccountingViolation(
                    f"indirect all-to-all hop {k} accounts {int(H.sum())} "
                    f"rows for {direct_rows} direct rows: every hop must "
                    f"carry each row exactly once")
            if held is not None and not np.array_equal(H.sum(axis=1), held):
                raise CostAccountingViolation(
                    f"indirect all-to-all hop {k} sends rows its ranks did "
                    f"not hold after hop {k - 1}")
            held = H.sum(axis=0)
        if not np.array_equal(
                last_holder, np.broadcast_to(np.arange(last_holder.shape[1]),
                                             last_holder.shape)):
            raise CostAccountingViolation(
                "indirect all-to-all routing table does not end at the "
                "destination rank of every (source, destination) cell")

    def check_sort_level(self, starts: Sequence[int],
                         matrices: Sequence[np.ndarray],
                         sent: np.ndarray, received: np.ndarray) -> None:
        """One level of the hypercube sorter charges what it moved.

        The sorter moves the rows of all sub-communicators of a level in
        one pass and charges every sub-communicator's exchange from its own
        count matrix, so the move is what can lie: a row sent outside its
        sub-communicator would be moved but never charged.  ``matrices[k]``
        covers the PEs from ``starts[k]`` on and must account, per sender
        and per receiver, exactly the rows those PEs held before (``sent``)
        and after (``received``) the move.
        """
        self.counters["sort_level_checks"] += 1
        for lo, M in zip(starts, matrices):
            lo = int(lo)
            hi = lo + len(M)
            if not (np.array_equal(M.sum(axis=1), sent[lo:hi])
                    and np.array_equal(M.sum(axis=0), received[lo:hi])):
                raise CostAccountingViolation(
                    f"hypercube sort level: the exchange of PEs "
                    f"[{lo}, {hi}) is charged for {int(M.sum())} rows but "
                    f"its PEs sent {int(sent[lo:hi].sum())} and received "
                    f"{int(received[lo:hi].sum())}: a row crossed its "
                    f"sub-communicator's boundary without being accounted")

    # ------------------------------------------------------------------
    # Sortedness (invariant 3).
    # ------------------------------------------------------------------
    def check_redistributed(self, graph) -> None:
        """Verify invariant 3 on a freshly redistributed graph.

        The distributed edge list must be locally and globally
        lexicographically sorted, and the replicated metadata (min-lex
        array, part sizes) must agree with the actual per-PE blocks.
        """
        self.counters["redistribute_checks"] += 1
        parts = graph.parts
        p = len(parts)
        prev_last = None
        for i, part in enumerate(parts):
            # force=True: re-verify even when the part carries a cached
            # known-sorted flag, so the sanitizer check stays non-vacuous.
            if not part.is_sorted_lex(force=True):
                raise SortednessViolation(
                    f"PE {i}: local edge block is not lexicographically "
                    f"sorted after redistribute")
            if int(graph.part_sizes[i]) != len(part):
                raise SortednessViolation(
                    f"PE {i}: replicated part size "
                    f"{int(graph.part_sizes[i])} disagrees with the actual "
                    f"block length {len(part)}")
            if len(part) == 0:
                continue
            first = (int(part.u[0]), int(part.v[0]), int(part.w[0]))
            if prev_last is not None and first < prev_last:
                raise SortednessViolation(
                    f"global sortedness violated at PE {i}: first edge "
                    f"{first} sorts before the previous non-empty PE's "
                    f"last edge {prev_last}")
            prev_last = (int(part.u[-1]), int(part.v[-1]), int(part.w[-1]))
        # Replicated min-lex agreement: every PE's key must equal the first
        # edge of the next non-empty part (sentinel past the last one).
        nk_u, nk_v, nk_w = graph.min_keys
        expected = (_KEY_SENTINEL, _KEY_SENTINEL, _KEY_SENTINEL)
        for i in range(p - 1, -1, -1):
            part = parts[i]
            if len(part):
                expected = (int(part.u[0]), int(part.v[0]), int(part.w[0]))
            actual = (int(nk_u[i]), int(nk_v[i]), int(nk_w[i]))
            if actual != expected:
                raise SortednessViolation(
                    f"replicated min-lex array disagrees at PE {i}: "
                    f"replicated {actual}, actual first edge {expected}")

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        done = {k: v for k, v in self.counters.items() if v}
        return f"Sanitizer(p={self.machine.n_procs}, checks={done})"
