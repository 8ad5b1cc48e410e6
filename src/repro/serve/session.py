"""Long-lived MST-as-a-service sessions (docs/serving.md).

A :class:`GraphSession` owns a persistent simulated
:class:`~repro.simmpi.machine.Machine`, the current undirected edge list
of the served graph, and a versioned minimum spanning forest.  Mutations
arrive as *epochs* -- batches of edge inserts/deletes -- and each commit
recomputes the MSF through the cheapest applicable strategy in
:mod:`repro.serve.incremental` (noop / sparsified / replay), always
landing on the exact from-scratch MSF weight; the from-scratch run
(``full``) is the initial build and :meth:`GraphSession.recompute_full`.
The published view is all the state an epoch needs -- no run history is
kept between commits.

Queries never touch the machine: every commit publishes an immutable
:class:`SessionView` (edge list, forest, weight, component labels) and
readers grab ``session.view`` in one atomic attribute fetch, so a
multi-reader/single-writer queue (:mod:`repro.serve.queue`) needs no
locks on the read path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import BoruvkaConfig
from ..dgraph.edges import WEIGHT_LIMIT, Edges
from ..simmpi.machine import Machine
from . import incremental


class MutationError(ValueError):
    """A mutation request failed validation; the epoch excludes it."""


@dataclass(frozen=True)
class SessionView:
    """Immutable published state of one MSF version.

    Everything a query op needs lives here; the writer builds a complete
    new view off to the side and publishes it with one reference swap.
    """

    version: int
    n_vertices: int
    #: Directed edge list, sorted (u, v, w) with positional ids.
    edges: Edges
    #: Sorted directed pair codes ``u * n + v`` aligned with ``edges``.
    codes: np.ndarray
    #: Canonical (u < v) forest edge arrays.
    forest_u: np.ndarray
    forest_v: np.ndarray
    forest_w: np.ndarray
    #: Sorted canonical forest pair codes ``min*n + max``.
    forest_codes: np.ndarray
    total_weight: int
    n_components: int
    #: Per vertex, the smallest vertex of its component: a component
    #: keeps its label across versions that leave it unchanged.
    component_of: np.ndarray

    @property
    def n_undirected_edges(self) -> int:
        """Undirected edge count (the directed list stores both halves)."""
        return len(self.edges) // 2

    def has_pair(self, u: int, v: int) -> bool:
        """Whether undirected edge {u, v} is in the current graph."""
        return self._find_code(int(u) * self.n_vertices + int(v)) >= 0

    def pair_weight(self, u: int, v: int) -> Optional[int]:
        """Weight of {u, v}, or None when absent."""
        pos = self._find_code(int(u) * self.n_vertices + int(v))
        return int(self.edges.w[pos]) if pos >= 0 else None

    def edge_in_msf(self, u: int, v: int) -> bool:
        """Whether {u, v} is one of this version's forest edges."""
        a, b = (u, v) if u <= v else (v, u)
        code = int(a) * self.n_vertices + int(b)
        pos = int(np.searchsorted(self.forest_codes, code))
        return pos < len(self.forest_codes) \
            and int(self.forest_codes[pos]) == code

    def _find_code(self, code: int) -> int:
        pos = int(np.searchsorted(self.codes, code))
        if pos < len(self.codes) and int(self.codes[pos]) == code:
            return pos
        return -1


@dataclass
class EpochReport:
    """What one committed epoch did (per-request metrics + ledger)."""

    version: int
    strategy: str
    n_inserted: int
    n_deleted: int
    total_weight: int
    #: Simulated seconds spent by this epoch's distributed runs.
    simulated_seconds: float
    #: Non-tree edges re-offered across the cut (replay strategy only):
    #: what explains a slow forest-edge-delete epoch.
    n_reoffered: int = 0
    extra: Dict = field(default_factory=dict)


class GraphSession:
    """A persistent served graph: machine + edges + versioned MSF."""

    def __init__(
        self,
        n_vertices: int,
        edges: Optional[Sequence] = None,
        *,
        n_procs: int = 8,
        threads: int = 1,
        seed: int = 0,
        cfg: Optional[BoruvkaConfig] = None,
        faults=None,
        machine: Optional[Machine] = None,
    ):
        if n_vertices < 1:
            raise ValueError("n_vertices must be >= 1")
        self.n_vertices = int(n_vertices)
        self.cfg = cfg or BoruvkaConfig()
        self.machine = machine or Machine(n_procs, threads=threads,
                                          seed=seed, faults=faults)
        self._owns_machine = machine is None
        # Single-writer discipline: every state transition happens under
        # this lock; readers only ever touch the published view.
        self._write_lock = threading.Lock()
        self.epoch_counts: Dict[str, int] = {}
        self.total_simulated_seconds = 0.0

        u, v, w = _triples(edges)
        _validate_endpoints(u, v, w, self.n_vertices)
        if len(np.unique(np.minimum(u, v) * self.n_vertices
                         + np.maximum(u, v))) != len(u):
            raise ValueError("initial edge list contains duplicate pairs")
        directed = incremental.symmetrized_edges(u, v, w)
        self.view: SessionView = None  # published below
        self.total_simulated_seconds += self._install_full(directed)

    # -- queries (thread-safe: operate on an immutable view) -----------
    def msf_weight(self) -> Dict:
        """Current MSF weight plus the view version it belongs to."""
        view = self.view
        return {"weight": view.total_weight, "version": view.version}

    def components(self, vertices: Optional[Sequence[int]] = None) -> Dict:
        """Component count, plus per-vertex labels when asked for."""
        view = self.view
        out = {"n_components": view.n_components, "version": view.version}
        if vertices is not None:
            try:
                vs = [_int(x, "vertex ids") for x in vertices]
            except TypeError:
                raise MutationError("vertices must be a list") from None
            if not all(0 <= x < view.n_vertices for x in vs):
                raise MutationError("vertex id out of range")
            out["component_of"] = [int(c) for c in view.component_of[vs]]
        return out

    def edge_in_msf(self, u: int, v: int) -> Dict:
        """Whether {u, v} is present in the graph and in the forest."""
        view = self.view
        u, v = _check_pair(u, v, view.n_vertices)
        return {
            "present": view.has_pair(u, v),
            "in_msf": view.edge_in_msf(u, v),
            "version": view.version,
        }

    def stats(self) -> Dict:
        """Session-lifetime counters: sizes, epochs, simulated seconds."""
        view = self.view
        return {
            "version": view.version,
            "n_vertices": view.n_vertices,
            "n_edges": view.n_undirected_edges,
            "n_components": view.n_components,
            "weight": view.total_weight,
            "algorithm": "boruvka",
            "n_procs": self.machine.n_procs,
            "epochs": dict(self.epoch_counts),
            "simulated_seconds": self.total_simulated_seconds,
        }

    # -- mutations (single writer) -------------------------------------
    def apply_epoch(self, ops: Sequence[Tuple[str, Sequence]]
                    ) -> Tuple[List[Optional[str]], Optional[EpochReport]]:
        """Validate + apply one epoch of mutation requests.

        ``ops`` is a list of ``("insert"|"delete", edge_rows)`` in arrival
        order.  Each request is all-or-nothing: validated against the
        current graph plus the cumulative effect of earlier *valid*
        requests in the same epoch; an invalid request contributes
        nothing and gets its error message in the outcome slot (None =
        accepted).  Returns the outcomes plus an :class:`EpochReport`
        (None when every request failed or the net batch is empty).
        """
        with self._write_lock:
            view = self.view
            # code -> (u, v, w) staged inserts; code -> row pair indices
            # staged deletes (cumulative across accepted requests).
            pending_ins: Dict[int, Tuple[int, int, int]] = {}
            pending_del: Dict[int, Tuple[int, int]] = {}
            outcomes: List[Optional[str]] = []
            for kind, rows in ops:
                try:
                    staged = self._stage(view, kind, rows,
                                         pending_ins, pending_del)
                except MutationError as exc:
                    outcomes.append(str(exc))
                    continue
                for code, payload in staged:
                    if payload is None:
                        pending_ins.pop(code, None)
                    elif len(payload) == 3:
                        pending_ins[code] = payload
                    else:
                        pending_del[code] = payload
                outcomes.append(None)
            if not pending_ins and not pending_del:
                return outcomes, None
            report = self._commit(view, pending_ins, pending_del)
            return outcomes, report

    def recompute_full(self) -> EpochReport:
        """Force a from-scratch recompute of the current graph."""
        with self._write_lock:
            view = self.view
            simulated = self._install_full(view.edges.copy(),
                                           version=view.version + 1)
            self.total_simulated_seconds += simulated
            report = EpochReport(
                version=self.view.version, strategy="full",
                n_inserted=0, n_deleted=0,
                total_weight=self.view.total_weight,
                simulated_seconds=simulated,
            )
            self._note_epoch(report)
            return report

    def close(self) -> None:
        """Release the machine (only when this session created it)."""
        if self._owns_machine:
            self.machine.close()

    def __enter__(self) -> "GraphSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- epoch internals ------------------------------------------------
    def _stage(self, view, kind, rows, pending_ins, pending_del):
        """Validate one request; return its staged (code, payload) effects.

        Payloads: a 3-tuple stages an insert, a 2-tuple stages a delete,
        ``None`` cancels a pending insert (delete of a not-yet-committed
        edge).  Raises :class:`MutationError` without side effects.
        """
        staged = []
        seen = set()
        if not isinstance(rows, list):
            raise MutationError("mutation rows must be a list")
        if kind == "insert":
            for row in rows:
                u, v, w = _check_insert(row, view.n_vertices)
                code = min(u, v) * view.n_vertices + max(u, v)
                if code in seen:
                    raise MutationError(
                        f"duplicate edge ({u}, {v}) in one request")
                seen.add(code)
                exists = view.has_pair(min(u, v), max(u, v))
                if code in pending_ins or (exists
                                           and code not in pending_del):
                    raise MutationError(f"edge ({u}, {v}) already exists")
                staged.append((code, (u, v, w)))
        elif kind == "delete":
            for row in rows:
                u, v = _check_pair(
                    *_row(row, 2, "delete rows must be [u, v]"),
                    view.n_vertices)
                code = u * view.n_vertices + v
                if code in seen:
                    raise MutationError(
                        f"duplicate edge ({u}, {v}) in one request")
                seen.add(code)
                if code in pending_ins:
                    staged.append((code, None))  # cancels the insert
                elif code in pending_del:
                    raise MutationError(
                        f"edge ({u}, {v}) already deleted this epoch")
                elif view.has_pair(u, v):
                    staged.append((code, (u, v)))
                else:
                    raise MutationError(f"edge ({u}, {v}) does not exist")
        else:
            raise MutationError(f"unknown mutation kind {kind!r}")
        return staged

    def _commit(self, view: SessionView, pending_ins, pending_del
                ) -> EpochReport:
        """Apply the net batch: pick a strategy, recompute, publish."""
        del_pairs = np.array(sorted(pending_del.values()),
                             dtype=np.int64).reshape(-1, 2)
        ins_rows = np.array(sorted(pending_ins.values()),
                            dtype=np.int64).reshape(-1, 3)
        # Locate both directed rows of every deleted pair.
        del_rows = _directed_rows(view, del_pairs)

        strategy, result, n_reoffered = self._recompute(
            view, del_pairs, del_rows, ins_rows)
        if result is None:
            forest = (view.forest_u, view.forest_v, view.forest_w)
            total, simulated = view.total_weight, 0.0
        else:
            *forest, total = _forest_of(result)
            simulated = result.elapsed
        self.total_simulated_seconds += simulated
        # The view swap is the last step: a recompute that raised above
        # published nothing.
        self._publish(*_merged(view, del_rows, ins_rows),
                      forest=forest, total_weight=total,
                      version=view.version + 1)
        report = EpochReport(
            version=self.view.version,
            strategy=strategy,
            n_inserted=len(ins_rows),
            n_deleted=len(del_pairs),
            total_weight=self.view.total_weight,
            simulated_seconds=simulated,
            n_reoffered=n_reoffered,
        )
        self._note_epoch(report)
        return report

    def _recompute(self, view, del_pairs, del_rows, ins_rows):
        """Strategy ladder: ``(name, result, n_reoffered)``.

        ``result`` is None when the published forest stands (noop).
        """
        tree_hit = any(view.edge_in_msf(int(a), int(b))
                       for a, b in del_pairs)
        if not tree_hit and len(ins_rows) == 0:
            return "noop", None, 0
        if not tree_hit:
            return "sparsified", incremental.sparsified_recompute(
                self.machine, view.forest_u, view.forest_v, view.forest_w,
                ins_rows[:, 0], ins_rows[:, 1], ins_rows[:, 2],
                self.cfg), 0
        plan = incremental.plan_replay(view, del_pairs, del_rows)
        return "replay", incremental.replay_recompute(
            self.machine, view, plan, ins_rows, self.cfg), len(plan[1])

    def _install_full(self, directed: Edges, version: int = 0) -> float:
        """Full recompute on ``directed``; publish a view.

        Returns the run's simulated seconds.
        """
        result = incremental.full_recompute(self.machine, directed,
                                            self.cfg)
        *forest, total = _forest_of(result)
        codes = directed.u.astype(np.int64) * self.n_vertices \
            + directed.v.astype(np.int64)
        self._publish(directed, codes, forest=forest, total_weight=total,
                      version=version)
        return result.elapsed

    def _publish(self, edges: Edges, codes: np.ndarray, *, forest,
                 total_weight: int, version: int) -> None:
        fu, fv, fw = (np.asarray(a, dtype=np.int64) for a in forest)
        lo, hi = np.minimum(fu, fv), np.maximum(fu, fv)
        order = np.argsort(lo * self.n_vertices + hi, kind="stable")
        component_of = incremental.component_labels(self.n_vertices, fu, fv)
        self.view = SessionView(
            version=version,
            n_vertices=self.n_vertices,
            edges=edges,
            codes=codes,
            forest_u=lo[order], forest_v=hi[order], forest_w=fw[order],
            forest_codes=(lo * self.n_vertices + hi)[order],
            total_weight=int(total_weight),
            n_components=int(np.count_nonzero(
                component_of == np.arange(self.n_vertices))),
            component_of=component_of,
        )

    def _note_epoch(self, report: EpochReport) -> None:
        self.epoch_counts[report.strategy] = \
            self.epoch_counts.get(report.strategy, 0) + 1


# -- module helpers -----------------------------------------------------

def _triples(edges) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    if edges is None:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy(), z.copy()
    if isinstance(edges, Edges):
        half = edges.u < edges.v
        return (edges.u[half].astype(np.int64),
                edges.v[half].astype(np.int64),
                edges.w[half].astype(np.int64))
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    return arr[:, 0], arr[:, 1], arr[:, 2]


_WEIGHT_RANGE = "edge weights must be positive integers below 2^62"


def _validate_endpoints(u, v, w, n) -> None:
    if len(u) == 0:
        return
    if u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n:
        raise ValueError("edge endpoint out of range")
    if (u == v).any():
        raise ValueError("self loops are not allowed")
    if w.min() <= 0 or w.max() >= WEIGHT_LIMIT:
        raise ValueError(_WEIGHT_RANGE)


def _int(x, what: str) -> int:
    """``x`` as an int; floats, strings and bools are refused, not coerced."""
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise MutationError(f"{what} must be integers")
    return int(x)


def _row(row, width: int, shape: str) -> Sequence:
    if not isinstance(row, (list, tuple)) or len(row) != width:
        raise MutationError(shape)
    return row


def _check_pair(u, v, n) -> Tuple[int, int]:
    u, v = _int(u, "endpoints"), _int(v, "endpoints")
    if not (0 <= u < n and 0 <= v < n):
        raise MutationError(f"endpoint out of range for n={n}")
    if u == v:
        raise MutationError("self loops are not allowed")
    return (u, v) if u <= v else (v, u)


def _check_insert(row, n) -> Tuple[int, int, int]:
    row = _row(row, 3, "insert rows must be [u, v, w]")
    u, v = _check_pair(row[0], row[1], n)
    w = _int(row[2], "weights")
    if not (0 < w < WEIGHT_LIMIT):
        raise MutationError(_WEIGHT_RANGE)
    return u, v, w


def _directed_rows(view: SessionView, del_pairs: np.ndarray) -> np.ndarray:
    """Row indices of both directed halves of the deleted pairs."""
    if len(del_pairs) == 0:
        return np.empty(0, dtype=np.int64)
    n = view.n_vertices
    a, b = del_pairs[:, 0], del_pairs[:, 1]
    fwd = np.searchsorted(view.codes, a * n + b)
    rev = np.searchsorted(view.codes, b * n + a)
    rows = np.concatenate([fwd, rev])
    if (rows >= len(view.codes)).any():
        raise MutationError("internal: deleted pair vanished")
    return rows


def _merged(view: SessionView, del_rows: np.ndarray, ins_rows: np.ndarray
            ) -> Tuple[Edges, np.ndarray]:
    """The directed edge list after the batch, and its pair codes.

    Pairs are unique, so (u, v) order is (u, v, w) order: the kept rows
    stay sorted, and the 2k directed inserted rows, sorted by pair code,
    go in at one ``searchsorted`` of their codes into the kept codes.  Each
    column is then filled by two scatters -- O(m + k), no sort over m.
    """
    n = view.n_vertices
    keep = np.ones(len(view.edges), dtype=bool)
    keep[del_rows] = False
    kept_codes = view.codes[keep]
    iu, iv, iw = (ins_rows[:, 0], ins_rows[:, 1], ins_rows[:, 2])
    ins_codes = np.concatenate([iu * n + iv, iv * n + iu])
    order = np.argsort(ins_codes)
    ins_codes = ins_codes[order]
    at = np.searchsorted(kept_codes, ins_codes) \
        + np.arange(len(ins_codes))
    slot = np.ones(len(kept_codes) + len(ins_codes), dtype=bool)
    slot[at] = False

    def merge(kept, inserted):
        out = np.empty(len(slot), dtype=np.int64)
        out[at] = inserted
        out[slot] = kept
        return out

    codes = merge(kept_codes, ins_codes)
    if (codes[1:] <= codes[:-1]).any():
        raise RuntimeError("internal: merged pair codes not increasing")
    edges = view.edges
    return Edges(merge(edges.u[keep], np.concatenate([iu, iv])[order]),
                 merge(edges.v[keep], np.concatenate([iv, iu])[order]),
                 merge(edges.w[keep], np.concatenate([iw, iw])[order])
                 ), codes


def _forest_of(result) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    msf = result.msf_edges()
    return (np.asarray(msf.u, dtype=np.int64),
            np.asarray(msf.v, dtype=np.int64),
            np.asarray(msf.w, dtype=np.int64),
            int(result.total_weight))
