"""Distributed MSF verification.

Verifying an MSF is asymptotically easier than computing one (Komlós: O(m)
comparisons), and the pieces are already here: the cycle property says a
spanning forest F of G is minimum iff **every non-forest edge is at least as
heavy as the heaviest edge on its F-path**.  This module checks a
distributed MSF result in three stages, each charged on the simulated
machine like any other distributed computation:

1. **forest check** -- |F| = (vertices incident to F) - (components of F),
   computed with one allgather of per-PE counts plus the connectivity
   machinery;
2. **spanning check** -- every *graph* edge's endpoints share an F-component
   (then G-components == F-components, since F ⊆ G);
3. **minimality check** -- the forest (at most n-1 edges, tiny next to m) is
   replicated with an allgather — the same replication trick as the base
   case (Section IV-D) — and every PE runs the binary-lifting path-maximum
   oracle (:func:`repro.seq.kkt.max_weight_on_paths`) over its own edge
   block.

Steps 2 and 3 run as one pass over the whole edge block (one search into
the forest's vertex set, one path-maximum call), each charged as one per-PE
scan vector; a PE's flag is whether none of its rows failed.

Weights-only comparisons make the check valid for *any* MSF under ties, not
just the one our tie-breaking selects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import Edges
from ..seq.kkt import NO_PATH, max_weight_on_paths
from ..seq.union_find import UnionFind
from .state import MSTRun
from .config import BoruvkaConfig


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_distributed_msf`."""

    is_forest: bool
    spans: bool
    is_minimum: bool
    n_forest_edges: int
    n_components: int
    elapsed: float

    @property
    def ok(self) -> bool:
        """All three checks passed: the candidate is a true MSF."""
        return self.is_forest and self.spans and self.is_minimum


def verify_distributed_msf(
    graph: DistGraph,
    msf_parts: List[Edges],
    cfg: BoruvkaConfig | None = None,
) -> VerificationReport:
    """Check that per-PE MSF edges form a minimum spanning forest of ``graph``.

    ``graph`` must be the *original* distributed graph (the MST drivers
    consume their input, so verification needs a fresh
    :class:`~repro.dgraph.dist_graph.DistGraph` over the same edges --
    exactly what a real system would keep for auditing).
    """
    machine = graph.machine
    p = machine.n_procs
    cfg = cfg or BoruvkaConfig()
    run = MSTRun(machine, cfg)
    start = machine.elapsed()

    # ---- Replicate the forest (allgather; |F| <= n-1 edges). ----
    forest_global = Edges.from_matrix(
        run.comm.allgatherv([part.as_matrix() for part in msf_parts])
    )
    n_forest_edges = len(forest_global)

    # Dense-remap forest vertices for the union-find / oracle (replicated
    # computation, charged per PE).
    vlabels = np.unique(np.concatenate([forest_global.u, forest_global.v])) \
        if n_forest_edges else np.empty(0, dtype=np.int64)
    machine.charge_sort(np.full(p, max(n_forest_edges, 1)))
    n_dense = len(vlabels)
    fu = np.searchsorted(vlabels, forest_global.u)
    fv = np.searchsorted(vlabels, forest_global.v)

    # ---- 1. Forest: unions along F must never close a cycle. ----
    uf = UnionFind(n_dense)
    acyclic = bool(uf.union_edges(fu, fv).all()) if n_forest_edges else True
    n_components = uf.n_components
    machine.charge_scan(np.full(p, max(n_forest_edges, 1)))

    # ---- 2. Spanning: every graph edge stays inside one F-component. ----
    # Vertices never touched by F are isolated iff they have no edges; any
    # edge with an endpoint outside F's vertex set disproves spanning.  One
    # pass over the whole block; each PE's flag is "no bad row of mine".
    e, pes = graph.edges, graph.row_pes()
    sizes = np.diff(graph.offsets)
    last = max(n_dense - 1, 0)
    iu = np.minimum(np.searchsorted(vlabels, e.u), last)
    iv = np.minimum(np.searchsorted(vlabels, e.v), last)
    if n_dense:
        spanned = (vlabels[iu] == e.u) & (vlabels[iv] == e.v)
        spanned[spanned] = (uf.find_many(iu[spanned])
                            == uf.find_many(iv[spanned]))
    else:
        spanned = np.zeros(len(e), dtype=bool)
    machine.charge_scan(sizes)
    spans = bool(run.comm.allreduce(_pe_flags(pes[~spanned], p), op="min"))

    # ---- 3. Minimality: cycle property on every PE's edge block. ----
    lighter_than_path = np.zeros(len(e), dtype=bool)
    if n_dense:
        dense_forest = Edges(fu, fv, forest_global.w, forest_global.id)
        path_max = max_weight_on_paths(dense_forest, n_dense, iu, iv)
        lighter_than_path = (path_max < NO_PATH) & (e.w < path_max)
        machine.charge_scan(sizes * max(1, int(np.log2(max(n_dense, 2)))))
    is_minimum = bool(run.comm.allreduce(
        _pe_flags(pes[lighter_than_path], p), op="min"))

    return VerificationReport(
        is_forest=acyclic,
        spans=spans,
        is_minimum=is_minimum and acyclic,
        n_forest_edges=n_forest_edges,
        n_components=n_components,
        elapsed=machine.elapsed() - start,
    )


def _pe_flags(bad_pes: np.ndarray, p: int) -> List[int]:
    """Every PE's check flag (1 = passed): whether no row of ``bad_pes``
    is its own."""
    return (np.bincount(bad_pes, minlength=p) == 0).astype(int).tolist()
