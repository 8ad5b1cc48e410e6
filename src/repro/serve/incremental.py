"""Incremental MSF recompute strategies for serving epochs.

One edge-churn epoch turns a graph ``G`` with published forest ``F`` into
``(G \\ D) ∪ I``.  The session picks the cheapest strategy that provably
reproduces the from-scratch MSF *weight* bit-for-bit (docs/serving.md):

``noop``
    ``D`` hits no forest edge and ``I`` is empty.  Deleting non-tree
    edges never changes any minimum spanning forest (each deleted edge
    closes a cycle whose other edges are all retained), so the stored
    forest is already ``MSF(G \\ D)``.  Zero simulated work.

``sparsified``
    ``D`` hits no forest edge, ``I`` non-empty.  By the sparsification
    identity ``MSF((G \\ D) ∪ I) = MSF(MSF(G \\ D) ∪ I)`` (cycle
    property), one small distributed run over ``F ∪ I`` suffices.

``replay``
    ``D`` hits forest edges.  Replays the *rejected edges*, not the
    rounds: ``F \\ D ⊆ MSF(G \\ D)`` (cut property: a cut only loses
    competitors), and a surviving non-tree edge whose endpoints are still
    in one component of ``F \\ D`` is still the heaviest edge of an
    intact tree cycle (cycle property), so it stays rejected.  Only the
    set ``C`` of surviving non-tree edges *crossing* components of
    ``F \\ D`` can enter the forest, hence
    ``MSF((G \\ D) ∪ I) = MSF((F \\ D) ∪ C ∪ I)`` -- the same
    sparsification identity, on the same run.  It holds for every ``D``;
    a large ``D`` just grows ``C`` towards the whole edge list.

``full``
    The from-scratch run: session construction and ``recompute_full()``
    only; no epoch falls through to it.

MSF *weights* are unique for a given graph even under weight ties, so
every strategy yields the exact from-scratch weight; the forest's edge
set can legitimately differ from a fresh run's only where edges tie,
which the differential tests account for by pinning weight + component
structure rather than edge identity.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..core import BoruvkaConfig
from ..core.boruvka import MSTResult, distributed_boruvka
from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import Edges


def symmetrized_edges(u, v, w) -> Edges:
    """Both directed halves of undirected triples, sorted, positional ids."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.int64)
    edges = Edges(np.concatenate([u, v]), np.concatenate([v, u]),
                  np.concatenate([w, w]))
    edges = edges.sort_lex()
    edges.id[:] = np.arange(len(edges), dtype=edges.id.dtype)
    return edges


def component_labels(n: int, u, v) -> np.ndarray:
    """Per vertex, the smallest vertex of its component under edges (u, v).

    Hook-and-shortcut (the pointer-jumping connectivity of Shiloach and
    Vishkin, as in Baer et al. and Dhulipala et al.; PAPERS.md): each root
    hooks onto the smallest smaller root it shares an edge with
    (``np.minimum.at``), then pointer jumping runs to a fixed point;
    repeat until every edge's endpoints carry one label.  Labels only
    ever point at smaller vertices, so each component's smallest vertex
    stays its root, whatever the order of the edges.  Every pass hooks at
    least one root, so ``n`` passes bound the loop.
    """
    label = np.arange(n, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    for _ in range(n + 1):
        lu, lv = label[u], label[v]
        split = lu != lv
        if not split.any():
            return label
        u, v = u[split], v[split]
        lu, lv = lu[split], lv[split]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    raise RuntimeError("internal: hook-and-shortcut did not converge")


def _solve(machine, edges: Edges, cfg: BoruvkaConfig) -> MSTResult:
    """Distribute the directed list ``edges`` and run Algorithm 1 on it."""
    graph = DistGraph.from_global_edges(machine, edges, avoid_shared=True)
    return distributed_boruvka(graph, cfg)


def _solve_candidates(machine, candidates: Sequence[Tuple],
                      cfg: BoruvkaConfig) -> MSTResult:
    """MSF of the union of undirected ``(u, v, w)`` candidate sets.

    The one run both incremental strategies make, on a machine the caller
    has reset.
    """
    u, v, w = (np.concatenate([np.asarray(c[k], dtype=np.int64)
                               for c in candidates]) for k in range(3))
    return _solve(machine, symmetrized_edges(u, v, w), cfg)


def full_recompute(machine, edges: Edges, cfg: BoruvkaConfig) -> MSTResult:
    """From-scratch MSF of the directed edge list ``edges``."""
    machine.reset()
    return _solve(machine, edges, cfg)


def sparsified_recompute(machine, forest_u, forest_v, forest_w,
                         ins_u, ins_v, ins_w,
                         cfg: BoruvkaConfig) -> MSTResult:
    """MSF of (forest ∪ inserted edges) -- the sparsified epoch pass."""
    machine.reset()
    return _solve_candidates(machine, [(forest_u, forest_v, forest_w),
                                       (ins_u, ins_v, ins_w)], cfg)


def plan_replay(view, del_pairs: np.ndarray, del_rows: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """What a forest-edge delete must re-offer: ``(forest_keep, crossing)``.

    ``forest_keep`` masks the forest edges of ``view`` that survive the
    canonical (u < v) ``del_pairs``; ``crossing`` holds the rows of
    ``view.edges`` (its u < v half, ``del_rows`` excluded) whose
    endpoints lie in different components of the surviving forest -- the
    set ``C`` of the module docstring.  Host-side planning like the view
    publish: one :func:`component_labels` pass over at most n - 1 forest
    edges and one vectorised label comparison; nothing is charged here.
    """
    n = view.n_vertices
    forest_keep = ~np.isin(view.forest_codes,
                           del_pairs[:, 0] * n + del_pairs[:, 1])
    comp = component_labels(n, view.forest_u[forest_keep],
                            view.forest_v[forest_keep])
    edges = view.edges
    alive = edges.u < edges.v
    alive[del_rows] = False
    rows = np.flatnonzero(alive)
    crossing = rows[comp[edges.u[rows]] != comp[edges.v[rows]]]
    return forest_keep, crossing


def replay_recompute(machine, view, plan, ins_rows: np.ndarray,
                     cfg: BoruvkaConfig) -> MSTResult:
    """MSF of ``(F \\ D) ∪ C ∪ I`` from a :func:`plan_replay` plan.

    Simulated cost: the filter pass that finds ``C`` -- one scan of the
    four edge columns over each PE's block of the directed list -- plus
    the candidate run itself.
    """
    forest_keep, crossing = plan
    machine.reset()
    # Block sizes as DistGraph.from_global_edges cuts a directed list.
    blocks = np.diff(np.linspace(0, len(view.edges), machine.n_procs + 1)
                     .astype(np.int64))
    machine.charge_scan(4.0 * blocks)
    edges = view.edges
    return _solve_candidates(machine, [
        (view.forest_u[forest_keep], view.forest_v[forest_keep],
         view.forest_w[forest_keep]),
        (edges.u[crossing], edges.v[crossing], edges.w[crossing]),
        (ins_rows[:, 0], ins_rows[:, 1], ins_rows[:, 2]),
    ], cfg)
