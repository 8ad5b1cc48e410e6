"""The Karger-Klein-Tarjan randomised linear-time MST algorithm [12].

The paper's conclusion points here: "single Borůvka rounds are also an
important part of more sophisticated MST algorithms with better performance
guarantees like the expected linear time algorithm [12] ... we believe that
the algorithmic building blocks developed in this work can also be of
interest for distributed implementations of such more complex MST
algorithms."  This module provides the sequential KKT built from the same
Borůvka-round machinery, plus the forest-path maximum-weight oracle
(:func:`max_weight_on_paths`, via binary lifting) that powers its F-heavy
edge filtering -- the piece Filter-Kruskal replaces with its simpler
pivot-based filter.

Algorithm (expected O(m)):

1. two Borůvka rounds contract the graph (edges selected there are MST
   edges; the vertex count at least quarters);
2. sample each remaining edge independently with probability 1/2 -> H;
3. recursively compute the MSF F of H;
4. discard every remaining edge that is *F-heavy* (heavier than the
   maximum-weight edge on the F-path between its endpoints -- the cycle
   property proves such edges are in no MSF);
5. recurse on the survivors and return those MST edges plus step 1's.
"""

from __future__ import annotations

import numpy as np

from ..dgraph.edges import WEIGHT_LIMIT, Edges
from .boruvka import boruvka_msf, boruvka_round

#: Sentinel for "endpoints disconnected in the forest": above every weight.
NO_PATH = np.int64(WEIGHT_LIMIT)


def _forest_structure(forest: Edges, n: int):
    """Root every tree of the forest; returns (parent, parent_w, depth)."""
    parent = np.full(n, -1, dtype=np.int64)
    parent_w = np.zeros(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    if len(forest) == 0:
        return parent, parent_w, depth
    # CSR adjacency of the forest.
    u = np.concatenate([forest.u, forest.v])
    v = np.concatenate([forest.v, forest.u])
    w = np.concatenate([forest.w, forest.w])
    order = np.argsort(u, kind="stable")
    u, v, w = u[order], v[order], w[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, u + 1, 1)
    np.cumsum(indptr, out=indptr)

    visited = np.zeros(n, dtype=bool)
    for root in np.unique(forest.u):
        root = int(root)
        if visited[root]:
            continue
        visited[root] = True
        parent[root] = root
        stack = [root]
        while stack:
            x = stack.pop()
            for k in range(indptr[x], indptr[x + 1]):
                y = int(v[k])
                if not visited[y]:
                    visited[y] = True
                    parent[y] = x
                    parent_w[y] = w[k]
                    depth[y] = depth[x] + 1
                    stack.append(y)
    return parent, parent_w, depth


def max_weight_on_paths(forest: Edges, n: int, qu: np.ndarray,
                        qv: np.ndarray) -> np.ndarray:
    """Maximum edge weight on the forest path between each query pair.

    Vectorised binary lifting: ``O((n + q) log n)``.  Disconnected pairs
    yield :data:`NO_PATH`.
    """
    qu = np.asarray(qu, dtype=np.int64)
    qv = np.asarray(qv, dtype=np.int64)
    parent, parent_w, depth = _forest_structure(forest, n)
    isolated = parent < 0
    parent = np.where(isolated, np.arange(n), parent)

    levels = max(1, int(np.ceil(np.log2(max(n, 2)))))
    up = np.empty((levels, n), dtype=np.int64)
    mx = np.zeros((levels, n), dtype=np.int64)
    up[0] = parent
    mx[0] = parent_w
    for k in range(1, levels):
        up[k] = up[k - 1][up[k - 1]]
        mx[k] = np.maximum(mx[k - 1], mx[k - 1][up[k - 1]])

    a, b = qu.copy(), qv.copy()
    best = np.zeros(len(a), dtype=np.int64)
    # Equalise depths.
    for k in range(levels - 1, -1, -1):
        step = np.int64(1) << k
        deeper_a = depth[a] - depth[b] >= step
        best[deeper_a] = np.maximum(best[deeper_a], mx[k][a[deeper_a]])
        a[deeper_a] = up[k][a[deeper_a]]
        deeper_b = depth[b] - depth[a] >= step
        best[deeper_b] = np.maximum(best[deeper_b], mx[k][b[deeper_b]])
        b[deeper_b] = up[k][b[deeper_b]]
    # Lift both sides to just below the LCA.
    for k in range(levels - 1, -1, -1):
        move = (a != b) & (up[k][a] != up[k][b])
        best[move] = np.maximum(best[move],
                                np.maximum(mx[k][a[move]], mx[k][b[move]]))
        a[move] = up[k][a[move]]
        b[move] = up[k][b[move]]
    last = a != b
    final_same = up[0][a] == up[0][b]
    step_ok = last & final_same
    best[step_ok] = np.maximum(
        best[step_ok], np.maximum(mx[0][a[step_ok]], mx[0][b[step_ok]]))
    a[step_ok] = up[0][a[step_ok]]
    b[step_ok] = up[0][b[step_ok]]
    disconnected = a != b
    best[disconnected] = NO_PATH
    best[qu == qv] = 0
    return best


def kkt_msf(edges: Edges, n_vertices: int,
            rng: np.random.Generator | None = None,
            base_case_size: int = 64) -> Edges:
    """Minimum spanning forest via Karger-Klein-Tarjan [12]."""
    if rng is None:
        rng = np.random.default_rng(0)
    n = int(n_vertices)
    if len(edges) == 0 or n == 0:
        return Edges.empty()

    def recurse(e: Edges, depth: int) -> np.ndarray:
        """Returns positions (into the *original* id space carried in e.id)."""
        if len(e) == 0:
            return np.empty(0, dtype=np.int64)
        if len(e) <= base_case_size or depth > 64:
            return boruvka_msf(e, n).id

        # Step 1: two Borůvka rounds.
        labels = np.arange(n, dtype=np.int64)
        picked = []
        for _ in range(2):
            chosen, labels = boruvka_round(e, labels)
            picked.append(e.id[chosen])
        a = labels[e.u]
        b = labels[e.v]
        alive = a != b
        contracted = Edges(a[alive], b[alive], e.w[alive], e.id[alive])
        if len(contracted) == 0:
            return np.concatenate(picked)

        # Step 2+3: sample half the edges, recurse for the filter forest F.
        sampled = rng.random(len(contracted)) < 0.5
        h = contracted.take(sampled)
        f_ids = recurse(h, depth + 1)
        in_f = np.isin(contracted.id, f_ids)
        forest = contracted.take(in_f)

        # Step 4: discard F-heavy edges (cycle property).
        rest = contracted.take(~in_f)
        path_max = max_weight_on_paths(forest, n, rest.u, rest.v)
        light = rest.take(rest.w <= path_max)

        # Step 5: recurse on F union the light survivors.
        survivors = Edges.concat([forest, light])
        t_ids = recurse(survivors, depth + 1)
        return np.concatenate(picked + [t_ids])

    # Carry original positions in the id column.
    work = Edges(edges.u, edges.v, edges.w,
                 np.arange(len(edges), dtype=np.int64))
    positions = np.unique(recurse(work, 0))
    return edges.take(positions)
