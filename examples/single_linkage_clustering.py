"""Single-linkage clustering via distributed MST (paper application [3], [37]-[39]).

Single-linkage hierarchical clustering is exactly an MST computation: cut
the k-1 heaviest MST edges and the remaining components are the k clusters.
The paper's related work covers several distributed MST-based clustering
systems; this example does the same with Filter-Borůvka (the right variant
here: the point-cloud graph is dense and weights are distances, so most MST
edges are light and filtering discards most of the heavy edges unseen).

Run:  python examples/single_linkage_clustering.py
"""

import numpy as np

from repro import Machine, minimum_spanning_forest
from repro.dgraph import Edges
from repro.graphgen import radius_pairs
from repro.seq import UnionFind


def make_blobs(n_points: int, k: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 10, (k, 2))
    labels = rng.integers(0, k, n_points)
    points = centers[labels] + rng.normal(0, 0.18, (n_points, 2))
    return points, labels


def neighbourhood_graph(points: np.ndarray, radius: float = 0.25
                        ) -> tuple[Edges, int]:
    """Radius (epsilon-neighbourhood) graph with integer distance weights."""
    n = len(points)
    cu, cv = radius_pairs(points, radius)
    d = np.sqrt(((points[cu] - points[cv]) ** 2).sum(axis=1))
    # Scale distances into the integer weight domain.
    w = (d / radius * 60_000).astype(np.int64) + 1
    sym = Edges(np.concatenate([cu, cv]), np.concatenate([cv, cu]),
                np.concatenate([w, w])).sort_lex()
    sym.id[:] = np.arange(len(sym))
    return sym, n


def single_linkage(msf: Edges, n: int, k: int) -> np.ndarray:
    """Cut the heaviest MSF edges until k components remain.

    The radius graph may already be disconnected, so only
    ``k - existing_components`` cuts are needed.
    """
    existing = n - len(msf)  # forest: #components = n - #edges
    cuts = max(k - existing, 0)
    order = msf.weight_order()
    keep = order[: len(msf) - cuts]
    uf = UnionFind(n)
    uf.union_edges(msf.u[keep], msf.v[keep])
    return uf.components()


def main() -> None:
    k = 5
    points, truth = make_blobs(3_000, k, seed=3)
    graph, n = neighbourhood_graph(points)
    print(f"{n} points, {len(graph) // 2} undirected radius-graph edges")

    machine = Machine(n_procs=16, threads=2)
    result = minimum_spanning_forest(graph, machine=machine,
                                     algorithm="filter-boruvka")
    msf = result.msf_edges()
    print(f"MSF: {len(msf)} edges, weight {result.total_weight}, "
          f"{result.elapsed * 1e3:.3f} simulated ms on "
          f"{machine.cores} cores")

    clusters = single_linkage(msf, n, k)
    found = len(np.unique(clusters))
    print(f"clusters after cutting down to {k} components: {found}")

    # Quality: majority agreement with the planted blobs.
    agreement = 0.0
    for blob in range(k):
        members = np.flatnonzero(truth == blob)
        _, counts = np.unique(clusters[members], return_counts=True)
        agreement += counts.max() / len(members)
    agreement /= k
    print(f"planted-cluster recovery: {agreement:.1%}")
    assert agreement > 0.9, "clustering failed"
    print("OK")


if __name__ == "__main__":
    main()
