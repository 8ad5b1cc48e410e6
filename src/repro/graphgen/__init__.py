"""Graph generators: the paper's six weak-scaling families (Section VII),
real-world stand-ins (Table I) and instance persistence."""

from .base import GeneratedGraph, finalize_pairs, WEIGHT_HIGH, WEIGHT_LOW
from .grid import gen_grid2d, gen_grid2d_n
from .gnm import gen_gnm
from .rgg import (gen_rgg, gen_rgg2d, gen_rgg3d, radius_for_avg_degree,
                  radius_pairs)
from .rhg import gen_rhg
from .rmat import GRAPH500_PROBS, gen_rmat
from .realworld import TABLE_I, InstanceSpec, gen_realworld
from .weights import assign_distinct_weights, assign_uniform_weights
from .stats import GraphStatistics, degree_gini, graph_statistics, locality_fraction
from .io import load_compressed, load_npz, save_compressed, save_npz

#: The six weak-scaling families of Fig. 3, by paper name.
FAMILIES = ("2D-GRID", "2D-RGG", "3D-RGG", "RHG", "GNM", "RMAT")


def gen_family(family: str, n: int, m: int, seed: int = 0) -> GeneratedGraph:
    """Generate a weak-scaling family instance with ~n vertices, ~m edges.

    ``m`` counts undirected edges; for GRID it is implied by ``n`` and for
    the geometric families the threshold/average degree is derived from the
    requested ratio, mirroring how the paper scales instances
    ("for RGG/GNM the threshold distance / edge probability is chosen
    accordingly").
    """
    avg_deg = 2.0 * m / max(n, 1)
    if family == "2D-GRID":
        return gen_grid2d_n(n, seed=seed)
    if family == "2D-RGG":
        return gen_rgg2d(n, avg_degree=avg_deg, seed=seed)
    if family == "3D-RGG":
        return gen_rgg3d(n, avg_degree=avg_deg, seed=seed)
    if family == "RHG":
        return gen_rhg(n, avg_degree=avg_deg, seed=seed)
    if family == "GNM":
        return gen_gnm(n, m, seed=seed)
    if family == "RMAT":
        import math

        return gen_rmat(max(1, int(math.ceil(math.log2(max(n, 2))))), m,
                        seed=seed)
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")


__all__ = [
    "GeneratedGraph",
    "finalize_pairs",
    "WEIGHT_HIGH",
    "WEIGHT_LOW",
    "gen_grid2d",
    "gen_grid2d_n",
    "gen_gnm",
    "gen_rgg",
    "gen_rgg2d",
    "gen_rgg3d",
    "radius_for_avg_degree",
    "radius_pairs",
    "gen_rhg",
    "GRAPH500_PROBS",
    "gen_rmat",
    "TABLE_I",
    "InstanceSpec",
    "gen_realworld",
    "assign_distinct_weights",
    "assign_uniform_weights",
    "FAMILIES",
    "gen_family",
    "GraphStatistics",
    "degree_gini",
    "graph_statistics",
    "locality_fraction",
    "load_compressed",
    "load_npz",
    "save_compressed",
    "save_npz",
]
