"""Sequential MST baselines and verification (Sections II-C, III, V)."""

from .union_find import UnionFind
from .kruskal import kruskal_msf, msf_weight
from .prim import prim_msf
from .boruvka import boruvka_msf
from .filter_kruskal import (
    FilterStats,
    filter_boruvka_msf,
    filter_kruskal_msf,
)
from .kkt import NO_PATH, boruvka_round, kkt_msf, max_weight_on_paths
from .verify import (
    VerificationError,
    is_forest,
    is_spanning_forest,
    networkx_msf_weight,
    spans_same_components,
    verify_msf,
)

__all__ = [
    "UnionFind",
    "kruskal_msf",
    "msf_weight",
    "prim_msf",
    "boruvka_msf",
    "FilterStats",
    "filter_boruvka_msf",
    "filter_kruskal_msf",
    "NO_PATH",
    "boruvka_round",
    "kkt_msf",
    "max_weight_on_paths",
    "is_forest",
    "is_spanning_forest",
    "networkx_msf_weight",
    "spans_same_components",
    "VerificationError",
    "verify_msf",
]
