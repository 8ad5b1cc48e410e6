"""The paper's contribution: distributed Borůvka (Algorithm 1) and
Filter-Borůvka (Algorithm 2) with all their subroutines."""

from .config import BoruvkaConfig, FilterConfig
from .state import MSTRun
from .minedges import ChosenEdges, min_edges
from .contraction import contract_components
from .labels import LabelPush, exchange_labels, relabel
from .redistribute import redistribute
from .base_case import base_case
from .local_preprocessing import local_preprocessing
from .plabels import DistributedLabelArray
from .rounds import (
    CheckpointableState,
    RoundBody,
    RoundScheduler,
    RoundStats,
    UnsupportedFaultSchedule,
)
from .boruvka import (
    InputSnapshot,
    MSTResult,
    boruvka_rounds,
    distributed_boruvka,
    global_vertex_count,
    redistribute_mst,
)
from .connectivity import ComponentsResult, connected_components
from .filter_boruvka import distributed_filter_boruvka
from .mst import available_algorithms, minimum_spanning_forest, register_algorithm
from .verification import VerificationReport, verify_distributed_msf

__all__ = [
    "BoruvkaConfig",
    "FilterConfig",
    "MSTRun",
    "ChosenEdges",
    "min_edges",
    "contract_components",
    "LabelPush",
    "exchange_labels",
    "relabel",
    "redistribute",
    "base_case",
    "local_preprocessing",
    "DistributedLabelArray",
    "CheckpointableState",
    "RoundBody",
    "RoundScheduler",
    "RoundStats",
    "UnsupportedFaultSchedule",
    "InputSnapshot",
    "MSTResult",
    "boruvka_rounds",
    "distributed_boruvka",
    "global_vertex_count",
    "redistribute_mst",
    "ComponentsResult",
    "connected_components",
    "distributed_filter_boruvka",
    "available_algorithms",
    "minimum_spanning_forest",
    "register_algorithm",
    "VerificationReport",
    "verify_distributed_msf",
]
