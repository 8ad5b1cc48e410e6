"""Simulated distributed-memory machine (the MPI substrate substitution).

See DESIGN.md Section 1: the paper's algorithms run unchanged on ``p``
virtual PEs with genuinely partitioned state; communication really moves data
between per-PE buffers and charges per-PE clocks with the paper's
``alpha + beta * l`` cost model.
"""

from .costmodel import CostModel
from .machine import Machine, SimulatedOutOfMemory, simsan_env_enabled
from .collectives import Comm
from .sanitizer import (
    CostAccountingViolation,
    Sanitizer,
    SanitizerViolation,
    SortednessViolation,
)
from .alltoall import (
    ALLTOALL_METHODS,
    GRID_DISPATCH_THRESHOLD_BYTES,
    alltoallv_auto,
    alltoallv_direct,
    alltoallv_grid,
    alltoallv_hypercube,
    route_rows,
    unsort,
)
from .multilevel import alltoallv_multilevel, grid_sides
from .trace import CommTrace, comm_heatmap, hotspot_summary
from .timers import PHASES, PhaseBreakdown, collect_breakdown, format_table, normalise

__all__ = [
    "CostModel",
    "Machine",
    "SimulatedOutOfMemory",
    "simsan_env_enabled",
    "Comm",
    "Sanitizer",
    "SanitizerViolation",
    "CostAccountingViolation",
    "SortednessViolation",
    "ALLTOALL_METHODS",
    "GRID_DISPATCH_THRESHOLD_BYTES",
    "alltoallv_auto",
    "alltoallv_direct",
    "alltoallv_grid",
    "alltoallv_hypercube",
    "route_rows",
    "unsort",
    "alltoallv_multilevel",
    "grid_sides",
    "CommTrace",
    "comm_heatmap",
    "hotspot_summary",
    "PHASES",
    "PhaseBreakdown",
    "collect_breakdown",
    "format_table",
    "normalise",
]
