"""Batched segmented-array kernels for the simulated machine.

The simulator drives all ``p`` virtual PEs from one Python process, so every
hot path that loops ``for i in range(p)`` re-enters the numpy dispatcher once
per PE: wall-clock grows with ``p`` even though per-PE work shrinks.  This
package provides the *flat* alternative -- all PEs' data packed into one
array plus per-PE offsets (:class:`RaggedArrays`) and segmented kernels that
process every PE's segment in a single numpy pass, mirroring the parlay-style
flat segmented primitives of the paper's own stack (KaMSTa / GBBS).

Hard invariant
--------------
Kernels change only the *wall-clock* of running the simulator.  Simulated
seconds, per-PE semantics, cost charging and sanitizer ownership views are
bit-for-bit what the per-PE reference loops produce.  Those loops live
under ``tests/`` (``_loop_reference.py``) as the oracle the differential
tests substitute for the functions built on these kernels (see
docs/kernels.md, "One path, one oracle").
"""

from .dtypes import index_dtype, narrow, widen
from .pool import BufferPool, active_pool, set_active_pool
from .ragged import RaggedArrays
from .segmented import (
    first_in_group,
    group_argmin,
    order_key,
    packed_lexsort,
    route_counts,
    route_plan,
    segment_ids,
    segmented_lexsort,
    segmented_isin,
    segmented_lookup,
    segmented_run_starts,
    segmented_searchsorted,
    segmented_unique,
)

__all__ = [
    "BufferPool",
    "RaggedArrays",
    "active_pool",
    "first_in_group",
    "group_argmin",
    "index_dtype",
    "narrow",
    "order_key",
    "packed_lexsort",
    "route_counts",
    "route_plan",
    "segment_ids",
    "segmented_lexsort",
    "segmented_isin",
    "segmented_lookup",
    "segmented_run_starts",
    "segmented_searchsorted",
    "segmented_unique",
    "set_active_pool",
    "widen",
]
