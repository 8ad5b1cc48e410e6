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
bit-for-bit identical between the two engines; ``REPRO_ENGINE=inprocess``
(or ``Machine(engine="inprocess")``) switches every rewritten hot path back
to the per-PE reference loops so the test suite can differential-test the
engines against each other (see docs/kernels.md).
"""

from .dtypes import index_dtype, narrow, narrowing_enabled, widen
from .engine import ENGINE_NAMES, batched_for, resolve_engine
from .pool import BufferPool, active_pool, set_active_pool
from .ragged import RaggedArrays
from .segmented import (
    first_in_group,
    order_key,
    packed_lexsort,
    route_counts,
    route_plan,
    segment_ids,
    segmented_lexsort,
    segmented_lookup,
    segmented_searchsorted,
    segmented_unique,
)

__all__ = [
    "ENGINE_NAMES",
    "BufferPool",
    "RaggedArrays",
    "active_pool",
    "batched_for",
    "first_in_group",
    "index_dtype",
    "narrow",
    "narrowing_enabled",
    "order_key",
    "packed_lexsort",
    "resolve_engine",
    "route_counts",
    "route_plan",
    "segment_ids",
    "segmented_lexsort",
    "segmented_lookup",
    "segmented_searchsorted",
    "segmented_unique",
    "set_active_pool",
    "widen",
]
