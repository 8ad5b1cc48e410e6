"""kamsta-py: reproduction of *Engineering Massively Parallel MST Algorithms*
(Sanders & Schimek, IPDPS 2023) on a simulated distributed-memory machine.

Public API
----------
The top-level convenience entry point is :func:`repro.minimum_spanning_forest`
(re-exported from :mod:`repro.core.mst`), which runs one of the paper's
algorithms (``"boruvka"`` or ``"filter-boruvka"``) or a competitor
(``"awerbuch-shiloach"``, ``"mnd-mst"``) on a distributed graph over a
:class:`repro.simmpi.Machine`.

Subpackages
-----------
``repro.simmpi``
    Simulated MPI machine: PE clocks, cost model, collectives, sparse
    all-to-all variants (direct / two-level grid / hypercube).
``repro.sorting``
    Distributed sorters (hypercube quicksort, two-level sample sort).
``repro.dgraph``
    The 1D-partitioned, lexicographically sorted distributed edge-list graph
    data structure of Section II-B.
``repro.graphgen``
    KaGen-equivalent generators (GRID/RGG/RHG/GNM/RMAT) and real-world
    stand-in instances.
``repro.core``
    The paper's contribution: distributed Boruvka (Algorithm 1) and
    Filter-Boruvka (Algorithm 2) with all subroutines.
``repro.seq``
    Sequential baselines (Kruskal, Prim, Boruvka, Filter-Kruskal) used for
    verification and the shared-memory reference point.
``repro.competitors``
    Reimplementations of the paper's competitors (sparseMatrix /
    Awerbuch-Shiloach and MND-MST) on the same substrate.
``repro.analysis``
    Experiment harness: sweeps, result records, ASCII tables.
``repro.kernels``
    Flat segmented-array kernels every hot path runs on and dtype
    narrowing; see docs/kernels.md.
"""

__version__ = "1.0.0"

from .core.mst import minimum_spanning_forest  # noqa: E402  (public entry point)
from .simmpi import Machine, CostModel  # noqa: E402

__all__ = ["minimum_spanning_forest", "Machine", "CostModel", "__version__"]
