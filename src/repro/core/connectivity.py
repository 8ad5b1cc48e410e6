"""Distributed connected components on the same substrate.

The paper closes by framing its machinery as "an important step in a larger
effort to obtain efficient massively parallel graph algorithms on a larger
range of problems".  Connected components is the canonical next problem: it
is exactly the MST machinery with weights ignored, so this module runs
Algorithm 1's round structure (minimum-*label* edges instead of
minimum-weight edges, same contraction / label exchange / redistribution /
base case) and returns a component labelling instead of a forest.

The implementation reuses every subroutine unchanged -- the cheapest
demonstration that the building blocks generalise -- by running the MST
pipeline with all weights equal to 1 and collecting the component
representative of every original vertex through the distributed array ``P``
from Filter-Borůvka.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import Edges
from ..kernels import segment_ids, segmented_unique
from .base_case import base_case
from .boruvka import boruvka_rounds
from .config import BoruvkaConfig
from .local_preprocessing import local_preprocessing
from .plabels import DistributedLabelArray
from .state import MSTRun


@dataclass
class ComponentsResult:
    """Outcome of a distributed connected-components computation."""

    #: Block-distributed representative array: ``blocks[i]`` holds the
    #: representative of vertices ``bounds[i]..bounds[i+1)``.
    blocks: List[np.ndarray]
    bounds: np.ndarray
    #: Number of connected components among vertices incident to edges.
    n_components: int
    #: Simulated makespan in seconds.
    elapsed: float
    phase_times: Dict[str, float]

    def labels(self) -> np.ndarray:
        """The full representative array (diagnostic assembly)."""
        return np.concatenate(self.blocks) if len(self.bounds) > 1 else \
            np.empty(0, dtype=np.int64)


def connected_components(
    graph: DistGraph,
    cfg: Optional[BoruvkaConfig] = None,
) -> ComponentsResult:
    """Label the connected components of a distributed graph.

    Every vertex's representative is the smallest-rooted star label the
    contraction hierarchy produced; two vertices are in the same component
    iff their representatives are equal.  Vertices in ``[0, max_label]``
    that have no incident edges keep themselves as representatives.
    """
    machine = graph.machine
    cfg = cfg or BoruvkaConfig()
    run = MSTRun(machine, cfg)

    max_label = run.comm.allreduce(
        [int(part.u.max()) if len(part) else -1 for part in graph.parts],
        op="max")
    n_labels = max_label + 1
    P = DistributedLabelArray(run.comm, max(n_labels, 1),
                              alltoall=cfg.alltoall)
    run.label_sink = P.sink

    # Ignore weights: uniform-weight copy makes every edge a valid choice
    # and the MST pipeline degenerates into hook-and-contract connectivity.
    e = graph.edges
    uniform = DistGraph(machine, Edges(e.u, e.v, np.ones(len(e), np.int64),
                                       e.id), graph.offsets, check=False)

    if cfg.local_preprocessing:
        with machine.phase("local_preprocessing"):
            uniform = local_preprocessing(uniform, run)
    uniform = boruvka_rounds(uniform, run)
    with machine.phase("base_case"):
        base_case(uniform, run)
    P.contract()

    # Representatives of existing components: resolve each original vertex.
    reps, roff, _ = segmented_unique(e.u, segment_ids(graph.offsets),
                                     machine.n_procs)
    n_components = len(np.unique(P.request(reps, segment_ids(roff))))

    return ComponentsResult(
        blocks=np.split(P.assembled(), P.bounds[1:-1]),
        bounds=P.bounds.copy(),
        n_components=n_components,
        elapsed=machine.elapsed(),
        phase_times=dict(machine.phase_times),
    )
