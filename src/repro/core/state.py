"""Shared run state of the distributed MST algorithms.

:class:`MSTRun` bundles everything the subroutines of Algorithm 1 / 2 need:
the machine, configuration, the per-PE accumulators of identified MST edges,
and an optional *label sink* -- the hook through which Filter-Borůvka's
distributed component-representative array ``P`` observes every contraction
(Section V: "After a Borůvka round, each PE stores the component root for
its local vertices in P").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..simmpi.collectives import Comm
from ..simmpi.machine import Machine
from .config import BoruvkaConfig

#: Label-sink signature: (pe, vertex_ids, new_labels) for one contraction.
LabelSink = Callable[[int, np.ndarray, np.ndarray], None]


@dataclass
class MSTRun:
    """Mutable state threaded through one distributed MST computation."""

    machine: Machine
    cfg: BoruvkaConfig
    #: Per-PE lists of (edge id, weight) pairs of identified MST edges.
    mst_ids: List[List[np.ndarray]] = field(default_factory=list)
    #: Observer for contraction label maps (Filter-Borůvka's P array).
    label_sink: Optional[LabelSink] = None
    #: Round counter (diagnostics; Fig. 6 uses the phase timers instead).
    rounds: int = 0

    def __post_init__(self) -> None:
        if not self.mst_ids:
            self.mst_ids = [[] for _ in range(self.machine.n_procs)]
        self.comm = Comm(self.machine)

    # ------------------------------------------------------------------
    def record_mst(self, pe: int, ids: np.ndarray, weights: np.ndarray) -> None:
        """Append identified MST edges (by original directed-edge id)."""
        if len(ids) == 0:
            return
        pair = np.stack([np.asarray(ids, dtype=np.int64),
                         np.asarray(weights, dtype=np.int64)], axis=1)
        self.mst_ids[pe].append(pair)

    def record_mst_parts(self, ids: np.ndarray, weights: np.ndarray,
                         offsets: np.ndarray) -> None:
        """:meth:`record_mst` of rows ``offsets[i]:offsets[i + 1]`` on
        every PE ``i`` (``p + 1`` offsets into ``ids`` and ``weights``)."""
        for pe in np.flatnonzero(np.diff(offsets)):
            a, b = offsets[pe], offsets[pe + 1]
            self.record_mst(int(pe), ids[a:b], weights[a:b])

    def record_labels(self, pe: int, vertices: np.ndarray,
                      labels: np.ndarray) -> None:
        """Report a contraction's label map to the sink (if any)."""
        if self.label_sink is not None and len(vertices):
            changed = vertices != labels
            if changed.any():
                self.label_sink(pe, vertices[changed], labels[changed])

    def collected(self, pe: int) -> np.ndarray:
        """All (id, weight) rows recorded on a PE so far."""
        if not self.mst_ids[pe]:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(self.mst_ids[pe], axis=0)

    def total_mst_edges(self) -> int:
        """Total MST edges recorded across all PEs so far."""
        return sum(sum(len(a) for a in lst) for lst in self.mst_ids)
