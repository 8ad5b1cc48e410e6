"""Sorting dispatcher (Section VI-C).

"Regarding distributed sorting we use distributed hypercube quicksort [9] if
the average number of elements to sort per PE is below 512.  For larger
inputs we use our own implementation of distributed two-level sample sort."
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..obs.hooks import observe_sort
from ..simmpi.collectives import Comm
from .common import as_row_matrix, rebalance_blocks
from .hypercube import sort_hypercube
from .samplesort import sort_samplesort

#: Average elements per PE below which hypercube quicksort is used.
HYPERCUBE_THRESHOLD = 512


def sort_rows(
    comm: Comm,
    parts: Sequence[np.ndarray],
    n_key_cols: int,
    method: str = "auto",
    rebalance: bool = True,
    hypercube_threshold: int = HYPERCUBE_THRESHOLD,
) -> List[np.ndarray]:
    """Globally sort per-PE row matrices by their first ``n_key_cols`` columns.

    Parameters
    ----------
    method:
        ``"auto"`` (the paper's dispatch rule), ``"hypercube"`` or
        ``"samplesort"``.
    rebalance:
        Restore the exact block partition afterwards (the MST algorithms'
        REDISTRIBUTE requires balanced parts).

    Raises ``ValueError`` unless ``parts`` holds one part per rank, all of
    one row width, and ``1 <= n_key_cols <= width``.
    """
    if len(parts) != comm.size:
        raise ValueError(f"parts must hold one row matrix per rank "
                         f"({comm.size}), got {len(parts)}")
    parts = [as_row_matrix(x) for x in parts]
    widths = sorted({x.shape[1] for x in parts})
    if len(widths) > 1:
        raise ValueError(f"parts must share one row width, got {widths}")
    if not 1 <= n_key_cols <= widths[0]:
        raise ValueError(f"n_key_cols must be in [1, {widths[0]}] for rows "
                         f"of width {widths[0]}, got {n_key_cols}")
    total = sum(len(x) for x in parts)
    if method == "auto":
        avg = total / max(1, comm.size)
        method = "hypercube" if avg < hypercube_threshold else "samplesort"
    if method == "hypercube":
        observe_sort(comm, "hypercube", total)
        with comm.machine.span("sort_hypercube", cat="sort"):
            out = sort_hypercube(comm, parts, n_key_cols)
    elif method == "samplesort":
        observe_sort(comm, "samplesort", total)
        with comm.machine.span("sort_samplesort", cat="sort"):
            out = sort_samplesort(comm, parts, n_key_cols)
    else:
        raise ValueError(f"unknown sorting method {method!r}")
    if rebalance:
        out = rebalance_blocks(comm, out)
    return out
