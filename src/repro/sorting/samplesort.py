"""Distributed two-level sample sort (AMS-style [9], [45]).

The workhorse sorter for large inputs (Section VI-C): local sort, splitter
selection from a random sample -- the sample itself is sorted with the
*hypercube* algorithm exactly as the paper describes -- then a single
personalised all-to-all partitions the data, and a local multiway merge
finishes.  Expected cost ``O((k log k + beta k) / p + alpha p)`` with direct
delivery; the all-to-all uses the auto dispatcher, so small exchanges take
the two-level grid route.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..dgraph.search import lex_searchsorted
from ..kernels import RaggedArrays
from ..simmpi.alltoall import route_rows
from ..simmpi.collectives import Comm
from .common import local_lexsort_parts
from .hypercube import sort_hypercube

#: Oversampling factor: splitter sample size per PE.
OVERSAMPLING = 16


def sort_samplesort(
    comm: Comm,
    parts: Sequence[np.ndarray],
    n_key_cols: int,
) -> List[np.ndarray]:
    """Globally sort per-PE row matrices with one data exchange.

    ``parts`` are 2-D integer row matrices of one width, one per rank
    (:func:`repro.sorting.sort_rows` is the validating entry point).
    """
    p = comm.size
    machine = comm.machine
    total = sum(len(x) for x in parts)
    if total == 0 or p == 1:
        machine.charge_sort(np.array([len(x) for x in parts]))
        return local_lexsort_parts(parts, n_key_cols)

    # ---- Local sort. ----
    machine.charge_sort(np.array([len(x) for x in parts]))
    parts = local_lexsort_parts(parts, n_key_cols)

    # ---- Sample and select p-1 splitters. ----
    samples = []
    for i in range(p):
        rows = parts[i]
        if len(rows) == 0:
            samples.append(rows[:0])
            continue
        rng = machine.pe_rng(i)
        take = rng.integers(0, len(rows), min(OVERSAMPLING, len(rows)))
        samples.append(rows[take])
    # Sort the sample with the hypercube algorithm (paper, Section VI-C),
    # then replicate it to pick evenly spaced splitters.
    sorted_sample_parts = sort_hypercube(comm, samples, n_key_cols)
    sample = comm.allgatherv(
        [x if len(x) else parts[0][:0] for x in sorted_sample_parts]
    ).reshape(-1, parts[0].shape[1] if parts[0].ndim == 2 else 1)
    if len(sample) == 0:
        return parts
    splitter_idx = (np.arange(1, p) * len(sample)) // p
    splitters = sample[splitter_idx]

    # ---- Partition by splitters and exchange. ----
    # The splitter keys are replicated, so every PE's binary search is one
    # flat lex_searchsorted call over all rows at once.
    r = RaggedArrays.from_arrays(parts)
    bucket = lex_searchsorted(
        tuple(splitters[:, c] for c in range(n_key_cols)),
        tuple(r.flat[:, c] for c in range(n_key_cols)),
        side="right",
    )
    dests = [bucket[r.offsets[i]:r.offsets[i + 1]] for i in range(p)]
    lengths = r.lengths
    nz = np.flatnonzero(lengths)
    machine.charge_scan(lengths[nz] * max(1, int(np.log2(p))), ranks=nz)
    recv, _, _ = route_rows(comm, parts, dests)

    # ---- Local merge of the received sorted runs. ----
    machine.charge_sort(np.array([len(x) for x in recv]))
    return local_lexsort_parts(recv, n_key_cols)
