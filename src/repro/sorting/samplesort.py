"""Distributed two-level sample sort (AMS-style [9], [45]).

The workhorse sorter for large inputs (Section VI-C): local sort, splitter
selection from a random sample -- the sample itself is sorted with the
*hypercube* algorithm exactly as the paper describes -- then a single
personalised all-to-all partitions the data and every PE sorts the runs it
received.  Expected cost ``O((k log k + beta k) / p + alpha p)`` with direct
delivery; the all-to-all uses the auto dispatcher, so small exchanges take
the two-level grid route.

The host computes the result once (docs/kernels.md, "REDISTRIBUTE sorts
once"): bucket ``j`` holds the keys in ``[splitter[j-1], splitter[j])`` and
both sorts are stable, so the output is the input in stable key order, cut
at the bucket sizes.  The exchange is charged from its count matrix by
:func:`repro.simmpi.alltoall.account`; no row moves.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..kernels import RaggedArrays, index_dtype, order_key
from ..simmpi.alltoall import SendBlock, account, split_rows
from ..simmpi.collectives import Comm
from .common import local_lexsort_parts, sample_positions
from .hypercube import sort_hypercube

#: Oversampling factor: splitter sample size per PE.
OVERSAMPLING = 16

#: The unique sort words of :func:`stable_order` stay below this.
_WORD_LIMIT = 1 << 62


def stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for non-negative int64 keys: the
    low bits of one ``np.sort`` of the unique words ``key << ceil(log2 n) |
    position`` while they fit below 2^62 (500 k rows: 4.9 vs 73 ms)."""
    n = len(key)
    shift = max(n - 1, 0).bit_length()
    if n == 0 or int(key.max()) >= _WORD_LIMIT >> shift:
        return np.argsort(key, kind="stable")
    word = key << shift
    word |= np.arange(n, dtype=np.int64)
    word.sort()
    word &= (1 << shift) - 1
    return word


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
    ranks = comm.ranks
    packed = RaggedArrays.from_arrays(parts)
    rows, lens, off = packed.flat, packed.lengths, packed.offsets
    if len(rows) == 0 or p == 1:
        machine.charge_sort(lens, ranks=ranks)
        return local_lexsort_parts(parts, n_key_cols)

    # ---- Local sort: one stable global order, regrouped per PE. ----
    machine.charge_sort(lens, ranks=ranks)
    key = order_key(tuple(rows[:, c] for c in reversed(range(n_key_cols))))
    order = stable_order(key)
    pe_dtype = np.uint16 if p <= (1 << 16) else index_dtype(p)  # radix sort
    pe = np.repeat(np.arange(p, dtype=pe_dtype), lens)[order]  # key order
    local = order[np.argsort(pe, kind="stable")]

    # ---- Sample and select p-1 splitters. ----
    drawing, take, picks = sample_positions(machine, ranks, lens,
                                            OVERSAMPLING)
    at = local[picks + np.repeat(off[drawing], take)]
    sample_off = np.zeros(p + 1, dtype=np.int64)
    sample_off[drawing + 1] = take
    np.cumsum(sample_off, out=sample_off)
    # Sort the sample with the hypercube algorithm (paper, Section VI-C),
    # then replicate it to pick evenly spaced splitters (as keys: the
    # replicated sample is these rows in key order).
    sorted_sample_parts = sort_hypercube(
        comm, split_rows(np.take(rows, at, axis=0), sample_off), n_key_cols)
    comm.allgatherv([x if len(x) else rows[:0] for x in sorted_sample_parts])
    sample = np.sort(key[at])
    splitters = sample[(np.arange(1, p) * len(sample)) // p]

    # ---- Partition by splitters and exchange. ----
    machine.charge_scan(lens[drawing] * max(1, int(np.log2(p))),
                        ranks=ranks[drawing])
    # Bucket j is [splitter[j-1], splitter[j]): in key order, one run each.
    recv_off = np.concatenate(
        ([0], np.searchsorted(key[order], splitters, side="left"),
         [len(rows)]))
    received = np.diff(recv_off)
    bucket = np.repeat(np.arange(p, dtype=np.int64), received)
    counts = np.bincount(pe.astype(np.int64) * p + bucket,
                         minlength=p * p).reshape(p, p)
    # Send side, cell-major: each PE's rows in local order (for a victim).
    account(comm, "auto", rows[:0], counts, lambda: SendBlock(rows, local))

    # ---- Local sort of the received runs. ----
    machine.charge_sort(received, ranks=ranks)
    return split_rows(np.take(rows, order, axis=0), recv_off)
