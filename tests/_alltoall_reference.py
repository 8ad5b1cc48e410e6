"""Hop-by-hop reference implementations of the indirect all-to-alls.

Until PR 12 these were the production schemes of
``repro.simmpi.alltoall`` / ``repro.simmpi.multilevel``: every hop of the
two-level grid, the hypercube and the d-dimensional grid physically
re-sorts and moves the payload (and its per-row destination/source
metadata) between per-PE buffers.  Production now *accounts* the hops from
per-hop count matrices and moves the payload once; this module keeps the
replayed routing, verbatim, as the oracle the differential tests in
``test_alltoall.py`` / ``test_multilevel.py`` compare against: receive
buffers, clocks, traced bytes, metrics, sanitizer counters, fault draws and
the payload every rank holds after every hop.

Only two things differ from the code as it was shipped: the fault hook is
called through its current signature (per-rank element counts plus a
materialiser -- here simply indexing the real hop buffers), and the
helpers the production module no longer has (``_validate`` returning the
bare counts matrix, ``_move_multi``) live here.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.faults import FaultInjector
from repro.simmpi import Comm, Machine
from repro.simmpi.alltoall import (
    _grid_intermediate,
    _grid_shape,
    _record_trace,
    _row_nbytes,
    alltoallv_direct,
)
from repro.simmpi.multilevel import _coords, _rank_of, grid_sides


def _empty_like_rows(template: np.ndarray, n: int = 0) -> np.ndarray:
    shape = (n,) + template.shape[1:]
    return np.empty(shape, dtype=template.dtype)


def _validate(sendbufs, sendcounts, size: int) -> np.ndarray:
    if len(sendbufs) != size or len(sendcounts) != size:
        raise ValueError(f"need {size} send buffers/count vectors")
    counts = np.empty((size, size), dtype=np.int64)
    for i in range(size):
        c = np.asarray(sendcounts[i], dtype=np.int64)
        if c.shape != (size,):
            raise ValueError(f"sendcounts[{i}] must have length {size}")
        counts[i] = c
    buf_lens = np.fromiter((len(b) for b in sendbufs), dtype=np.int64,
                           count=size)
    bad = np.flatnonzero(counts.sum(axis=1) != buf_lens)
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"sendcounts[{i}] sums to {counts[i].sum()} but buffer has "
            f"{len(sendbufs[i])} rows"
        )
    return counts


def _gather_order(counts: np.ndarray, total: int):
    size = counts.shape[0]
    lens = counts.ravel()
    src_start = np.zeros(size * size, dtype=np.int64)
    np.cumsum(lens[:-1], out=src_start[1:])
    cells = np.arange(size * size).reshape(size, size).T.ravel()
    tlens = lens[cells]
    dst_start = np.zeros(size * size, dtype=np.int64)
    np.cumsum(tlens[:-1], out=dst_start[1:])
    order = np.arange(total) + np.repeat(src_start[cells] - dst_start, tlens)
    offs = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=0), out=offs[1:])
    return order, offs


def _move_multi(bufs_lists, counts: np.ndarray) -> List[List[np.ndarray]]:
    """Move several parallel payload lists through one exchange step."""
    size = counts.shape[0]
    order = offs = None
    out: List[List[np.ndarray]] = []
    for sendbufs in bufs_lists:
        template = None
        for b in sendbufs:
            if isinstance(b, np.ndarray):
                template = b
                break
        assert template is not None
        big = np.concatenate(
            [b if isinstance(b, np.ndarray) and b.ndim else np.atleast_1d(b)
             for b in sendbufs], axis=0)
        if len(big) == 0:
            out.append([_empty_like_rows(template) for _ in range(size)])
            continue
        if order is None:
            order, offs = _gather_order(counts, len(big))
        routed = big[order]
        out.append([routed[offs[j]:offs[j + 1]]
                    if offs[j + 1] > offs[j] else _empty_like_rows(routed)
                    for j in range(size)])
    return out


def _on_exchange(fi, comm, op, bufs, row_bytes, bytes_out, bytes_in, cost):
    """The fault hook, fed from the real per-rank hop buffers."""
    sizes = np.array([np.atleast_1d(b).size for b in bufs], dtype=np.int64)
    return fi.on_exchange(comm, op, sizes, bufs.__getitem__, row_bytes,
                          bytes_out, bytes_in, cost)


def alltoallv_grid(
    comm,
    sendbufs: Sequence[np.ndarray],
    sendcounts: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Two-level grid all-to-all, both hops replayed (per-PE loop branch)."""
    size = comm.size
    if size <= 3:
        return alltoallv_direct(comm, sendbufs, sendcounts)
    counts = _validate(sendbufs, sendcounts, size)
    template = next(b for b in sendbufs if isinstance(b, np.ndarray))
    row_bytes = _row_nbytes(template)
    c, r = _grid_shape(size)
    T = _grid_intermediate(size)

    # ---- Phase 1: route rows to their intermediates (within columns). ----
    phase1_counts = np.zeros((size, size), dtype=np.int64)
    p1_bufs = []
    p1_dst = []
    for i in range(size):
        dst_of_row = np.repeat(np.arange(size), counts[i])
        t_of_row = T[i][dst_of_row] if len(dst_of_row) else dst_of_row
        order = np.argsort(t_of_row, kind="stable")
        p1_bufs.append(np.atleast_1d(sendbufs[i])[order])
        p1_dst.append(dst_of_row[order])
        np.add.at(phase1_counts[i], t_of_row, 1)
    mid_bufs, mid_dst = _move_multi((p1_bufs, p1_dst), phase1_counts)
    mid_src = [np.repeat(np.arange(size), phase1_counts[:, t])
               for t in range(size)]

    bytes_out1 = phase1_counts.sum(axis=1).astype(np.float64) * row_bytes
    bytes_in1 = phase1_counts.sum(axis=0).astype(np.float64) * row_bytes
    cost1 = comm.machine.cost.alltoall_dense(r, bytes_out1, bytes_in1,
                                             comm.machine.threads)
    fi = comm.machine.faults
    if fi is not None:
        cost1 = _on_exchange(fi, comm, "alltoallv_grid/hop1", mid_bufs,
                             row_bytes, bytes_out1, bytes_in1, cost1)
    comm.machine.bytes_communicated += float(bytes_out1.sum())
    _record_trace(comm, phase1_counts, row_bytes, op="alltoallv_grid/hop1")
    comm._sync_and_charge(cost1, op="alltoallv_grid/hop1",
                          nbytes=float(bytes_out1.sum()))

    # ---- Phase 2: deliver from intermediates to final destinations. ----
    phase2_counts = np.zeros((size, size), dtype=np.int64)
    p2_bufs = []
    p2_src = []
    for t in range(size):
        d = mid_dst[t]
        order = np.argsort(d, kind="stable")
        p2_bufs.append(mid_bufs[t][order])
        p2_src.append(mid_src[t][order])
        np.add.at(phase2_counts[t], d, 1)
    out_bufs, out_src = _move_multi((p2_bufs, p2_src), phase2_counts)

    group2 = c + (0 if size == c * r else 2)
    bytes_out2 = phase2_counts.sum(axis=1).astype(np.float64) * row_bytes
    bytes_in2 = phase2_counts.sum(axis=0).astype(np.float64) * row_bytes
    cost2 = comm.machine.cost.alltoall_dense(group2, bytes_out2, bytes_in2,
                                             comm.machine.threads)
    if fi is not None:
        cost2 = _on_exchange(fi, comm, "alltoallv_grid/hop2", out_bufs,
                             row_bytes, bytes_out2, bytes_in2, cost2)
    comm.machine.bytes_communicated += float(bytes_out2.sum())
    _record_trace(comm, phase2_counts, row_bytes, op="alltoallv_grid/hop2")
    comm._sync_and_charge(cost2, op="alltoallv_grid/hop2",
                          nbytes=float(bytes_out2.sum()))

    san = comm.machine.sanitizer
    if san is not None:
        san.check_two_level(
            size,
            int(counts.sum()),
            [int(phase1_counts.sum()), int(phase2_counts.sum())],
            [r, group2],
        )

    # ---- Restore the MPI_Alltoallv contract: rows source-major. ----
    recvbufs: List[np.ndarray] = []
    recvcounts: List[np.ndarray] = []
    for j in range(size):
        order = np.argsort(out_src[j], kind="stable")
        recvbufs.append(np.ascontiguousarray(out_bufs[j][order]))
        rc = np.zeros(size, dtype=np.int64)
        np.add.at(rc, out_src[j], 1)
        recvcounts.append(rc)
    return recvbufs, recvcounts


def alltoallv_hypercube(
    comm,
    sendbufs: Sequence[np.ndarray],
    sendcounts: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Hypercube all-to-all: ``log p`` pairwise rounds, data moved each round."""
    size = comm.size
    if size & (size - 1) != 0:
        return alltoallv_grid(comm, sendbufs, sendcounts)
    if size == 1:
        return alltoallv_direct(comm, sendbufs, sendcounts)
    counts = _validate(sendbufs, sendcounts, size)
    template = next(b for b in sendbufs if isinstance(b, np.ndarray))
    row_bytes = _row_nbytes(template)

    held = [np.atleast_1d(sendbufs[i]) for i in range(size)]
    held_dst = [np.repeat(np.arange(size), counts[i]) for i in range(size)]
    held_src = [np.full(len(held[i]), i, dtype=np.int64) for i in range(size)]

    dims = size.bit_length() - 1
    for k in range(dims):
        bit = 1 << k
        new_held: List[np.ndarray] = [None] * size  # type: ignore[list-item]
        new_dst: List[np.ndarray] = [None] * size  # type: ignore[list-item]
        new_src: List[np.ndarray] = [None] * size  # type: ignore[list-item]
        sent_bytes = np.zeros(size)
        for i in range(size):
            partner = i ^ bit
            if i > partner:
                continue
            stay_i = (held_dst[i] & bit) == (i & bit)
            stay_p = (held_dst[partner] & bit) == (partner & bit)
            go_i = held[i][~stay_i]
            go_p = held[partner][~stay_p]
            new_held[i] = np.concatenate([held[i][stay_i], go_p], axis=0)
            new_dst[i] = np.concatenate([held_dst[i][stay_i],
                                         held_dst[partner][~stay_p]])
            new_src[i] = np.concatenate([held_src[i][stay_i],
                                         held_src[partner][~stay_p]])
            new_held[partner] = np.concatenate([held[partner][stay_p], go_i],
                                               axis=0)
            new_dst[partner] = np.concatenate([held_dst[partner][stay_p],
                                               held_dst[i][~stay_i]])
            new_src[partner] = np.concatenate([held_src[partner][stay_p],
                                               held_src[i][~stay_i]])
            sent_bytes[i] = len(go_i) * row_bytes
            sent_bytes[partner] = len(go_p) * row_bytes
        cm = comm.machine.cost
        recv_bytes = sent_bytes[np.arange(size) ^ bit]
        cost = (cm.c_call + cm.alpha
                + (cm.beta + cm.beta_sw) * (sent_bytes + recv_bytes))
        fi = comm.machine.faults
        if fi is not None:
            cost = _on_exchange(fi, comm, f"alltoallv_hypercube/dim{k}",
                                new_held, row_bytes, sent_bytes,
                                recv_bytes, cost)
        comm.machine.bytes_communicated += float(sent_bytes.sum())
        m = comm.machine
        if (m.trace is not None or m.sanitizer is not None
                or m.metrics is not None):
            hop = np.zeros((size, size))
            hop[np.arange(size), np.arange(size) ^ bit] = sent_bytes
            _record_trace(comm, hop, 1.0,
                          op=f"alltoallv_hypercube/dim{k}")
        comm._sync_and_charge(cost, op=f"alltoallv_hypercube/dim{k}",
                              nbytes=float(sent_bytes.sum()))
        held, held_dst, held_src = new_held, new_dst, new_src

    recvbufs: List[np.ndarray] = []
    recvcounts: List[np.ndarray] = []
    for j in range(size):
        assert len(held_dst[j]) == 0 or (held_dst[j] == j).all()
        order = np.argsort(held_src[j], kind="stable")
        recvbufs.append(np.ascontiguousarray(held[j][order]))
        rc = np.zeros(size, dtype=np.int64)
        np.add.at(rc, held_src[j], 1)
        recvcounts.append(rc)
    return recvbufs, recvcounts


def alltoallv_multilevel(
    comm,
    sendbufs: Sequence[np.ndarray],
    sendcounts: Sequence[np.ndarray],
    d: int = 3,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Indirect all-to-all over a d-dimensional PE grid, every hop replayed."""
    size = comm.size
    if size <= 3 or d <= 1:
        return alltoallv_direct(comm, sendbufs, sendcounts)
    counts = _validate(sendbufs, sendcounts, size)
    template = next(b for b in sendbufs if isinstance(b, np.ndarray))
    row_bytes = _row_nbytes(template)
    sides = grid_sides(size, d)
    d = len(sides)

    # Per-PE state: rows held, their final destination, their original source.
    held = [np.atleast_1d(sendbufs[i]) for i in range(size)]
    held_dst = [np.repeat(np.arange(size), counts[i]) for i in range(size)]
    held_src = [np.full(len(held[i]), i, dtype=np.int64)
                for i in range(size)]

    my_coords = _coords(np.arange(size), sides)

    hop_rows: List[int] = []
    for k in range(d):
        # Hop k: every row moves to the PE whose coordinates agree with the
        # destination on dims 0..k and with the current holder on dims k+1..
        hop_counts = np.zeros((size, size), dtype=np.int64)
        bufs, dsts, srcs = [], [], []
        for i in range(size):
            rows = held[i]
            if len(rows) == 0:
                bufs.append(rows)
                dsts.append(held_dst[i])
                srcs.append(held_src[i])
                continue
            dst_coords = _coords(held_dst[i], sides)
            target_coords = np.tile(my_coords[i], (len(rows), 1))
            target_coords[:, :k + 1] = dst_coords[:, :k + 1]
            target = _rank_of(target_coords, sides)
            # Snap virtual targets (rank >= p) onto the destination itself:
            # the destination is always real and lies in the same remaining
            # fiber, so the residual hops still converge.
            target = np.where(target >= size, held_dst[i], target)
            order = np.argsort(target, kind="stable")
            bufs.append(rows[order])
            dsts.append(held_dst[i][order])
            srcs.append(held_src[i][order])
            np.add.at(hop_counts[i], target[order], 1)
        new_held, new_dst, new_src = _move_multi((bufs, dsts, srcs),
                                                 hop_counts)
        held, held_dst, held_src = new_held, new_dst, new_src

        group = sides[k]
        bytes_out = hop_counts.sum(axis=1).astype(np.float64) * row_bytes
        bytes_in = hop_counts.sum(axis=0).astype(np.float64) * row_bytes
        cost = np.array([
            comm.machine.cost.alltoall_dense(group, bytes_out[r],
                                             bytes_in[r],
                                             comm.machine.threads)
            for r in range(size)
        ])
        fi = comm.machine.faults
        if fi is not None:
            cost = _on_exchange(fi, comm, f"alltoallv_multilevel/hop{k}",
                                new_held, row_bytes, bytes_out, bytes_in,
                                cost)
        comm.machine.bytes_communicated += float(bytes_out.sum())
        _record_trace(comm, hop_counts, row_bytes,
                      op=f"alltoallv_multilevel/hop{k}")
        comm._sync_and_charge(cost, op=f"alltoallv_multilevel/hop{k}",
                              nbytes=float(bytes_out.sum()))
        hop_rows.append(int(hop_counts.sum()))

    san = comm.machine.sanitizer
    if san is not None:
        san.check_multilevel(size, d, int(counts.sum()), hop_rows, sides)

    recvbufs: List[np.ndarray] = []
    recvcounts: List[np.ndarray] = []
    for j in range(size):
        if len(held_dst[j]) and not (held_dst[j] == j).all():
            raise RuntimeError("multilevel routing failed to converge")
        order = np.argsort(held_src[j], kind="stable")
        recvbufs.append(np.ascontiguousarray(held[j][order]))
        rc = np.zeros(size, dtype=np.int64)
        if len(held_src[j]):
            np.add.at(rc, held_src[j], 1)
        recvcounts.append(rc)
    return recvbufs, recvcounts


# ----------------------------------------------------------------------
# Differential harness: run production and oracle on twin machines and
# compare everything either the caller or the simulated machine can see.
# ----------------------------------------------------------------------
class SpyInjector(FaultInjector):
    """A fault injector that also records every rank's payload at every hop.

    Materialising draws nothing from the RNG, so the spy leaves the fault
    stream of the run it watches untouched.
    """

    def __init__(self, machine, schedule):
        super().__init__(machine, schedule)
        self.hops = []

    def on_exchange(self, comm, op, held_sizes, materialise, *rest):
        self.hops.append((op, np.array(held_sizes), [
            np.array(np.atleast_1d(materialise(j)))
            for j in range(comm.size)]))
        return super().on_exchange(comm, op, held_sizes, materialise, *rest)


def sparse_exchange(rng, p, cols=3, dtype=np.int64, max_rows=9,
                    silent=0.3, empty=False):
    """A random sparse exchange: ``silent`` of the PEs send nothing, the
    others a few rows to a handful of ranks.  ``cols=0`` gives 1-D rows."""
    sendbufs, sendcounts = [], []
    for _ in range(p):
        k = 0 if empty or rng.random() < silent \
            else int(rng.integers(1, max_rows))
        dest = np.sort(rng.integers(0, p, k))
        counts = np.zeros(p, dtype=np.int64)
        np.add.at(counts, dest, 1)
        shape = (k, cols) if cols else (k,)
        sendbufs.append(rng.integers(0, 10 ** 6, shape).astype(dtype))
        sendcounts.append(counts)
    return sendbufs, sendcounts


def observed(machine):
    """Everything the simulated machine recorded, in comparable form."""
    mx = machine.metrics
    out = {
        "clock": machine.clock.copy(),
        "bytes": machine.bytes_communicated,
        "n_collectives": machine.n_collectives,
        "trace": machine.trace.matrix.copy(),
        "n_exchanges": machine.trace.n_exchanges,
        "counters": {k: c.value for k, c in mx.counters().items()
                     if k.startswith(("alltoall/", "collective/"))},
        "histograms": {k: (h.count, h.total, h.min, h.max, dict(h.buckets))
                       for k, h in mx.histograms().items()},
        "pe_counters": {k: c.values.copy()
                        for k, c in mx.pe_counters().items()},
        # The hop-conservation check is new with the accounted hops; every
        # other check family must have run exactly as often.
        "sanitizer": {k: v for k, v in machine.sanitizer.counters.items()
                      if k != "hop_checks"},
        "shadow": machine.sanitizer.comm_matrix.copy(),
        "events": [e[:5] + e[6:] for e in machine.events._buf],
    }
    fi = machine.faults
    if fi is not None:
        out["faults"] = fi.summary()
        out["rng"] = fi.rng.bit_generator.state
        out["hops"] = fi.hops
    return out


def _assert_equal(a, b, path=""):
    assert type(a) is type(b), (path, type(a), type(b))
    if isinstance(a, dict):
        assert a.keys() == b.keys(), (path, sorted(a), sorted(b))
        for k in a:
            _assert_equal(a[k], b[k], f"{path}/{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), (path, len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, (
            path, a.dtype, b.dtype, a.shape, b.shape)
        assert np.array_equal(a, b), path
    else:
        assert a == b, (path, a, b)


def run_observed(fn, p, sendbufs, sendcounts, faults=None, ranks=None,
                 **kwargs):
    """Run ``fn`` on a fresh fully observed machine; returns its results
    and :func:`observed`.  ``ranks`` selects a sub-communicator of a
    ``2 p``-PE machine (the exchange itself is always over ``p`` ranks)."""
    machine = Machine(p if ranks is None else 2 * p, trace=True,
                      sanitize=True, trace_events=True,
                      faults=faults if faults else False)
    if machine.faults is not None:
        machine.faults = SpyInjector(machine, machine.faults.schedule)
    comm = Comm(machine) if ranks is None else Comm(machine).sub(ranks)
    recvbufs, recvcounts = fn(comm, sendbufs, sendcounts, **kwargs)
    return recvbufs, recvcounts, observed(machine)


def assert_same_exchange(fn, ref_fn, p, sendbufs, sendcounts, **kwargs):
    """``fn`` and the oracle ``ref_fn`` are indistinguishable on one exchange."""
    got_bufs, got_counts, got = run_observed(fn, p, sendbufs, sendcounts,
                                             **kwargs)
    ref_bufs, ref_counts, ref = run_observed(ref_fn, p, sendbufs, sendcounts,
                                             **kwargs)
    _assert_equal(got, ref)
    for j in range(p):
        assert got_bufs[j].dtype == ref_bufs[j].dtype, j
        assert got_bufs[j].shape == ref_bufs[j].shape, j
        assert np.array_equal(got_bufs[j], ref_bufs[j]), j
        assert got_bufs[j].flags.c_contiguous, j
        assert got_counts[j].dtype == ref_counts[j].dtype, j
        assert np.array_equal(got_counts[j], ref_counts[j]), j
    return got
