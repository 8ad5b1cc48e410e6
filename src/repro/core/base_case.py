"""BASECASE: Borůvka with a replicated vertex set (Section IV-D, Adler et al.).

Once the global number of vertices is small enough to store on a single PE,
the distributed rounds stop paying off.  The remaining vertex labels are
remapped to a dense range and *replicated*; edges stay distributed
(unsorted -- no more redistribution).  Each round, every PE computes the
locally best incident-edge candidate for every dense vertex; one vector
allreduce of length n' (with a lexicographic row-minimum operator) makes the
globally lightest edges known everywhere, after which contraction is a
purely local, replicated computation exactly like sequential Borůvka.

MST edges are recorded once (on PE 0; the information is replicated) and
flow to their home PEs in REDISTRIBUTEMST like all other MST edges.
"""

from __future__ import annotations

import numpy as np

from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import WEIGHT_LIMIT, lightest_per_group, tie_key
from ..kernels import segment_ids, segmented_unique
from ..seq.boruvka import contract_pseudo_forest
from .state import MSTRun

#: Sentinel weight for "no candidate edge": above every accepted weight.
INF = np.int64(WEIGHT_LIMIT)


class _RowMin:
    """Elementwise lexicographic minimum of (n, k) candidate tables.

    Rows compare by columns left to right.  Calling it is the pairwise
    allreduce operator (associative and commutative); :meth:`reduce` is
    the fold of all ``p`` tables at once, which ``Comm`` takes instead.
    """

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        take_b = np.zeros(len(a), dtype=bool)
        tie = np.ones(len(a), dtype=bool)
        for c in range(a.shape[1]):
            take_b |= tie & (b[:, c] < a[:, c])
            tie &= b[:, c] == a[:, c]
        return np.where(take_b[:, None], b, a)

    def reduce(self, tables) -> np.ndarray:
        """The minimum over a ``(p, n, k)`` stack, column by column: only
        the rows tied so far compete for the next column (a full tie is
        the same row, whichever is taken)."""
        tables = np.asarray(tables)
        alive = np.ones(tables.shape[:2], dtype=bool)
        for c in range(tables.shape[2]):
            col = tables[:, :, c]
            best = np.where(alive, col, np.iinfo(col.dtype).max).min(axis=0)
            alive &= col == best
        return tables[alive.argmax(axis=0), np.arange(tables.shape[1])]


_row_min = _RowMin()


def base_case(graph: DistGraph, run: MSTRun):
    """Finish the MSF computation with the replicated-vertex algorithm.

    Returns the final (replicated) component map as a pair of arrays
    ``(labels, representatives)`` over the vertices that were still present,
    or ``None`` for an empty remainder.
    """
    p = graph.machine.n_procs
    comm = run.comm
    machine = graph.machine

    # ---- Remap the remaining labels to a dense range (replicated). ----
    e, off = graph.edges, graph.offsets
    pe = segment_ids(off)
    local_vids, voff, _ = segmented_unique(e.u, pe, p)
    vlabels = np.unique(comm.allgatherv(np.split(local_vids, voff[1:-1])))
    n_dense = len(vlabels)
    if n_dense == 0:
        return
    machine.check_memory(np.full(p, n_dense * 8 * 6, dtype=np.float64))

    # Dense edge endpoints of all PEs in one flat block (ids and weights
    # ride along); ``pe`` is each row's PE.
    eu = np.searchsorted(vlabels, e.u)
    ev = np.searchsorted(vlabels, e.v)
    ew, eid = e.w, e.id
    machine.charge_scan(np.diff(off), ranks=np.arange(p))

    cur = np.arange(n_dense, dtype=np.int64)  # replicated component labels

    for _ in range(run.cfg.max_rounds):
        counts = np.bincount(pe, minlength=p)
        alive_total = comm.allreduce([int(c) for c in counts])
        if alive_total == 0:
            break
        # ---- Local candidates: per (PE, vertex) the (w, cu, cv, other, id)
        # min, one (n', 5) table per PE. ----
        grp = np.concatenate([eu, ev])
        oth = np.concatenate([ev, eu])
        w2 = np.concatenate([ew, ew])
        rows, pick = lightest_per_group(np.concatenate([pe, pe]) * n_dense
                                        + grp, grp, oth, w2, p * n_dense)
        w, cu, cv = tie_key(grp[pick], oth[pick], w2[pick])
        cand = np.full((p * n_dense, 5), INF, dtype=np.int64)
        cand[rows, 0] = w
        cand[rows, 1] = cu
        cand[rows, 2] = cv
        cand[rows, 3] = oth[pick]
        cand[rows, 4] = np.concatenate([eid, eid])[pick]
        machine.charge_scan(np.maximum(counts, 1) + n_dense,
                            ranks=np.arange(p))
        best = comm.allreduce(cand.reshape(p, n_dense, 5), op=_row_min)

        # ---- Replicated contraction (identical on every PE). ----
        comp = np.flatnonzero(best[:, 0] != INF)
        parent_of = best[comp, 3]
        roots, parent_map = contract_pseudo_forest(comp, parent_of, n_dense)
        # MST edges of all non-root components -- record once.  Ids are
        # distinct here: two components choosing the same directed edge form
        # a 2-cycle, whose root does not record.
        run.record_mst(0, best[comp[~roots], 4], best[comp[~roots], 0])
        # Report the contraction to the label sink in *original* labels.
        changed = parent_map != np.arange(n_dense)
        if changed.any():
            run.record_labels(0, vlabels[np.flatnonzero(changed)],
                              vlabels[parent_map[changed]])
        cur = parent_map[cur]
        machine.charge_scan(np.full(p, n_dense, dtype=np.float64))

        # ---- Relabel local edges, drop self loops. ----
        a = parent_map[eu]
        b = parent_map[ev]
        keep = a != b
        eu, ev, ew, eid, pe = a[keep], b[keep], ew[keep], eid[keep], pe[keep]
        nz = np.flatnonzero(counts)
        machine.charge_scan(counts[nz], ranks=nz)
    else:
        raise RuntimeError("base case failed to converge")
    return vlabels, vlabels[cur]
