"""CONTRACTCOMPONENTS: pseudo-tree rooting and pointer doubling (Section IV-B).

The minimum incident edges selected by MINEDGES define pseudo trees (trees
plus one 2-cycle).  They are converted to rooted stars by

* declaring every *shared* vertex a component root (no communication needed:
  shared-ness is decidable from the replicated graph metadata -- the paper's
  trick for avoiding contention at high-degree vertices), and
* breaking each 2-cycle by rooting at the smaller vertex label,

then pointer doubling: each still-pending vertex ``u`` with parent ``v``
requests ``parent(v)`` from ``v``'s home PE and replaces its parent by the
answer, halving the tree depth per round.  Requests are deduplicated per
(home PE, vertex) and delivered with the configured sparse all-to-all --
running this exchange through the two-level grid scheme is what Fig. 2 is
about.

Every non-root local vertex's selected edge is an MST edge (min-cut
property) and is recorded; the final parent array is the per-vertex
component-root label ``L_local`` consumed by EXCHANGELABELS/RELABEL.

The state of all PEs is held flat and every step of a round is one
segmented kernel call (see :mod:`repro.kernels`); the per-PE loops this
replaced are the oracle of the differential tests
(``tests/_loop_reference.py``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..dgraph.dist_graph import DistGraph
from ..dgraph.search import sorted_lookup
from ..kernels import segmented_lookup, segmented_unique
from ..simmpi.alltoall import route_rows, unsort
from .minedges import ChosenEdges
from .state import MSTRun


def contract_components(
    graph: DistGraph,
    chosen: List[ChosenEdges],
    run: MSTRun,
) -> List[np.ndarray]:
    """Contract the components induced by the chosen edges.

    Returns per-PE ``L_local``: the component-root label of every local
    vertex, aligned with ``chosen[i].vids``.  Records MST edges and reports
    label maps to the run's label sink.
    """
    p = graph.machine.n_procs
    machine = graph.machine
    comm = run.comm
    shared_set = graph.shared_vertex_set()

    lengths = np.array([len(c.vids) for c in chosen], dtype=np.int64)
    voff = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(lengths, out=voff[1:])
    z = np.empty(0, dtype=np.int64)
    vids = np.concatenate([c.vids for c in chosen]) if voff[-1] else z
    shared = np.concatenate([c.shared for c in chosen]) \
        if voff[-1] else np.zeros(0, dtype=bool)
    to = np.concatenate([c.to for c in chosen]) if voff[-1] else z
    vseg = np.repeat(np.arange(p, dtype=np.int64), lengths)

    par = np.where(shared, vids, to)
    root = shared.copy()
    parent_shared = sorted_lookup(shared_set, par)[0]
    pend = ~shared & ~parent_shared

    # ------------------------------------------------------------------
    # Pointer-doubling rounds.
    # ------------------------------------------------------------------
    max_rounds = run.cfg.max_rounds
    for round_no in range(max_rounds):
        pend_counts = np.bincount(vseg[pend], minlength=p)
        n_pending = comm.allreduce([int(c) for c in pend_counts])
        if n_pending == 0:
            break
        # Deduplicated queries: distinct parent targets per PE.
        pend_pos = np.flatnonzero(pend)
        targets = par[pend_pos]
        tseg = vseg[pend_pos]
        uniq, uoff, inv = segmented_unique(targets, tseg, p)
        qlens = np.diff(uoff)
        queries = [uniq[uoff[i]:uoff[i + 1]] for i in range(p)]
        dest_flat = graph.home_of_vertices(uniq)
        dests = [dest_flat[uoff[i]:uoff[i + 1]] for i in range(p)]
        recv, recv_src, orders = route_rows(
            comm, queries, dests, method=run.cfg.alltoall
        )
        # Answer from the state at round start (BSP semantics).
        recv_lens = np.array([len(q) for q in recv], dtype=np.int64)
        roff = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(recv_lens, out=roff[1:])
        q_flat = np.concatenate(recv) if roff[-1] else z
        qseg = np.repeat(np.arange(p, dtype=np.int64), recv_lens)
        found, idx = segmented_lookup(vids, voff, q_flat, qseg)
        if not found.all():
            bad = int(qseg[~found][0])
            raise RuntimeError(
                f"PE {bad}: pointer-doubling query for non-resident vertex"
            )
        pv_rep = par[voff[qseg] + idx]
        rep_flat = np.stack([q_flat, pv_rep], axis=1)
        replies = [rep_flat[roff[i]:roff[i + 1]] for i in range(p)]
        nz_recv = np.flatnonzero(recv_lens)
        if len(nz_recv):
            machine.charge_hash(recv_lens[nz_recv], ranks=nz_recv)
        back, _, _ = route_rows(comm, replies, recv_src,
                                method=run.cfg.alltoall)
        # Apply: each pending u with target v learns pv = parent(v).
        b_flat = np.concatenate(back, axis=0)
        order_flat = np.concatenate(orders) if uoff[-1] else z
        global_order = order_flat + np.repeat(uoff[:-1], qlens)
        ordered = np.empty_like(b_flat)
        ordered[global_order] = b_flat  # unsort(), all PEs at once
        assert np.array_equal(ordered[:, 0], uniq)
        pv_per_query = ordered[:, 1]
        u = vids[pend_pos]
        v = targets
        pv = pv_per_query[uoff[tseg] + inv]
        # 2-cycle: v's parent is u itself; root at the smaller label.
        cyc = pv == u
        win = cyc & (u < v)
        lose = cyc & ~win
        par[pend_pos[win]] = u[win]
        root[pend_pos[win]] = True
        pend[pend_pos[win]] = False
        par[pend_pos[lose]] = v[lose]
        pend[pend_pos[lose]] = False
        # Regular doubling: adopt pv; finalise when v was a root or the
        # new parent is a shared vertex (local check, paper IV-B).
        reg = ~cyc
        par[pend_pos[reg]] = pv[reg]
        v_is_root = pv == v
        new_shared = sorted_lookup(shared_set, pv)[0]
        done = reg & (v_is_root | new_shared)
        pend[pend_pos[done]] = False
        nz_q = np.flatnonzero(qlens)
        machine.charge_scan(pend_counts[nz_q], ranks=nz_q)
    else:
        raise RuntimeError("pointer doubling failed to converge")

    # ------------------------------------------------------------------
    # Record MST edges and label maps.
    # ------------------------------------------------------------------
    contributes = ~shared & ~root
    cpos = np.flatnonzero(contributes)
    c_ids = (np.concatenate([c.edge_id for c in chosen])
             if voff[-1] else z)[cpos]
    c_ws = (np.concatenate([c.weight for c in chosen])
            if voff[-1] else z)[cpos]
    ccounts = np.bincount(vseg[cpos], minlength=p)
    coff = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(ccounts, out=coff[1:])
    for i in range(p):
        run.record_mst(i, c_ids[coff[i]:coff[i + 1]],
                       c_ws[coff[i]:coff[i + 1]])
        run.record_labels(i, vids[voff[i]:voff[i + 1]],
                          par[voff[i]:voff[i + 1]])
    return [par[voff[i]:voff[i + 1]] for i in range(p)]
