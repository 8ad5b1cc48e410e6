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
(home PE, vertex) and charged under the configured sparse all-to-all --
running this exchange through the two-level grid scheme is what Fig. 2 is
about; the host answers the round in one gather
(:func:`repro.simmpi.alltoall.ask`).

Every non-root local vertex's selected edge is an MST edge (min-cut
property) and is recorded; the final parent array is the per-vertex
component-root label ``L_local`` consumed by EXCHANGELABELS/RELABEL.

The state of all PEs is held flat and every step of a round is one
segmented kernel call (see :mod:`repro.kernels`); the per-PE loops and the
routed round this replaced are the oracles of the differential tests
(``tests/_loop_reference.py``).
"""

from __future__ import annotations

import numpy as np

from ..dgraph.dist_graph import DistGraph
from ..dgraph.search import sorted_lookup
from ..kernels import segment_ids, segmented_lookup
from ..simmpi.alltoall import ask
from .minedges import ChosenEdges
from .state import MSTRun


def contract_components(
    graph: DistGraph,
    chosen: ChosenEdges,
    run: MSTRun,
) -> np.ndarray:
    """Contract the components induced by the chosen edges.

    Returns ``L_local``: the component-root label of every local vertex,
    aligned with ``chosen.vids``.  Records MST edges and reports label maps
    to the run's label sink.
    """
    p = graph.machine.n_procs
    machine = graph.machine
    comm = run.comm
    shared_set = graph.shared_vertex_set()

    vids, shared, to, voff = chosen.vids, chosen.shared, chosen.to, chosen.voff
    vseg = segment_ids(voff)

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
        # Each pending u asks the home of its parent v for pv = parent(v),
        # deduplicated per PE; owners answer from the state at round start
        # (BSP semantics).
        pend_pos = np.flatnonzero(pend)
        targets = par[pend_pos]

        def answer(q: np.ndarray, owner: np.ndarray) -> np.ndarray:
            found, idx = segmented_lookup(vids, voff, q, owner)
            if not found.all():
                raise RuntimeError(
                    f"PE {int(owner[~found].min())}: pointer-doubling query "
                    f"for non-resident vertex")
            return np.stack([q, par[voff[owner] + idx]], axis=1)

        pv = ask(comm, run.cfg.alltoall, targets, vseg[pend_pos],
                 graph.home_of_vertices, answer)[:, 1]
        u = vids[pend_pos]
        v = targets
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
        machine.charge_scan(pend_counts)
    else:
        raise RuntimeError("pointer doubling failed to converge")

    # ------------------------------------------------------------------
    # Record MST edges and label maps.
    # ------------------------------------------------------------------
    contributes = ~shared & ~root
    cpos = np.flatnonzero(contributes)
    c_ids = chosen.edge_id[cpos]
    c_ws = chosen.weight[cpos]
    coff = np.searchsorted(cpos, voff)
    for i in range(p):
        run.record_mst(i, c_ids[coff[i]:coff[i + 1]],
                       c_ws[coff[i]:coff[i + 1]])
        run.record_labels(i, vids[voff[i]:voff[i + 1]],
                          par[voff[i]:voff[i + 1]])
    return par
