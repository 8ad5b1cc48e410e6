"""EXCHANGELABELS and RELABEL (Sections IV-B / IV-C).

After contraction, each PE knows the new label (component root) of its
*local* vertices.  Ghost vertices' labels are obtained by pushing: "for each
cut edge (u, v) the new label of u is sent to the home PE of (v, u)"; the
home PE of the *reverse directed edge* is located by lexicographic binary
search on the replicated min-edge array.  Duplicate messages for the same
(destination PE, vertex) pair are sent only once.

RELABEL then rewrites every edge ``(u, v)`` to ``(u', v')`` and discards
self loops; parallel-edge elimination happens later in REDISTRIBUTE.

Both steps read the graph's block and the round's flat vertex lists
(``vids``/``labels``, PE ``i``'s at ``voff[i]:voff[i + 1]``) and the
sorted-by-source layout instead of searching it: a source's label sits at
the index of its run in the part (PE ``i``'s vertex list *is* part ``i``'s
distinct sources in order), and duplicates of a pushed ``(destination PE,
vertex)`` pair are adjacent rows.  The push is charged from its count
matrix and no row moves: EXCHANGELABELS returns it as a
:class:`LabelPush`, with the source labels it built, and RELABEL answers
every destination label from one host lookup over the vertex lists
(globally sorted; a shared vertex carries one label on every PE that holds
it) and returns the kept edges as one block with offsets.
What the receivers' ghost tables would have guaranteed is checked as a
set: every destination is local to its PE or was pushed there (one
:func:`repro.kernels.segmented_isin`).  The per-PE loops, the per-PE ghost
tables and the routed push they replaced are the oracles of the
differential tests (``tests/_loop_reference.py``): payload rows, ghost
tables, relabelled edges and simulated costs are identical.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import Edges
from ..kernels import segment_ids, segmented_isin, segmented_lookup
from ..kernels.segmented import packed_lexsort
from ..simmpi.alltoall import SendBlock, account
from .state import MSTRun


class LabelPush(NamedTuple):
    """What EXCHANGELABELS pushed, and the source labels it built.

    PE ``home[k]`` receives ``(vertex[k], label[k])``: one row per (sender
    PE, home, vertex), sender-major and in source order within a sender.
    ``src_label`` is every edge's new source label, which RELABEL would
    otherwise rebuild.
    """

    home: np.ndarray
    vertex: np.ndarray
    label: np.ndarray
    src_label: np.ndarray


def _check_groups(runs_before: np.ndarray, voff: np.ndarray) -> None:
    """Raise unless the vertex lists (offsets ``voff``) are the parts' own
    vertex groups (``runs_before``): a different number of entries than
    runs on some PE would shift every label behind it."""
    if not np.array_equal(runs_before, voff):
        bad = int(np.flatnonzero(runs_before != voff)[0]) - 1
        raise ValueError(
            f"vids_per_pe[{bad}] is not part {bad}'s vertex groups: "
            f"{int(voff[bad + 1] - voff[bad])} entries for "
            f"{int(runs_before[bad + 1] - runs_before[bad])} distinct sources")


def exchange_labels(
    graph: DistGraph,
    vids: np.ndarray,
    labels: np.ndarray,
    voff: np.ndarray,
    run: MSTRun,
) -> LabelPush:
    """Push new local-vertex labels to every PE that has them as ghosts.

    ``vids``/``labels`` are every PE's local vertices and their new labels
    laid end to end, PE ``i``'s at ``voff[i]:voff[i + 1]``.
    """
    p = graph.machine.n_procs
    machine = graph.machine
    e, off = graph.edges, graph.offsets
    eu, ev, ew = e.u, e.v, e.w
    lengths = np.diff(off)
    seg = graph.row_pes()
    # Source labels, read off the layout: parts are sorted by source, so the
    # k-th run of equal sources of part i is the k-th vertex of PE i.
    starts = graph.source_runs()
    _check_groups(graph.run_offsets(), voff)
    src_label = np.repeat(labels, np.diff(starts, append=len(eu)))

    # Home PE of every reverse edge (v, u, w).  The label of u must be
    # pushed wherever the reverse edge lives on a *different* PE.  This
    # covers all cut edges (the paper's rule) plus the corner case where
    # an edge is local here because its destination is a shared vertex,
    # while the shared vertex's other PE holds the reverse edge as a cut
    # edge and still needs our source's label.
    home_all = graph.home_of_edges(ev, eu, ew)  # the width of ``seg``
    cut_pos = np.flatnonzero(home_all != seg)
    cu = eu[cut_pos]
    home = home_all[cut_pos]
    del home_all
    cseg = seg[cut_pos]
    # Deduplicate per (destination PE, vertex).  The rows of one source are
    # sorted by (v, w) and the home of (v, u, w) is monotone in (v, w) for a
    # fixed u, so copies of a (source, home) pair are adjacent: keep the
    # first of each run.
    first = np.ones(len(cut_pos), dtype=bool)
    first[1:] = cu[1:] != cu[:-1]
    first[1:] |= home[1:] != home[:-1]
    first[1:] |= cseg[1:] != cseg[:-1]
    keep = np.flatnonzero(first)
    del first
    pdest = home[keep]
    pseg = cseg[keep]
    del home, cseg
    pay = np.empty((len(keep), 2), dtype=np.result_type(cu, src_label))
    pay[:, 0] = cu[keep]
    del cu
    pay[:, 1] = src_label[cut_pos[keep]]
    cut_counts = np.diff(np.searchsorted(cut_pos, off))
    del keep, cut_pos
    cell = pseg.astype(np.int64)  # (PE, home) cells need p^2 ids
    cell *= p
    cell += pdest
    counts = np.bincount(cell, minlength=p * p).reshape(p, p)
    del cell
    nz = np.flatnonzero(lengths)
    if len(nz):
        machine.charge_scan(lengths[nz], ranks=nz)
        machine.charge_sort(np.maximum(cut_counts[nz], 1), ranks=nz)

    # A corruption victim's send side is each PE's rows destination-sorted,
    # i.e. in (PE, home, vertex) order: one stable sort, built only then.
    account(run.comm, run.cfg.alltoall, pay, counts, lambda: SendBlock(
        pay, packed_lexsort((pdest, pseg), ranges=((0, p - 1), (0, p - 1)))))
    machine.charge_hash(counts.sum(axis=0))
    return LabelPush(pdest, pay[:, 0], pay[:, 1], src_label)


def relabel(
    graph: DistGraph,
    vids: np.ndarray,
    labels: np.ndarray,
    voff: np.ndarray,
    push: LabelPush,
    run: MSTRun,
) -> Tuple[Edges, np.ndarray]:
    """RELABEL: rewrite endpoints to component roots, drop self loops.

    Returns the kept edges as one block and its ``p + 1`` offsets.
    """
    p = graph.machine.n_procs
    e, off = graph.edges, graph.offsets
    ev = e.v
    lengths = np.diff(off)
    seg = graph.row_pes()
    _check_groups(graph.run_offsets(), voff)

    # Every destination must be local to its PE or pushed to it: what a
    # lookup in the PE's ghost table would have found.
    covered = segmented_isin(np.concatenate([vids, push.vertex]),
                             np.concatenate([segment_ids(voff), push.home]),
                             ev, seg, p)
    if not covered.all():
        raise RuntimeError(
            f"ghost labels missing for vertices {ev[~covered][:5]}")
    # The vertex lists concatenate to one sorted list in which a shared
    # vertex repeats: its copies must agree, then the first one answers.
    bad = np.flatnonzero((vids[1:] < vids[:-1]) | (
        (vids[1:] == vids[:-1]) & (labels[1:] != labels[:-1])))
    if len(bad):
        k = int(bad[0])
        raise ValueError(
            f"vertex lists are not one sorted list with one label per "
            f"vertex: ({vids[k]}, label {labels[k]}) is followed by "
            f"({vids[k + 1]}, label {labels[k + 1]})")
    # One segment: every needle is in segment 0, a zero-stride view.
    found, idx = segmented_lookup(vids, voff[[0, -1]], ev,
                                  np.broadcast_to(np.int64(0), len(ev)))
    if not found.all():
        raise RuntimeError(
            f"ghost labels missing for vertices {ev[~found][:5]}")
    v_new = labels[idx].astype(ev.dtype, copy=False)
    keep_pos = np.flatnonzero(push.src_label != v_new)
    kept = Edges(push.src_label[keep_pos], v_new[keep_pos], e.w[keep_pos],
                 e.id[keep_pos])
    nz = np.flatnonzero(lengths)
    graph.machine.charge_scan(lengths[nz], ranks=nz)
    return kept, np.searchsorted(keep_pos, off)
