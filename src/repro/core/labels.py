"""EXCHANGELABELS and RELABEL (Sections IV-B / IV-C).

After contraction, each PE knows the new label (component root) of its
*local* vertices.  Ghost vertices' labels are obtained by pushing: "for each
cut edge (u, v) the new label of u is sent to the home PE of (v, u)"; the
home PE of the *reverse directed edge* is located by lexicographic binary
search on the replicated min-edge array.  Duplicate messages for the same
(destination PE, vertex) pair are sent only once.

RELABEL then rewrites every edge ``(u, v)`` to ``(u', v')`` and discards
self loops; parallel-edge elimination happens later in REDISTRIBUTE.

Both steps run over all PEs' edges at once and read the sorted-by-source
layout instead of searching it: a source's label sits at the index of its
run in the part (``vids_per_pe[i]`` *is* part ``i``'s distinct sources in
order), duplicates of a pushed ``(destination PE, vertex)`` pair are
adjacent rows, and destination labels come from the direct-address table
of :func:`repro.kernels.segmented_lookup`.  The push is charged from its
count matrix and no row moves.  The per-PE loops and the routed push they
replaced are the oracles of the differential tests
(``tests/_loop_reference.py``): payload rows, ghost tables, relabelled edges
and simulated costs are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..kernels.segmented import packed_lexsort

from ..dgraph.dist_graph import DistGraph
from ..dgraph.edges import Edges
from ..dgraph.search import sorted_lookup
from ..kernels import segmented_lookup, segmented_run_starts
from ..simmpi.alltoall import SendBlock, account
from .state import MSTRun


@dataclass
class GhostTable:
    """Sorted ghost-vertex -> new-label mapping for one PE."""

    ghosts: np.ndarray
    labels: np.ndarray

    def lookup(self, v: np.ndarray) -> np.ndarray:
        """New labels of the given ghost vertices (all must be present)."""
        found, idx = sorted_lookup(self.ghosts, v)
        if not found.all():
            missing = np.asarray(v)[~found][:5]
            raise RuntimeError(f"ghost labels missing for vertices {missing}")
        return self.labels[idx]


def _source_labels(eu: np.ndarray, off: np.ndarray, voff: np.ndarray,
                   labels: np.ndarray) -> np.ndarray:
    """New label of every edge's source, read off the layout.

    Parts are sorted by source, so the k-th run of equal sources of part
    ``i`` is the k-th entry of ``vids_per_pe[i]``: repeating each label over
    its run replaces a per-edge binary search.  Raises when the vertex
    lists are not the parts' own vertex groups (a different number of
    entries than runs on some PE), which would shift every label behind it.
    """
    starts = np.flatnonzero(segmented_run_starts(eu, off))
    runs_before = np.searchsorted(starts, off)
    if not np.array_equal(runs_before, voff):
        bad = int(np.flatnonzero(runs_before != voff)[0]) - 1
        raise ValueError(
            f"vids_per_pe[{bad}] is not part {bad}'s vertex groups: "
            f"{int(voff[bad + 1] - voff[bad])} entries for "
            f"{int(runs_before[bad + 1] - runs_before[bad])} distinct sources")
    return np.repeat(labels, np.diff(starts, append=len(eu)))


def exchange_labels(
    graph: DistGraph,
    vids_per_pe: List[np.ndarray],
    labels_per_pe: List[np.ndarray],
    run: MSTRun,
) -> List[GhostTable]:
    """Push new local-vertex labels to every PE that has them as ghosts."""
    p = graph.machine.n_procs
    machine = graph.machine
    parts = graph.parts
    lengths = np.array([len(part) for part in parts], dtype=np.int64)
    total = int(lengths.sum())
    z = np.empty(0, dtype=np.int64)

    if total:
        eu = np.concatenate([np.asarray(part.u) for part in parts])
        ev = np.concatenate([np.asarray(part.v) for part in parts])
        ew = np.concatenate([np.asarray(part.w) for part in parts])
    else:
        eu = ev = ew = z
    off = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(lengths, out=off[1:])
    seg = np.repeat(np.arange(p, dtype=np.int64), lengths)
    vlens = np.array([len(v) for v in vids_per_pe], dtype=np.int64)
    voff = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(vlens, out=voff[1:])
    labels = np.concatenate(labels_per_pe) if voff[-1] else z

    # Home PE of every reverse edge (v, u, w).  The label of u must be
    # pushed wherever the reverse edge lives on a *different* PE.  This
    # covers all cut edges (the paper's rule) plus the corner case where
    # an edge is local here because its destination is a shared vertex,
    # while the shared vertex's other PE holds the reverse edge as a cut
    # edge and still needs our source's label.
    home_all = graph.home_of_edges(ev, eu, ew)
    cut_pos = np.flatnonzero(home_all != seg)
    cu = eu[cut_pos]
    home = home_all[cut_pos]
    cseg = seg[cut_pos]
    lab = _source_labels(eu, off, voff, labels)[cut_pos]
    # Deduplicate per (destination PE, vertex).  The rows of one source are
    # sorted by (v, w) and the home of (v, u, w) is monotone in (v, w) for a
    # fixed u, so copies of a (source, home) pair are adjacent: keep the
    # first of each run, then one stable sort by (PE, home) puts the
    # survivors -- still ascending in the vertex -- in (PE, home, vertex)
    # order, destination-sorted per PE.
    first = np.ones(len(cut_pos), dtype=bool)
    first[1:] = ((cu[1:] != cu[:-1]) | (home[1:] != home[:-1])
                 | (cseg[1:] != cseg[:-1]))
    keep = np.flatnonzero(first)
    pdest = home[keep]
    pseg = cseg[keep]
    order = packed_lexsort((pdest, pseg), ranges=((0, p - 1), (0, p - 1)))
    sel = keep[order]
    pdest = pdest[order]
    pay = np.empty((len(sel), 2), dtype=np.result_type(cu, lab))
    pay[:, 0] = cu[sel]
    pay[:, 1] = lab[sel]
    # pseg is ascending, so the sort left it in place.
    counts = np.bincount(pseg * p + pdest, minlength=p * p).reshape(p, p)
    nz = np.flatnonzero(lengths)
    if len(nz):
        cut_counts = np.diff(np.searchsorted(cut_pos, off))
        machine.charge_scan(lengths[nz], ranks=nz)
        machine.charge_sort(np.maximum(cut_counts[nz], 1), ranks=nz)

    account(run.comm, run.cfg.alltoall, pay, counts, lambda: SendBlock(pay))
    # A home keeps the first copy of a ghost in its source-major receive
    # order: the stable sort by (home, vertex) keeps equal keys that way.
    order = packed_lexsort((pay[:, 0], pdest), ranges=(None, (0, p - 1)))
    g = pay[order, 0]
    l = pay[order, 1]
    s_s = pdest[order]
    first = np.ones(len(g), dtype=bool)
    if len(g) > 1:
        first[1:] = (g[1:] != g[:-1]) | (s_s[1:] != s_s[:-1])
    gh = g[first]
    gl = l[first]
    gcounts = np.bincount(s_s[first], minlength=p)
    goff = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(gcounts, out=goff[1:])
    tables = [GhostTable(gh[goff[i]:goff[i + 1]], gl[goff[i]:goff[i + 1]])
              for i in range(p)]
    machine.charge_hash(counts.sum(axis=0))
    return tables


def relabel(
    graph: DistGraph,
    vids_per_pe: List[np.ndarray],
    labels_per_pe: List[np.ndarray],
    ghost_tables: List[GhostTable],
    run: MSTRun,
) -> List[Edges]:
    """RELABEL: rewrite endpoints to component roots, drop self loops."""
    p = graph.machine.n_procs
    parts = graph.parts
    lengths = np.array([len(part) for part in parts], dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return [Edges.empty() for _ in range(p)]
    eu = np.concatenate([np.asarray(part.u) for part in parts])
    ev = np.concatenate([np.asarray(part.v) for part in parts])
    ew = np.concatenate([np.asarray(part.w) for part in parts])
    eid = np.concatenate([np.asarray(part.id) for part in parts])
    off = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(lengths, out=off[1:])
    seg = np.repeat(np.arange(p, dtype=np.int64), lengths)

    z = np.empty(0, dtype=np.int64)
    voff = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(np.array([len(v) for v in vids_per_pe], dtype=np.int64),
              out=voff[1:])
    vids = np.concatenate(vids_per_pe) if voff[-1] else z
    labels = np.concatenate(labels_per_pe) if voff[-1] else z

    # Source labels: every source is local by definition.
    u_new = _source_labels(eu, off, voff, labels)
    # Destination labels: local lookup where possible, ghosts otherwise.
    v_local, idx = segmented_lookup(vids, voff, ev, seg)
    v_new = np.empty_like(ev)
    v_new[v_local] = labels[(voff[seg] + idx)[v_local]]
    miss = np.flatnonzero(~v_local)
    if len(miss):
        mv, mseg = ev[miss], seg[miss]
        goff = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(np.array([len(t.ghosts) for t in ghost_tables],
                           dtype=np.int64), out=goff[1:])
        ghosts = np.concatenate([t.ghosts for t in ghost_tables]) \
            if goff[-1] else z
        glabels = np.concatenate([t.labels for t in ghost_tables]) \
            if goff[-1] else z
        g_found, g_idx = segmented_lookup(ghosts, goff, mv, mseg)
        if not g_found.all():
            missing = mv[~g_found][:5]
            raise RuntimeError(f"ghost labels missing for vertices {missing}")
        v_new[miss] = glabels[goff[mseg] + g_idx]
    keep_pos = np.flatnonzero(u_new != v_new)
    koff = np.searchsorted(keep_pos, off)  # kept rows before each part
    ku = u_new[keep_pos]
    kv = v_new[keep_pos]
    kw = ew[keep_pos]
    kid = eid[keep_pos]
    out: List[Edges] = []
    for i in range(p):
        if lengths[i] == 0:
            out.append(Edges.empty())
            continue
        sl = slice(koff[i], koff[i + 1])
        out.append(Edges(ku[sl], kv[sl], kw[sl], kid[sl]))
    nz = np.flatnonzero(lengths)
    graph.machine.charge_scan(lengths[nz], ranks=nz)
    return out
