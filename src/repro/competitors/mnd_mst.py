"""Reimplementation of MND-MST (Panja & Vadhiyar [18]) -- CPU path.

The paper's second competitor: a multi-node Borůvka that (quoting Section
VII) "uses Borůvka's algorithm to compute local MST edges and to contract
the incident vertices.  Afterwards, fixed size groups of PEs exchange parts
of the previously contracted vertices and iteratively apply Borůvka's
algorithm on their local input.  Once a threshold on the size of the reduced
graph is reached, all group members send their contracted graphs to the
group leader.  Then, the whole process starts again with only the group
leaders performing computations.  As in our algorithms, they use
1D-partitioning.  However, they do not share vertices beyond process
boundaries which can lead to load imbalances for graphs with very skewed
degree distributions."

Reproduced characteristics:

* **no shared vertices**: all edges of a boundary vertex are first moved to
  one PE, so a high-degree vertex concentrates its entire neighbourhood on
  one process -- the load-imbalance mechanism that hurts MND-MST on
  RMAT/social graphs (the per-PE clocks pick this up automatically);
* **local Borůvka + hierarchical group merge**: each level, groups of
  ``group_size`` PEs ship their remaining graphs *and their accumulated
  contraction maps* to the group leader, which relabels and contracts
  everything it can prove locally; levels repeat until one PE holds the
  remainder and finishes;
* **memory concentration**: leaders accumulate entire subgraphs; with a
  machine memory limit this is what makes the real code crash beyond ~1024
  cores (Section VII-A) -- the simulation raises
  :class:`~repro.simmpi.machine.SimulatedOutOfMemory` in the same regime.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..dgraph.dist_graph import DistGraph, source_groups, split_edges
from ..dgraph.edges import Edges
from ..kernels import RaggedArrays, first_in_group, packed_lexsort
from ..simmpi.alltoall import route_rows
from ..core.boruvka import InputSnapshot, MSTResult, mst_output
from ..core.config import BoruvkaConfig
from ..core.local_preprocessing import _contract_one_pe, destinations
from ..core.rounds import RoundBody, RoundScheduler, RoundStats
from ..core.state import MSTRun

#: Merge-hierarchy levels before the scheduler declares divergence.
MAX_LEVELS = 64

#: PEs per merge group (the paper's competitor uses fixed-size groups).
GROUP_SIZE = 8


class _VertexMap:
    """Accumulated vertex -> representative map of one PE's subtree."""

    def __init__(self):
        self.keys = np.empty(0, dtype=np.int64)
        self.vals = np.empty(0, dtype=np.int64)

    def add(self, vertices: np.ndarray, reps: np.ndarray) -> None:
        """Record one contraction's vertex -> representative entries."""
        changed = vertices != reps
        if not changed.any():
            return
        keys = np.concatenate([self.keys, vertices[changed]])
        vals = np.concatenate([self.vals, reps[changed]])
        order = np.argsort(keys, kind="stable")
        # Later entries must win; with distinct contraction keys this is
        # moot, but keep last-wins semantics for safety.
        keys, vals = keys[order], vals[order]
        last = np.ones(len(keys), dtype=bool)
        last[:-1] = keys[1:] != keys[:-1]
        self.keys, self.vals = keys[last], vals[last]

    def merge(self, other_rows: np.ndarray) -> None:
        """Fold a shipped (vertex, rep) row matrix into this map."""
        if len(other_rows):
            self.add(other_rows[:, 0], other_rows[:, 1])

    def rows(self) -> np.ndarray:
        """The map as a (k, 2) row matrix for shipping to a leader."""
        return np.stack([self.keys, self.vals], axis=1) if len(self.keys) \
            else np.empty((0, 2), dtype=np.int64)

    def resolve(self, labels: np.ndarray, max_depth: int = 64) -> np.ndarray:
        """Chase map chains to fixpoint (vectorised)."""
        out = np.asarray(labels, dtype=np.int64).copy()
        if len(self.keys) == 0:
            return out
        for _ in range(max_depth):
            idx = np.searchsorted(self.keys, out)
            idx_c = np.minimum(idx, len(self.keys) - 1)
            hit = (idx < len(self.keys)) & (self.keys[idx_c] == out)
            if not hit.any():
                return out
            out[hit] = self.vals[idx_c[hit]]
        raise RuntimeError("vertex-map chain resolution failed to converge")


class MndMergeRoundBody(RoundBody):
    """One merge-hierarchy level: groups ship graphs + maps to leaders.

    The canonical zero-based round id (``run.rounds``) replaces the old
    driver's ``level - 1`` arithmetic; the reported round count is the
    number of merge levels, exactly as before.

    Fail-stop recovery snapshots every PE's remaining subgraph, its
    accumulated contraction map and (host-side, via the restore closure)
    the active-PE list -- the complete level input -- through
    :class:`~repro.faults.recovery.ArrayCheckpoint`.
    """

    label = "mnd_mst"
    divergence_error = "MND-MST merge hierarchy failed to terminate"

    def __init__(self, run: MSTRun, parts: List[Edges],
                 vmaps: List["_VertexMap"], group_size: int):
        self.run = run
        self.machine = run.machine
        self.parts = parts
        self.vmaps = vmaps
        self.group_size = group_size
        self.active = list(range(run.machine.n_procs))

    def prologue(self, round_no: int) -> Optional[RoundStats]:
        """Done when one active PE remains; stats are host-visible."""
        # The active-PE list and the remaining per-PE contracted subgraphs
        # are host-visible, so the pre-round check and the hook stats cost
        # no collectives.
        if len(self.active) <= 1:
            return None
        return RoundStats(len(self.active),
                          sum(len(self.parts[i]) for i in self.active))

    def round(self, round_no: int) -> bool:
        """Ship group subgraphs + maps to leaders; leaders re-contract."""
        machine, run = self.machine, self.run
        comm, cfg = run.comm, run.cfg
        p = machine.n_procs
        parts, vmaps, active = self.parts, self.vmaps, self.active
        leaders = active[::self.group_size]
        rows, dests = [], []
        map_rows, map_dests = [], []
        for i in range(p):
            if i in active and i not in leaders:
                leader = leaders[active.index(i) // self.group_size]
                rows.append(parts[i].as_matrix())
                dests.append(np.full(len(parts[i]), leader, dtype=np.int64))
                mr = vmaps[i].rows()
                map_rows.append(mr)
                map_dests.append(np.full(len(mr), leader, dtype=np.int64))
                parts[i] = Edges.empty()
                vmaps[i] = _VertexMap()
            else:
                rows.append(np.empty((0, Edges.N_COLS), dtype=np.int64))
                dests.append(np.empty(0, dtype=np.int64))
                map_rows.append(np.empty((0, 2), dtype=np.int64))
                map_dests.append(np.empty(0, dtype=np.int64))
        recv, _, _ = route_rows(comm, rows, dests, method=cfg.alltoall)
        recv_maps, _, _ = route_rows(comm, map_rows, map_dests,
                                     method=cfg.alltoall)
        # The shipped matrices are dead once routed; at the last level one
        # leader's merge holds nearly the whole graph, so every stale copy
        # still referenced here adds directly to peak memory.
        del rows, dests, map_rows, map_dests
        with machine.phase("mnd_merge"):
            mem = np.zeros(p, dtype=np.float64)
            for leader in leaders:
                vmaps[leader].merge(recv_maps[leader])
                merged = Edges.concat(
                    [parts[leader], Edges.from_matrix(recv[leader])])
                recv[leader] = recv_maps[leader] = None
                # Relabel through the combined subtree map.  ``resolve``
                # works in int64; representatives are vertex IDs from the
                # same space as the inputs, so cast back to the stored
                # column dtype -- a leader otherwise drags widened columns
                # (and double-size scratch in ``_contract_one_pe``) through
                # every remaining level of the hierarchy.
                u = vmaps[leader].resolve(merged.u)
                v = vmaps[leader].resolve(merged.v)
                alive = np.flatnonzero(u != v)
                merged = Edges(u[alive].astype(merged.u.dtype, copy=False),
                               v[alive].astype(merged.v.dtype, copy=False),
                               merged.w[alive], merged.id[alive]).sort_lex()
                del u, v, alive
                machine.charge_sort(np.array([max(len(merged), 1)]),
                                    ranks=np.array([leader]))
                mem[leader] = len(merged) * 32.0
                parts[leader] = _contract_local(merged, leader, machine,
                                                run, vmaps[leader])
            machine.check_memory(mem)
        self.active = leaders
        return False  # convergence is the prologue's active-count check

    # -- CheckpointableState ------------------------------------------
    def checkpoint_state(self) -> "MndMergeRoundBody":
        """Subgraphs, contraction maps and the active list are replayable."""
        return self

    def take(self, run: MSTRun):
        """Buddy-replicate subgraphs + maps; closure keeps the active list."""
        from ..faults.recovery import ArrayCheckpoint

        active = list(self.active)

        def reinstate(blocks):
            for i, blk in enumerate(blocks):
                u, v, w, ids, keys, vals = blk
                self.parts[i] = Edges(u, v, w, ids)
                vmap = _VertexMap()
                vmap.keys, vmap.vals = keys, vals
                self.vmaps[i] = vmap
            self.active = list(active)

        blocks = [[part.u, part.v, part.w, part.id, vmap.keys, vmap.vals]
                  for part, vmap in zip(self.parts, self.vmaps)]
        return ArrayCheckpoint.take(run, blocks, reinstate)


def mnd_mst(
    graph: DistGraph,
    cfg: Optional[BoruvkaConfig] = None,
    group_size: int = GROUP_SIZE,
) -> MSTResult:
    """Compute the MSF with the MND-MST scheme."""
    machine = graph.machine
    p = machine.n_procs
    cfg = cfg or BoruvkaConfig(alltoall="direct")
    run = MSTRun(machine, cfg)
    snapshot = InputSnapshot.take(graph)

    # ---- Input preparation: eliminate shared vertices (Section VII). ----
    parts = _unshare(graph, run)
    vmaps = [_VertexMap() for _ in range(p)]

    # ---- Level 0: local contraction on every PE. ----
    with machine.phase("mnd_local"):
        for i in range(p):
            parts[i] = _contract_local(parts[i], i, machine, run, vmaps[i])

    # ---- Merge hierarchy: groups ship graphs + maps to leaders. ----
    body = MndMergeRoundBody(run, parts, vmaps, group_size)
    levels = RoundScheduler(run, MAX_LEVELS).run_rounds(body)

    final = body.active[0]
    if len(body.parts[final]):
        raise RuntimeError("MND-MST finished with uncontracted edges")

    return mst_output(run, snapshot, "MND-MST", levels)


# ----------------------------------------------------------------------
def _unshare(graph: DistGraph, run: MSTRun) -> List[Edges]:
    """Move every shared vertex's edges to the first PE of its span.

    One block-wide move, then one stable sort by (PE, u, v, w) over the
    kept rows followed by the received ones: within each PE its kept rows
    come before its received rows wherever the key ties.
    """
    machine = graph.machine
    p = machine.n_procs
    e, pes = graph.edges, graph.row_pes()
    if len(graph.shared_vertex_set()) == 0:
        return split_edges(e.copy(), graph.offsets)
    # The block is globally sorted by source, so a source's first row sits
    # on the first PE of its span: that PE is every one of its rows' home.
    run_start = first_in_group(e.u)
    home = pes[np.flatnonzero(run_start)[np.cumsum(run_start) - 1]]
    move = np.flatnonzero(home != pes)
    cut = np.searchsorted(pes[move], np.arange(1, p))
    recv, _, _ = route_rows(run.comm,
                            np.split(e.take(move).as_matrix(), cut),
                            np.split(home[move], cut),
                            method=run.cfg.alltoall)
    got = RaggedArrays.from_arrays(recv)
    keep = np.flatnonzero(home == pes)
    merged = Edges.concat([e.take(keep), Edges.from_matrix(got.flat)])
    merged_pes = np.concatenate([pes[keep], got.segment_ids()])
    order = packed_lexsort((merged.w, merged.v, merged.u, merged_pes))
    sizes = np.bincount(merged_pes, minlength=p)
    machine.charge_sort(np.maximum(sizes, 1))
    offsets = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return split_edges(merged.take(order), offsets)


def _contract_local(part: Edges, pe: int, machine, run: MSTRun,
                    vmap: _VertexMap) -> Edges:
    """Contract everything provable from this PE's edges alone.

    Every vertex appearing as a source here owns its complete neighbourhood
    (the unshare step and whole-part merges guarantee it), so the cut-aware
    local Borůvka of the preprocessing module applies with an empty shared
    set.
    """
    if len(part) == 0:
        return part
    # One layout of the lex-sorted part serves contraction and relabel.
    vids, starts = source_groups(part.u)
    v_at, v_local = destinations(vids, part.v)
    new_labels, ids, ws, rounds = _contract_one_pe(
        part, vids, starts, v_at, v_local,
        np.zeros(len(vids), dtype=bool), use_filter=False
    )
    run.record_mst(pe, ids, ws)
    vmap.add(vids, new_labels)
    machine.charge_sort(np.array([max(len(part), 1)]), ranks=np.array([pe]))
    machine.charge_scan(np.array([len(part) * max(rounds, 1)]),
                        ranks=np.array([pe]))
    # Relabel locally, drop self loops and parallel duplicates.
    u_new = np.repeat(new_labels, np.diff(starts))
    v_new = np.where(v_local, new_labels[v_at], part.v)
    alive = np.flatnonzero(u_new != v_new)
    e = Edges(u_new[alive], v_new[alive], part.w[alive], part.id[alive])
    e = e.sort_lex()
    same = np.zeros(len(e), dtype=bool)
    if len(e) > 1:
        same[1:] = (e.u[1:] == e.u[:-1]) & (e.v[1:] == e.v[:-1])
    return e.take(~same)
