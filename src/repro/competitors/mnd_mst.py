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

from ..dgraph.dist_graph import DistGraph, move_home, split_edges
from ..dgraph.edges import Edges
from ..kernels import first_in_group
from ..simmpi.alltoall import route_rows
from ..core.boruvka import InputSnapshot, MSTResult, mst_output
from ..core.config import BoruvkaConfig
from ..core.local_preprocessing import (_contract_block, block_layout,
                                        drop_parallel, sort_parts)
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
        parts, vmaps = self.parts, self.vmaps
        active = np.asarray(self.active, dtype=np.int64)
        leaders = active[::self.group_size]
        leader_of = np.repeat(leaders, self.group_size)[:len(active)]
        sends = leader_of != active
        no_rows = np.empty((0, Edges.N_COLS), dtype=np.int64)
        no_maps = np.empty((0, 2), dtype=np.int64)
        no_dests = np.empty(0, dtype=np.int64)
        rows, dests = [no_rows] * p, [no_dests] * p
        map_rows, map_dests = [no_maps] * p, [no_dests] * p
        for i, leader in zip(active[sends].tolist(),
                             leader_of[sends].tolist()):
            rows[i] = parts[i].as_matrix()
            dests[i] = np.full(len(parts[i]), leader, dtype=np.int64)
            map_rows[i] = vmaps[i].rows()
            map_dests[i] = np.full(len(map_rows[i]), leader, dtype=np.int64)
            vmaps[i] = _VertexMap()
        recv, _, _ = route_rows(comm, rows, dests, method=cfg.alltoall)
        recv_maps, _, _ = route_rows(comm, map_rows, map_dests,
                                     method=cfg.alltoall)
        # The shipped matrices are dead once routed; at the last level one
        # leader's merge holds nearly the whole graph, so every stale copy
        # still referenced here adds directly to peak memory.
        del rows, dests, map_rows, map_dests
        with machine.phase("mnd_merge"):
            merged = []
            for leader in leaders.tolist():
                vmaps[leader].merge(recv_maps[leader])
                got = Edges.concat(
                    [parts[leader], Edges.from_matrix(recv[leader])])
                recv[leader] = recv_maps[leader] = parts[leader] = None
                # Relabel through the combined subtree map.  ``resolve``
                # works in int64; representatives are vertex IDs from the
                # same space as the inputs, so cast back to the stored
                # column dtype -- a leader otherwise drags widened columns
                # (and double-size contraction scratch) through every
                # remaining level of the hierarchy.
                u = vmaps[leader].resolve(got.u)
                v = vmaps[leader].resolve(got.v)
                alive = np.flatnonzero(u != v)
                merged.append(Edges(u[alive].astype(got.u.dtype, copy=False),
                                    v[alive].astype(got.v.dtype, copy=False),
                                    got.w[alive], got.id[alive]))
                del got, u, v, alive
            sizes = np.zeros(p, dtype=np.int64)
            sizes[leaders] = [len(m) for m in merged]
            offsets = np.zeros(p + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            edges = sort_parts(Edges.concat(merged), offsets)
            del merged
            machine.charge_sort(np.maximum(sizes[leaders], 1), ranks=leaders)
            self.parts = split_edges(*_contract(edges, offsets, machine, run,
                                                vmaps))
            machine.check_memory(sizes * 32.0)
        self.active = leaders.tolist()
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
    edges, offsets = _unshare(graph, run)
    vmaps = [_VertexMap() for _ in range(p)]

    # ---- Level 0: local contraction on every PE. ----
    with machine.phase("mnd_local"):
        parts = split_edges(*_contract(edges, offsets, machine, run, vmaps))
    del edges, offsets

    # ---- Merge hierarchy: groups ship graphs + maps to leaders. ----
    body = MndMergeRoundBody(run, parts, vmaps, group_size)
    levels = RoundScheduler(run, MAX_LEVELS).run_rounds(body)

    final = body.active[0]
    if len(body.parts[final]):
        raise RuntimeError("MND-MST finished with uncontracted edges")

    return mst_output(run, snapshot, "MND-MST", levels)


# ----------------------------------------------------------------------
def _unshare(graph: DistGraph, run: MSTRun):
    """Move every shared vertex's edges to the first PE of its span in the
    block; returns the new block and its offsets."""
    machine = graph.machine
    e, pes = graph.edges, graph.row_pes()
    if len(graph.shared_vertex_set()) == 0:
        return e, graph.offsets
    # The block is globally sorted by source, so a source's first row sits
    # on the first PE of its span: that PE is every one of its rows' home.
    run_start = first_in_group(e.u)
    home = pes[np.flatnonzero(run_start)[np.cumsum(run_start) - 1]]
    edges, offsets, _ = move_home(run.comm, e, graph.offsets, home,
                                  run.cfg.alltoall)
    machine.charge_sort(np.maximum(np.diff(offsets), 1))
    return edges, offsets


def _contract(edges: Edges, offsets: np.ndarray, machine, run: MSTRun,
              vmaps: List[_VertexMap]):
    """Contract everything provable from each PE's edges alone, on every PE
    at once; returns the contracted block and its offsets.

    Every vertex appearing as a source on a PE owns its complete
    neighbourhood there (the unshare step and whole-part merges guarantee
    it), so the cut-aware local Borůvka of the preprocessing module applies
    with an empty shared set.  Only the PEs that hold edges are charged.
    """
    runs, run_off, v_at, v_local = block_layout(edges, offsets)
    labels, ids, ws, mst_off, rounds = _contract_block(
        edges, offsets, runs, run_off, v_at, v_local,
        np.zeros(len(runs), dtype=bool), use_filter=False)
    run.record_mst_parts(ids, ws, mst_off)
    vids = edges.u[runs]
    lengths = np.diff(offsets)
    full = np.flatnonzero(lengths)
    for i in full.tolist():
        vmaps[i].add(vids[run_off[i]:run_off[i + 1]],
                     labels[run_off[i]:run_off[i + 1]])
    machine.charge_sort(lengths[full], ranks=full)
    machine.charge_scan(lengths[full] * np.maximum(rounds[full], 1),
                        ranks=full)
    # Relabel locally, drop self loops and parallel duplicates.
    u = np.repeat(labels, np.diff(runs, append=len(edges)))
    v = np.where(v_local, labels[np.repeat(run_off[:-1], lengths) + v_at],
                 edges.v)
    alive = np.flatnonzero(u != v)
    kept = Edges(u[alive], v[alive], edges.w[alive], edges.id[alive])
    kept_off = np.searchsorted(alive, offsets)
    return drop_parallel(sort_parts(kept, kept_off), kept_off)
