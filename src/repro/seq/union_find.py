"""Array-based union-find (disjoint sets) with path compression.

Used by the sequential baselines (Kruskal, Filter-Kruskal; Filter-Borůvka
keeps one only to filter, hooking its roots onto Borůvka's components) and
by the verification utilities.  Local preprocessing contracts pseudo
forests and keeps none.
Supports both the classic one-at-a-time API and vectorised bulk operations
(the hpc-parallel guides mandate numpy vectorisation for hot loops).
"""

from __future__ import annotations

import numpy as np

#: :meth:`UnionFind.union_edges` converts at most this many edges to Python
#: ints at a time: the int objects of 2^19 edges alone are about 24 MB.
UNION_CHUNK = 1 << 15


class UnionFind:
    """Disjoint-set forest over elements ``0 .. n-1``.

    Union by rank plus full path compression; amortised near-constant time
    per operation.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("n must be non-negative")
        self.parent = np.arange(n, dtype=np.int64)
        self.rank = np.zeros(n, dtype=np.int8)
        self.n_components = n

    def __len__(self) -> int:
        return len(self.parent)

    # ------------------------------------------------------------------
    def find(self, x: int) -> int:
        """Representative of ``x``'s set (with path compression)."""
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        # Second pass: compress.
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return int(root)

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; returns True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        rank = self.rank
        if rank[ra] < rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if rank[ra] == rank[rb]:
            rank[ra] += 1
        self.n_components -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    # ------------------------------------------------------------------
    # Vectorised bulk operations.
    # ------------------------------------------------------------------
    def find_many(self, xs: np.ndarray) -> np.ndarray:
        """Representatives of many elements at once.

        Iterated pointer jumping on the parent array: ``O(log n)`` vectorised
        passes in the worst case (trees are shallow after compression).
        Compresses the paths of the queried elements.
        """
        xs = np.asarray(xs, dtype=np.int64)
        parent = self.parent
        roots = xs.copy()
        while True:
            nxt = parent[roots]
            if np.array_equal(nxt, roots):
                break
            roots = parent[nxt]  # jump two levels per pass
        parent[xs] = roots
        return roots

    def union_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Union along many edges; returns a bool mask of the tree edges.

        Sequential semantics (edge k is applied before edge k+1), so the mask
        identifies exactly the edges Kruskal would keep if ``(us, vs)`` is
        weight-sorted.  The per-edge loop is unavoidable (each union depends
        on all previous ones) but runs over int64 scalars with compressed
        paths, which is acceptable for the verification-scale inputs here.
        The edges are converted :data:`UNION_CHUNK` at a time, with the
        forest carried from chunk to chunk.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        out = np.zeros(len(us), dtype=bool)
        # find/union inlined: this loop runs millions of times under
        # Filter-Boruvka and method-call overhead dominates.  When the edge
        # count justifies the O(n) conversion, run it over plain Python
        # lists -- list indexing beats numpy scalar indexing several-fold.
        use_lists = len(us) * 4 > len(self.parent)
        if use_lists:
            parent = self.parent.tolist()
            rank = self.rank.tolist()
        else:
            parent = self.parent
            rank = self.rank
        n_components = self.n_components
        for lo in range(0, len(us), UNION_CHUNK):
            chunk = zip(us[lo:lo + UNION_CHUNK].tolist(),
                        vs[lo:lo + UNION_CHUNK].tolist())
            for k, (a, b) in enumerate(chunk, lo):
                root = a
                while parent[root] != root:
                    root = parent[root]
                while parent[a] != root:
                    parent[a], a = root, parent[a]
                ra = root
                root = b
                while parent[root] != root:
                    root = parent[root]
                while parent[b] != root:
                    parent[b], b = root, parent[b]
                rb = root
                if ra == rb:
                    continue
                if rank[ra] < rank[rb]:
                    ra, rb = rb, ra
                parent[rb] = ra
                if rank[ra] == rank[rb]:
                    rank[ra] += 1
                n_components -= 1
                out[k] = True
        if use_lists:
            self.parent[:] = parent
            self.rank[:] = rank
        self.n_components = n_components
        return out

    def components(self) -> np.ndarray:
        """Representative of every element (fully compressed)."""
        return self.find_many(np.arange(len(self.parent)))
