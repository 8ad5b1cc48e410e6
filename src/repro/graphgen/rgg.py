"""Random geometric graphs in 2D and 3D (the paper's 2D/3D-RGG families).

"RGGs are constructed by placing vertices uniformly at random in the unit
square (unit cube for 3D) ... Vertices are connected if the Euclidean
distance is below a threshold d."  To mirror KaGen's spatial partitioning --
which gives the family its locality under 1D partitioning -- vertices are
numbered by spatial cell (Morton-ish row-major cell order), so nearby
vertices get nearby labels and most edges become local edges.

Neighbour search is :func:`radius_pairs`, an exact uniform-grid radius
search in numpy alone: cells of side at least the radius, each point
compared with its own cell and half of the adjacent ones, in chunks of
bounded size.  It returns the same pair set as a k-d tree's
``cKDTree.query_pairs`` (the tests keep that k-d tree as the oracle), so
generated graphs are the same bytes either way.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .base import GeneratedGraph, finalize_pairs

#: Candidate pairs :func:`radius_pairs` examines per chunk.  A candidate
#: costs about 48 bytes of scratch (two int64 indices, the squared distance,
#: one coordinate difference and two gathers), so one chunk stays near 3 MB
#: whatever the radius and the density.
CHUNK_CANDIDATES = 1 << 16


def radius_for_avg_degree(n: int, avg_degree: float, dim: int) -> float:
    """Connection radius giving expected average degree ``avg_degree``.

    In the unit square/cube the expected degree of a vertex is approximately
    ``n * volume(ball(r))`` (ignoring boundary effects):
    2D: ``n * pi r^2``;  3D: ``n * 4/3 pi r^3``.
    """
    if dim == 2:
        return float(np.sqrt(avg_degree / (np.pi * n)))
    if dim == 3:
        return float((avg_degree / (4.0 / 3.0 * np.pi * n)) ** (1.0 / 3.0))
    raise ValueError("dim must be 2 or 3")


def _spatial_relabel(points: np.ndarray, radius: float) -> np.ndarray:
    """Renumber points by spatial cell, then by position within the cell.

    Cells have side ~radius; ordering cells row-major and points by cell id
    reproduces the locality KaGen's per-PE spatial regions give the paper's
    instances.  Returns the permutation ``order`` such that new vertex ``k``
    is original point ``order[k]``.
    """
    cell_side = max(radius, 1e-9)
    grid = np.floor(points / cell_side).astype(np.int64)
    n_cells = int(grid.max()) + 1 if len(grid) else 1
    code = np.zeros(len(points), dtype=np.int64)
    for d in range(points.shape[1]):
        code = code * n_cells + grid[:, d]
    return np.argsort(code, kind="stable")


def radius_pairs(points: np.ndarray, radius: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of points at Euclidean distance at most ``radius``.

    Returns int64 arrays ``(i, j)``, ``i < j``, one entry per unordered pair
    in no particular order.  A pair is kept when its squared distance --
    the squared coordinate differences summed from the first coordinate to
    the last -- is ``<= radius * radius``: the pair set of
    ``cKDTree(points).query_pairs(radius)``.

    The bounding box is cut into cubic cells of side at least ``radius``, so
    a pair lies in one cell or in two adjacent ones.  Points are sorted by
    cell code (row-major, the last axis fastest) and every point is compared
    with the later points of its own cell and with the (3^d - 1) / 2
    adjacent cells that come after it in code order.  Three cells that
    differ only in the last coordinate are one contiguous run of sorted
    points, so that half stencil is ``1 + (3^(d-1) - 1) / 2`` index ranges
    per point (2 in 2-D, 5 in 3-D).  Occupied cells are found by
    ``searchsorted`` over the sorted codes -- no dense table of cells -- and
    the cell side grows when needed to keep every code inside int64, so for
    any radius the memory is linear in the points plus the pairs found.
    Candidates are expanded and tested :data:`CHUNK_CANDIDATES` at a time.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or not 1 <= pts.shape[1] <= 3:
        raise ValueError("points must be an (n, dim) array, 1 <= dim <= 3")
    radius = float(radius)
    if not radius >= 0.0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    n, dim = pts.shape
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lo = pts.min(axis=0)
    extent = float((pts.max(axis=0) - lo).max())
    if not np.isfinite(extent):
        raise ValueError("points must have finite coordinates")
    base = 1 << (62 // dim)  # codes of dim coordinates below base fit int64
    # The margin over the radius absorbs the rounding of (x - lo) / side, so
    # two points within the radius never land two cells apart; the second
    # bound keeps every coordinate plus its padding cell below ``base``.
    side = max(radius * (1.0 + 2.0 ** -20) + extent * 2.0 ** -40,
               extent / (base - 3))
    if side == 0.0:
        side = 1.0  # every point at one spot: any side gives one cell
    code = np.zeros(n, dtype=np.int64)
    for d in range(dim):
        g = np.floor((pts[:, d] - lo[d]) / side)
        np.clip(g, 0, base - 3, out=g)
        code *= base
        code += g.astype(np.int64) + 1  # padding: neighbours stay >= 0
    order = np.argsort(code, kind="stable")
    code = code[order]
    coords = pts[order].T.copy()  # one contiguous row per axis

    starts = np.flatnonzero(np.diff(code, prepend=code[0] - 1))
    cell_code = code[starts]
    cell_of = np.repeat(np.arange(len(starts)),
                        np.diff(np.append(starts, n)))
    # Per occupied cell, the [lo, hi) point ranges of its half stencil: the
    # own run (own cell and the next along the last axis), then one run of
    # three cells for every offset of the leading axes that comes later in
    # code order.
    leading = [o for o in product((-1, 0, 1), repeat=dim - 1)
               if next((x for x in o if x), 0) > 0]
    shifts = [sum(x * base ** (dim - 1 - a) for a, x in enumerate(o))
              for o in leading]
    own_hi = np.searchsorted(code, cell_code + 1, side="right")
    run_lo = np.empty((len(starts), len(shifts)), dtype=np.int64)
    run_hi = np.empty_like(run_lo)
    for k, shift in enumerate(shifts):
        run_lo[:, k] = np.searchsorted(code, cell_code + (shift - 1), "left")
        run_hi[:, k] = np.searchsorted(code, cell_code + (shift + 1), "right")
    del code
    cell_runs = (run_hi - run_lo).sum(axis=1)
    per_point = own_hi[cell_of] - np.arange(1, n + 1)
    per_point += cell_runs[cell_of]
    total = np.cumsum(per_point)

    r2 = radius * radius
    # Kept pairs wait for the final concatenation in the narrowest index type.
    kept_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    out_i, out_j = [], []
    a = 0
    while a < n:
        done = int(total[a - 1]) if a else 0
        b = max(int(np.searchsorted(total, done + CHUNK_CANDIDATES, "right")),
                a + 1)
        pt = np.arange(a, b)
        c = cell_of[a:b]
        rlo = np.column_stack([pt + 1, run_lo[c]]).ravel()
        rlen = np.column_stack([own_hi[c], run_hi[c]]).ravel()
        rlen -= rlo
        i = np.repeat(pt, per_point[a:b])
        # j runs through each range: position in the chunk minus the
        # range's first position, plus the range's start.
        j = np.arange(len(i))
        j -= np.repeat(np.cumsum(rlen) - rlen - rlo, rlen)
        d2 = coords[0][i]
        d2 -= coords[0][j]
        d2 *= d2
        for d in range(1, dim):
            t = coords[d][i]
            t -= coords[d][j]
            t *= t
            d2 += t
        keep = d2 <= r2
        i, j = order[i[keep]], order[j[keep]]
        out_i.append(np.minimum(i, j).astype(kept_dtype))
        out_j.append(np.maximum(i, j).astype(kept_dtype))
        a = b
    return (np.concatenate(out_i, dtype=np.int64),
            np.concatenate(out_j, dtype=np.int64))


def gen_rgg(n: int, dim: int, avg_degree: float | None = None,
            radius: float | None = None, seed: int = 0) -> GeneratedGraph:
    """Random geometric graph with ``n`` vertices in ``[0,1]^dim``.

    Give either ``radius`` or ``avg_degree`` (the experiments scale the
    threshold so m is proportional to the core count, Section VII).
    """
    if (radius is None) == (avg_degree is None):
        raise ValueError("give exactly one of radius / avg_degree")
    if radius is None:
        radius = radius_for_avg_degree(n, float(avg_degree), dim)
    rng = np.random.default_rng(seed)
    points = rng.random((n, dim))
    order = _spatial_relabel(points, radius)
    points = points[order]
    u, v = radius_pairs(points, radius)
    return finalize_pairs(
        f"{dim}D-RGG", u, v, n, seed,
        params={"n": n, "dim": dim, "radius": radius,
                "avg_degree": avg_degree},
    )


def gen_rgg2d(n: int, avg_degree: float | None = None,
              radius: float | None = None, seed: int = 0) -> GeneratedGraph:
    """2D random geometric graph (see :func:`gen_rgg`)."""
    return gen_rgg(n, 2, avg_degree=avg_degree, radius=radius, seed=seed)


def gen_rgg3d(n: int, avg_degree: float | None = None,
              radius: float | None = None, seed: int = 0) -> GeneratedGraph:
    """3D random geometric graph (see :func:`gen_rgg`)."""
    return gen_rgg(n, 3, avg_degree=avg_degree, radius=radius, seed=seed)
