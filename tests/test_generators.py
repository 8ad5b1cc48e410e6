"""Tests for the graph generators (repro.graphgen)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphgen import (
    FAMILIES,
    TABLE_I,
    gen_family,
    gen_gnm,
    gen_grid2d,
    gen_realworld,
    gen_rgg2d,
    gen_rgg3d,
    gen_rhg,
    gen_rmat,
    load_compressed,
    load_npz,
    radius_for_avg_degree,
    radius_pairs,
    save_compressed,
    save_npz,
)
from repro.graphgen import rgg
from repro.graphgen.base import finalize_pairs
from repro.simmpi import Machine

from helpers import parts_of


def _check_contract(g):
    """The generator contract every family must honour (Section VII)."""
    e = g.edges
    assert e.is_sorted_lex()
    assert np.array_equal(e.id, np.arange(len(e)))
    assert (e.w >= 1).all() and (e.w < 255).all()
    assert (e.u >= 0).all() and (e.u < g.n_vertices).all()
    assert (e.v >= 0).all() and (e.v < g.n_vertices).all()
    assert (e.u != e.v).all()
    # Symmetric with identical weights per direction.
    fwd = set(zip(e.u.tolist(), e.v.tolist(), e.w.tolist()))
    assert all((v, u, w) in fwd for (u, v, w) in fwd)
    # No duplicate directed pairs.
    pairs = list(zip(e.u.tolist(), e.v.tolist()))
    assert len(pairs) == len(set(pairs))


class TestContract:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_contract(self, family):
        _check_contract(gen_family(family, 512, 2048, seed=3))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_deterministic(self, family):
        a = gen_family(family, 256, 1024, seed=5)
        b = gen_family(family, 256, 1024, seed=5)
        assert np.array_equal(a.edges.as_matrix(), b.edges.as_matrix())

    @pytest.mark.parametrize("family", FAMILIES)
    def test_seed_matters(self, family):
        if family == "2D-GRID":
            pytest.skip("grid topology is deterministic; only weights vary")
        a = gen_family(family, 256, 1024, seed=1)
        b = gen_family(family, 256, 1024, seed=2)
        assert not np.array_equal(a.edges.as_matrix(), b.edges.as_matrix())

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            gen_family("HYPERGRID", 100, 200)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_distribute_no_shared(self, family):
        g = gen_family(family, 256, 1024, seed=3)
        dg = g.distribute(Machine(8))
        assert not dg.shared_first.any()


class TestGrid:
    def test_degrees_bounded_by_four(self):
        g = gen_grid2d(12, 17, seed=0)
        deg = np.bincount(g.edges.u)
        assert deg.max() <= 4

    def test_edge_count(self):
        r, c = 9, 13
        g = gen_grid2d(r, c)
        assert g.n_undirected_edges == r * (c - 1) + c * (r - 1)

    def test_periodic_torus_regular(self):
        g = gen_grid2d(8, 8, periodic=True)
        deg = np.bincount(g.edges.u, minlength=64)
        assert (deg == 4).all()

    def test_degenerate_sizes(self):
        assert gen_grid2d(1, 5).n_undirected_edges == 4
        with pytest.raises(ValueError):
            gen_grid2d(0, 5)

    def test_high_locality_under_partition(self):
        g = gen_grid2d(32, 32, seed=0)
        dg = g.distribute(Machine(4))
        local = 0
        for part in parts_of(dg):
            vids = np.unique(part.u)
            idx = np.searchsorted(vids, part.v)
            idx_c = np.minimum(idx, len(vids) - 1)
            local += int(((idx < len(vids))
                          & (vids[idx_c] == part.v)).sum())
        assert local / dg.global_edge_count() > 0.8


class TestGnm:
    def test_exact_edge_count(self):
        g = gen_gnm(100, 500, seed=2)
        assert g.n_undirected_edges == 500

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            gen_gnm(4, 100)

    def test_tiny_n_rejected(self):
        with pytest.raises(ValueError):
            gen_gnm(1, 0)


class TestGeometric:
    def test_rgg_degree_calibration(self):
        g = gen_rgg2d(2000, avg_degree=12, seed=4)
        mean_deg = 2 * g.n_undirected_edges / g.n_vertices
        assert 7 < mean_deg < 17  # boundary effects allowed

    def test_rgg3d(self):
        g = gen_rgg3d(800, avg_degree=10, seed=4)
        assert g.name == "3D-RGG"
        _check_contract(g)

    def test_radius_formula(self):
        r2 = radius_for_avg_degree(1000, 10, 2)
        assert 1000 * np.pi * r2 ** 2 == pytest.approx(10)

    def test_requires_exactly_one_parameter(self):
        with pytest.raises(ValueError):
            gen_rgg2d(100)
        with pytest.raises(ValueError):
            gen_rgg2d(100, avg_degree=5, radius=0.1)

    def test_rgg_locality_from_spatial_numbering(self):
        g = gen_rgg2d(2048, avg_degree=12, seed=4)
        # Neighbours should have nearby labels: median id distance small.
        # Columns may be stored unsigned; difference needs a signed dtype.
        dist = np.abs(g.edges.u.astype(np.int64) - g.edges.v.astype(np.int64))
        assert np.median(dist) < g.n_vertices / 8


def _kdtree_pairs(points, radius):
    """The oracle: cKDTree's pair set (scipy is a test-only dependency)."""
    spatial = pytest.importorskip("scipy.spatial")
    pairs = spatial.cKDTree(points).query_pairs(radius, output_type="ndarray")
    return set(map(tuple, np.sort(pairs, axis=1).tolist()))


def _grid_pairs(points, radius):
    i, j = radius_pairs(points, radius)
    assert i.dtype == j.dtype == np.int64
    assert (i < j).all()
    got = set(zip(i.tolist(), j.tolist()))
    assert len(got) == len(i)  # each unordered pair once
    return got


def _points(layout, n, dim, radius, rng):
    if layout == "aligned":  # coordinates k * r: distances exactly r, 2r ...
        return rng.integers(0, 6, (n, dim)) * radius
    if layout == "duplicates":  # repeated points, distance 0
        spots = rng.random((max(n // 4, 1), dim))
        return spots[rng.integers(0, len(spots), n)]
    return rng.random((n, dim))


class TestRadiusPairs:
    """The numpy grid search returns exactly cKDTree's ``query_pairs``."""

    @given(n=st.integers(0, 400), dim=st.sampled_from([2, 3]),
           log_radius=st.floats(-7.0, 0.5), seed=st.integers(0, 2 ** 32 - 1),
           layout=st.sampled_from(["uniform", "aligned", "duplicates"]))
    def test_matches_kdtree(self, n, dim, log_radius, seed, layout):
        radius = 10.0 ** log_radius  # 1e-7 .. 3.16 >= sqrt(3)
        points = _points(layout, n, dim, radius, np.random.default_rng(seed))
        assert _grid_pairs(points, radius) == _kdtree_pairs(points, radius)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("radius", [1e-7, 1e-4, 0.01, 0.1, 0.5, 1.0,
                                        "sqrt_dim", 2.0])
    def test_radius_range(self, dim, radius):
        radius = float(np.sqrt(dim)) if radius == "sqrt_dim" else radius
        n = 300
        points = np.random.default_rng(dim).random((n, dim))
        got = _grid_pairs(points, radius)
        assert got == _kdtree_pairs(points, radius)
        if radius >= np.sqrt(dim):
            assert len(got) == n * (n - 1) // 2

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("radius", [1e-7, 0.05, 0.125, 0.3])
    def test_grid_aligned_and_duplicate_points(self, dim, radius):
        rng = np.random.default_rng(7)
        aligned = rng.integers(0, 8, (200, dim)) * radius
        points = np.concatenate([aligned, aligned[:60], rng.random((50, dim))])
        got = _grid_pairs(points, radius)
        assert got == _kdtree_pairs(points, radius)
        assert (0, 200) in got  # a point and its duplicate

    def test_tiny_radius_in_3d_keeps_codes_in_int64(self):
        # 1e7 cells per axis would overflow a 3-D int64 code; the cell side
        # grows instead and the near-coincident pairs are still all found.
        rng = np.random.default_rng(1)
        spots = rng.random((500, 3))
        points = np.concatenate([spots, spots + rng.uniform(-4e-8, 4e-8,
                                                           spots.shape)])
        got = _grid_pairs(points, 1e-7)
        assert got == _kdtree_pairs(points, 1e-7)
        assert len(got) >= 500

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_fewer_than_two_points(self, n, dim):
        points = np.random.default_rng(0).random((n, dim))
        assert _grid_pairs(points, 0.5) == set()
        assert _kdtree_pairs(points, 0.5) == set()

    def test_chunk_boundaries(self, monkeypatch):
        # Chunks smaller than one point's candidates: one point per chunk.
        points = np.random.default_rng(4).random((600, 2))
        want = _kdtree_pairs(points, 0.08)
        for chunk in (1, 7, 1000):
            monkeypatch.setattr(rgg, "CHUNK_CANDIDATES", chunk)
            assert _grid_pairs(points, 0.08) == want

    def test_rejects_bad_input(self):
        points = np.random.default_rng(0).random((10, 2))
        for radius in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="radius"):
                radius_pairs(points, radius)
        for bad in (points[:, 0], np.zeros((10, 4))):
            with pytest.raises(ValueError, match="dim"):
                radius_pairs(bad, 0.1)
        points[3, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            radius_pairs(points, 0.1)

    @pytest.mark.parametrize("family", ["2D-RGG", "3D-RGG"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_benchmark_instances_byte_equal_to_kdtree_build(self, family,
                                                            seed):
        spatial = pytest.importorskip("scipy.spatial")
        n, m = 1 << 14, 1 << 18
        g = gen_family(family, n, m, seed=seed)
        # The generator's steps with cKDTree as the neighbour search.
        dim = int(family[0])
        radius = radius_for_avg_degree(n, 2.0 * m / n, dim)
        points = np.random.default_rng(seed).random((n, dim))
        points = points[rgg._spatial_relabel(points, radius)]
        pairs = spatial.cKDTree(points).query_pairs(radius,
                                                    output_type="ndarray")
        want = finalize_pairs(family, pairs[:, 0], pairs[:, 1], n, seed)
        for col in ("u", "v", "w", "id"):
            got_col, want_col = getattr(g.edges, col), getattr(want.edges, col)
            assert got_col.dtype == want_col.dtype, col
            assert got_col.tobytes() == want_col.tobytes(), col


class TestSpatialRelabel:
    """Vertices are numbered in row-major cell order, then by index."""

    @staticmethod
    def _tuple_order(points, radius):
        """The exact order: a Python sort of (cell coordinates, index)."""
        grid = np.floor(points / radius).astype(np.int64).tolist()
        return np.array(sorted(range(len(grid)),
                               key=lambda k: (grid[k], k)))

    @pytest.mark.parametrize("dim, radius", [(2, 0.01), (2, 7e-4),
                                             (3, 0.05)])
    def test_matches_packed_cell_code_where_it_fits(self, dim, radius):
        points = np.random.default_rng(4).random((2000, dim))
        grid = np.floor(points / radius).astype(np.int64)
        n_cells = int(grid.max()) + 1
        code = np.zeros(len(points), dtype=np.int64)
        for d in range(dim):
            code = code * n_cells + grid[:, d]
        order = rgg._spatial_relabel(points, radius)
        assert np.array_equal(order, np.argsort(code, kind="stable"))
        assert np.array_equal(order, self._tuple_order(points, radius))

    def test_exact_where_a_packed_code_wraps(self):
        # 3-D at r = 1e-7: ~10^7 cells per axis, 10^21 cells in all.
        points = np.random.default_rng(7).random((1000, 3))
        order = rgg._spatial_relabel(points, 1e-7)
        assert np.array_equal(order, self._tuple_order(points, 1e-7))


class TestRhg:
    def test_power_law_tail(self):
        g = gen_rhg(4000, avg_degree=12, gamma=3.0, seed=5)
        deg = np.bincount(g.edges.u)
        deg = deg[deg > 0]
        # Heavy tail: the max degree far exceeds the mean.
        assert deg.max() > 6 * deg.mean()

    def test_average_degree_roughly_calibrated(self):
        g = gen_rhg(4000, avg_degree=12, seed=5)
        mean_deg = 2 * g.n_undirected_edges / g.n_vertices
        assert 4 < mean_deg < 36

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ValueError):
            gen_rhg(100, 8, gamma=1.5)


class TestRmat:
    def test_skewed_degrees(self):
        g = gen_rmat(12, 16384, seed=6)
        deg = np.bincount(g.edges.u)
        deg = deg[deg > 0]
        assert deg.max() > 10 * deg.mean()

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            gen_rmat(8, 100, probs=(0.5, 0.5, 0.5, 0.5))

    def test_log_n_bounds(self):
        with pytest.raises(ValueError):
            gen_rmat(0, 10)

    def test_scramble_destroys_locality(self):
        a = gen_rmat(10, 4096, seed=7, scramble=False)
        b = gen_rmat(10, 4096, seed=7, scramble=True)
        da = np.median(np.abs(a.edges.u.astype(np.int64)
                              - a.edges.v.astype(np.int64)))
        db = np.median(np.abs(b.edges.u.astype(np.int64)
                              - b.edges.v.astype(np.int64)))
        assert db > da


class TestRealWorld:
    @pytest.mark.parametrize("name", sorted(TABLE_I))
    def test_standins(self, name):
        g = gen_realworld(name, n=1024, seed=8)
        _check_contract(g)
        assert g.params["instance"] == name
        assert g.params["scale_factor"] > 1

    def test_unknown_instance_rejected(self):
        with pytest.raises(ValueError):
            gen_realworld("orkut")

    def test_mn_ratio_classes(self):
        road = gen_realworld("US-road", n=4096, seed=8)
        web = gen_realworld("wdc-14", n=4096, seed=8)
        mn = lambda g: 2 * g.n_undirected_edges / g.n_vertices
        assert mn(road) < 5 < mn(web)


class TestIO:
    def test_npz_roundtrip(self, tmp_path):
        g = gen_family("GNM", 128, 512, seed=9)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        g2 = load_npz(path)
        assert g2.name == g.name
        assert g2.n_vertices == g.n_vertices
        assert np.array_equal(g2.edges.as_matrix(), g.edges.as_matrix())

    def test_compressed_roundtrip(self, tmp_path):
        g = gen_family("GNM", 128, 512, seed=9)
        path = tmp_path / "g.kmst.npz"
        save_compressed(g, path)
        g2 = load_compressed(path)
        assert np.array_equal(g2.edges.u, g.edges.u)
        assert np.array_equal(g2.edges.v, g.edges.v)
        assert np.array_equal(g2.edges.w, g.edges.w)
