import numpy as np
import pytest

from ppesolve import _kernels
from ppesolve.geometry import PolygonV, Tolerances, contains_point, convex_hull
from ppesolve.vertex_enum import (
    HPolytope,
    _finalize,
    _sorted_unique_edges,
    enumerate_product,
    product_polytope,
)

from oracles import adjacent_pairs_loop, match_point_sets, polytope_vertices_bruteforce

TOL = Tolerances()
SQUARE = convex_hull([(-1, -1), (1, -1), (1, 1), (-1, 1)])


def random_cut_system(rng, k, extra_rows, num_points):
    """W, the hull of a few random points, and extra rows through random
    points of W^k."""
    w = convex_hull(rng.uniform(-1.0, 1.0, size=(num_points, 2)))
    normals = rng.normal(size=(extra_rows, 2 * k))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    weights = rng.dirichlet(np.ones(w.num_vertices), size=(extra_rows, k))
    anchors = (weights @ w.vertices).reshape(extra_rows, 2 * k)
    return w, normals, np.einsum("ij,ij->i", normals, anchors)


class TestEnumerateVertices:
    """Vertices of W^k cut by extra rows (`enumerate_product`)."""

    def test_hypercube_4d(self):
        vs, _ = enumerate_product(SQUARE, 2, np.zeros((0, 4)), np.zeros(0))
        assert len(vs.points) == 16
        assert match_point_sets(
            vs.points, np.array(np.meshgrid(*[[-1, 1]] * 4)).reshape(4, -1).T, 1e-9
        )
        assert not vs.truncated

    def test_simplex_4d(self):
        # [0,1]^4 cut by sum(x) <= 1 is the corner simplex
        unit = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        vs, _ = enumerate_product(unit, 2, np.ones((1, 4)), np.array([1.0]))
        expected = np.vstack([np.zeros((1, 4)), np.eye(4)])
        assert match_point_sets(vs.points, expected, 1e-9)

    def test_empty_system(self):
        # x1 <= -2 misses [-1, 1]^2 entirely
        vs, _ = enumerate_product(SQUARE, 1, np.array([[1.0, 0.0]]), np.array([-2.0]))
        assert vs.is_empty and not vs.truncated

    def test_output_is_lexicographically_sorted(self):
        vs, _ = enumerate_product(SQUARE, 2, np.array([[1.0, 1.0, 1.0, 0.0]]), np.array([0.5]))
        pts = [tuple(p) for p in vs.points]
        assert pts == sorted(pts)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(10))
    def test_against_bruteforce_oracle(self, k, seed):
        rng = np.random.default_rng(k * 1000 + seed)
        w, normals, offsets = random_cut_system(rng, k, extra_rows=3, num_points=7 - k)
        vs, stacked = enumerate_product(w, k, normals, offsets, TOL)
        oracle = polytope_vertices_bruteforce(stacked.normals, stacked.offsets)
        assert match_point_sets(vs.points, oracle, 1e-7), (
            f"{len(vs.points)} vs oracle {len(oracle)}"
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(7000 + seed)
        w, normals, offsets = random_cut_system(rng, 2, extra_rows=6, num_points=6)
        vs, _ = enumerate_product(w, 2, normals, offsets, TOL)
        perm = rng.permutation(len(offsets))
        vs2, _ = enumerate_product(w, 2, normals[perm], offsets[perm], TOL)
        assert match_point_sets(vs.points, vs2.points, 1e-8)

    def test_tags_are_active_rows(self):
        vs, p = enumerate_product(SQUARE, 2, np.array([[1.0, 0.0, 1.0, 0.0]]), np.array([0.0]))
        assert not vs.is_empty
        for x, row in zip(vs.points, vs.active):
            active = np.abs(p.normals @ x - p.offsets) < 1e-9
            assert np.array_equal(row, active)
            assert row.sum() >= 4

    def test_vertex_cap_marks_truncated(self):
        # 16 seed tuples, and the cut adds vertices past the cap of 17
        vs, _ = enumerate_product(SQUARE, 2, np.array([[1.0, 1.0, 1.0, 1.0]]), np.array([1.0]), cap=17)
        assert vs.truncated and vs.is_empty
        vs, _ = enumerate_product(SQUARE, 2, np.array([[1.0, 1.0, 1.0, 1.0]]), np.array([1.0]))
        assert not vs.truncated and len(vs.points) > 17


class TestProductPolytope:
    def test_square_two_signals(self):
        sq = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        p = product_polytope(sq, 2)
        assert p.dim == 4
        assert len(p.offsets) == 8
        # block y acts only on coordinates (2y, 2y+1)
        assert np.all(p.normals[:4, 2:] == 0)
        assert np.all(p.normals[4:, :2] == 0)
        vs = polytope_vertices_bruteforce(p.normals, p.offsets)
        assert len(vs) == 16  # 4 square vertices per block

    def test_point_set_uses_equality_pairs(self):
        pt = PolygonV(np.array([[1.5, -2.0]]))
        p = product_polytope(pt, 3)
        vs = polytope_vertices_bruteforce(p.normals, p.offsets)
        assert len(vs) == 1
        assert np.allclose(vs[0], [1.5, -2.0] * 3)

    def test_segment_product(self):
        seg = convex_hull([(0.0, 0.0), (1.0, 1.0)])
        p = product_polytope(seg, 2)
        vs = polytope_vertices_bruteforce(p.normals, p.offsets)
        assert len(vs) == 4  # 2 endpoints per block


class TestEnumerateProduct:
    def test_no_extra_rows_gives_tuple_vertices(self, pd_game):
        from ppesolve.game import individually_rational_set

        w0 = individually_rational_set(pd_game).individually_rational
        vs, poly = enumerate_product(w0, 2, np.zeros((0, 4)), np.zeros(0))
        assert len(vs.points) == 16  # 4 vertices of W0 in each of 2 blocks
        assert poly.dim == 4
        # every product vertex is a tuple of W0 vertices
        for x in vs.points:
            for y in range(2):
                block = x[2 * y : 2 * y + 2]
                assert min(np.linalg.norm(w0.vertices - block, axis=1)) < 1e-9

    def test_extra_rows_match_direct_enumeration(self):
        sq = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        extra_n = np.array([[1.0, 0.0, 1.0, 0.0]])
        extra_b = np.array([1.0])
        vs, poly = enumerate_product(sq, 2, extra_n, extra_b)
        assert np.array_equal(poly.normals[:8], product_polytope(sq, 2).normals)
        assert np.array_equal(poly.normals[8:], extra_n)
        oracle = polytope_vertices_bruteforce(poly.normals, poly.offsets)
        assert match_point_sets(vs.points, oracle, 1e-7)

    def test_infeasible_extra_rows_give_empty(self):
        sq = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        extra_n = np.array([[1.0, 0.0, 0.0, 0.0]])
        extra_b = np.array([-5.0])
        vs, _ = enumerate_product(sq, 2, extra_n, extra_b)
        assert vs.is_empty

    def test_cap_truncates_large_product(self):
        sq = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        vs, _ = enumerate_product(sq, 4, np.zeros((0, 8)), np.zeros(0), cap=100)
        assert vs.truncated
        assert vs.is_empty  # no uncut prefix of the 256 seed tuples


class TestAffineImage:
    @pytest.mark.parametrize("seed", range(5))
    def test_image_hull_contains_interior_samples(self, seed):
        rng = np.random.default_rng(3000 + seed)
        w, normals, offsets = random_cut_system(rng, 2, extra_rows=4, num_points=5)
        vs, _ = enumerate_product(w, 2, normals, offsets, TOL)
        if len(vs.points) < 3:
            pytest.skip("degenerate draw")
        M = rng.normal(size=(2, 4))
        c = rng.normal(size=2)
        hull = convex_hull(vs.points @ M.T + c)
        # random convex combinations of polytope vertices map inside the hull
        for _ in range(50):
            lam = rng.dirichlet(np.ones(len(vs.points)))
            x = lam @ vs.points
            assert contains_point(hull, M @ x + c, 1e-7)


def random_facet_masks(rng, f, words, rows):
    """f active-set masks over `rows` row bits spread across the words."""
    bit_ids = rng.choice(64 * words, size=rows, replace=False)
    active = rng.random((f, rows)) < rng.uniform(0.3, 0.8)
    bits = np.zeros((f, 64 * words), dtype=bool)
    bits[:, bit_ids] = active
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)


class TestKernels:
    @pytest.mark.parametrize("words", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_adjacent_pairs_matches_pairwise_loop(self, words, seed, monkeypatch):
        rng = np.random.default_rng(5000 + 10 * words + seed)
        if seed % 2:
            monkeypatch.setattr(_kernels, "_BLOCK", 97)  # many small blocks
        masks = random_facet_masks(
            rng, int(rng.integers(2, 70)), words, int(rng.choice([6, 12, 40]))
        )
        min_common = int(rng.integers(1, 6))
        got = _kernels.adjacent_pairs(masks, min_common)
        expected = adjacent_pairs_loop(masks, min_common)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_sorted_unique_edges_matches_unique(self, seed):
        rng = np.random.default_rng(6000 + seed)
        n = int(rng.integers(2, 400))
        edges = rng.integers(0, n, size=(int(rng.integers(1, 3000)), 2))
        got = _sorted_unique_edges(edges)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(np.sort(edges, axis=1), axis=0))

    def test_finalize_drops_rank_deficient_points(self):
        # x <= 1 appears twice: (1, 0.5) has two active rows but rank 1
        p = HPolytope(
            2,
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
            np.array([1.0, 1.0, 1.0, 0.0, 0.0]),
        )
        pts = np.array([[1.0, 0.5], [1.0, 1.0], [0.0, 0.0], [0.5, 0.5]])
        vs = _finalize(pts, p, TOL)
        assert np.array_equal(vs.points, [[0.0, 0.0], [1.0, 1.0]])
        assert [np.flatnonzero(row).tolist() for row in vs.active] == [[3, 4], [0, 1, 2]]
