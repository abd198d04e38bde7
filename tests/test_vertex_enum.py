import numpy as np
import pytest

from ppesolve import _kernels
from ppesolve.geometry import PolygonV, Tolerances, convex_hull
from ppesolve.vertex_enum import (
    HPolytope,
    UnboundedPolytopeError,
    _finalize,
    _sorted_unique_edges,
    affine_image_2d,
    enumerate_product,
    enumerate_vertices,
    product_polytope,
)

from oracles import adjacent_pairs_loop, match_point_sets, polytope_vertices_bruteforce

TOL = Tolerances()


def box_polytope(dim, lo=-1.0, hi=1.0):
    eye = np.eye(dim)
    normals = np.vstack([eye, -eye])
    offsets = np.concatenate([np.full(dim, hi), np.full(dim, -lo)])
    return HPolytope(dim, normals, offsets)


def random_bounded_system(rng, dim, extra_rows):
    """A box plus random cutting planes through points near the origin."""
    p = box_polytope(dim)
    normals = rng.normal(size=(extra_rows, dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    anchors = rng.uniform(-0.6, 0.6, size=(extra_rows, dim))
    offsets = np.einsum("ij,ij->i", normals, anchors)
    return HPolytope(
        dim,
        np.vstack([p.normals, normals]),
        np.concatenate([p.offsets, offsets]),
    )


class TestEnumerateVertices:
    def test_hypercube_4d(self):
        vs = enumerate_vertices(box_polytope(4))
        assert len(vs.points) == 16
        assert match_point_sets(
            vs.points, np.array(np.meshgrid(*[[-1, 1]] * 4)).reshape(4, -1).T, 1e-9
        )
        assert not vs.truncated

    def test_simplex_4d(self):
        dim = 4
        normals = np.vstack([-np.eye(dim), np.ones((1, dim))])
        offsets = np.concatenate([np.zeros(dim), [1.0]])
        vs = enumerate_vertices(HPolytope(dim, normals, offsets))
        expected = np.vstack([np.zeros((1, dim)), np.eye(dim)])
        assert match_point_sets(vs.points, expected, 1e-9)

    def test_unbounded_raises(self):
        p = HPolytope(3, np.eye(3), np.ones(3))  # open toward -infinity
        with pytest.raises(UnboundedPolytopeError):
            enumerate_vertices(p)

    def test_empty_system(self):
        p = HPolytope(
            2,
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            np.array([-1.0, -1.0, 1.0, 1.0]),  # x <= -1 and -x <= -1
        )
        vs = enumerate_vertices(p)
        assert vs.is_empty

    def test_output_is_lexicographically_sorted(self):
        vs = enumerate_vertices(box_polytope(3))
        pts = [tuple(p) for p in vs.points]
        assert pts == sorted(pts)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(10))
    def test_against_bruteforce_oracle(self, dim, seed):
        rng = np.random.default_rng(dim * 1000 + seed)
        p = random_bounded_system(rng, dim, extra_rows=5)
        vs = enumerate_vertices(p)
        oracle = polytope_vertices_bruteforce(p.normals, p.offsets)
        assert match_point_sets(vs.points, oracle, 1e-7), (
            f"{len(vs.points)} vs oracle {len(oracle)}"
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(7000 + seed)
        p = random_bounded_system(rng, 3, extra_rows=6)
        vs = enumerate_vertices(p)
        perm = rng.permutation(len(p.offsets))
        q = HPolytope(3, p.normals[perm], p.offsets[perm])
        vs2 = enumerate_vertices(q)
        assert match_point_sets(vs.points, vs2.points, 1e-8)

    def test_tags_are_active_rows(self):
        p = box_polytope(2)
        vs = enumerate_vertices(p)
        for x, tag in zip(vs.points, vs.tags):
            active = {
                r
                for r in range(len(p.offsets))
                if abs(p.normals[r] @ x - p.offsets[r]) < 1e-9
            }
            assert set(tag) == active
            assert len(tag) >= 2

    def test_vertex_cap_marks_truncated(self):
        vs = enumerate_vertices(box_polytope(4), cap=10)
        assert vs.truncated


class TestProductPolytope:
    def test_square_two_signals(self):
        sq = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        p = product_polytope(sq, 2)
        assert p.dim == 4
        assert len(p.offsets) == 8
        # block y acts only on coordinates (2y, 2y+1)
        assert np.all(p.normals[:4, 2:] == 0)
        assert np.all(p.normals[4:, :2] == 0)
        vs = enumerate_vertices(p)
        assert len(vs.points) == 16  # 4 square vertices per block

    def test_point_set_uses_equality_pairs(self):
        pt = PolygonV(np.array([[1.5, -2.0]]))
        p = product_polytope(pt, 3)
        vs = enumerate_vertices(p)
        assert len(vs.points) == 1
        assert np.allclose(vs.points[0], [1.5, -2.0] * 3)

    def test_segment_product(self):
        seg = convex_hull([(0.0, 0.0), (1.0, 1.0)])
        vs = enumerate_vertices(product_polytope(seg, 2))
        assert len(vs.points) == 4  # 2 endpoints per block


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
        direct = enumerate_vertices(poly)
        assert match_point_sets(vs.points, direct.points, 1e-8)
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
        assert len(vs.points) <= 100


class TestAffineImage:
    def test_identity_on_2d(self):
        vs = enumerate_vertices(box_polytope(2))
        img = affine_image_2d(vs, np.eye(2), np.zeros(2))
        assert np.array_equal(img, vs.points)

    def test_zero_matrix_gives_constant(self):
        vs = enumerate_vertices(box_polytope(4))
        img = affine_image_2d(vs, np.zeros((2, 4)), np.array([3.0, -1.0]))
        assert np.all(img == [3.0, -1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_image_hull_contains_interior_samples(self, seed):
        rng = np.random.default_rng(3000 + seed)
        p = random_bounded_system(rng, 4, extra_rows=4)
        vs = enumerate_vertices(p)
        if len(vs.points) < 3:
            pytest.skip("degenerate draw")
        M = rng.normal(size=(2, 4))
        c = rng.normal(size=2)
        hull = convex_hull(affine_image_2d(vs, M, c))
        # random convex combinations of polytope vertices map inside the hull
        from ppesolve.geometry import contains_point

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
        vs = _finalize(pts, p, TOL, truncated=False)
        assert np.array_equal(vs.points, [[0.0, 0.0], [1.0, 1.0]])
        assert vs.tags == (frozenset({3, 4}), frozenset({0, 1, 2}))
