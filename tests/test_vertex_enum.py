import numpy as np
import pytest

from ppesolve import _kernels
from ppesolve.geometry import (
    PolygonV,
    Tolerances,
    contains_point,
    convex_hull,
    halfspace_rows,
    hausdorff,
)
from ppesolve.vertex_enum import (
    _sorted_unique_edges,
    enumerate_product,
    product_polytope,
)

from oracles import adjacent_pairs_loop, match_point_sets, polytope_vertices_bruteforce

TOL = Tolerances()
SQUARE = convex_hull([(-1, -1), (1, -1), (1, 1), (-1, 1)])


def random_cut_system(rng, k, extra_rows, num_points, degeneracy=None):
    """W, the hull of a few random points, and extra rows through random
    points of W^k.  degeneracy "vertex" puts the first row through a
    vertex of W^k; "duplicate" repeats the first row at the end."""
    w = convex_hull(rng.uniform(-1.0, 1.0, size=(num_points, 2)))
    normals = rng.normal(size=(extra_rows, 2 * k))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    weights = rng.dirichlet(np.ones(w.num_vertices), size=(extra_rows, k))
    anchors = (weights @ w.vertices).reshape(extra_rows, 2 * k)
    if degeneracy == "vertex":
        anchors[0] = w.vertices[rng.integers(w.num_vertices, size=k)].ravel()
    offsets = np.einsum("ij,ij->i", normals, anchors)
    if degeneracy == "duplicate":
        normals = np.vstack([normals, normals[:1]])
        offsets = np.append(offsets, offsets[0])
    return w, normals, offsets


def spike_polygon(rng):
    """A thin spike whose tip is cut 1e-8 wide, rotated and shifted at
    random; returns W and the spike's unit axis."""
    half_tip = 5e-9
    pts = np.array([[-0.5, -0.05], [-0.5, 0.05], [0.5, -half_tip], [0.5, half_tip]])
    a = rng.uniform(0.0, 2 * np.pi)
    rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    w = convex_hull(pts @ rot.T + rng.uniform(-0.3, 0.3, size=2))
    assert w.num_vertices == 4
    return w, rot[:, 0]


def near_degenerate_system(rng, k, case):
    """Spike W, one near-degenerate row and two generic rows over W^k.

    "spike" cuts across the spike 2e-7 short of its tip; "miss" leaves a
    W^k vertex outside by 2-5 eps, with a normal in that vertex's normal
    cone; "through" passes through a W^k vertex at one tip corner, whose
    neighbour at the other corner, 1e-8 away, lies outside.  The generic
    rows keep the near-degenerate spot inside.
    """
    w, axis = spike_polygon(rng)
    m, dim = w.num_vertices, 2 * k
    tips = np.argsort(w.vertices @ axis)[-2:]
    digits = rng.integers(m, size=k)
    if case == "spike":
        n = np.concatenate([axis, 0.1 * rng.normal(size=dim - 2)])
        spot = np.concatenate([w.vertices[tips].mean(axis=0) - 2e-7 * axis,
                               w.vertices[digits[1:]].ravel()])
    elif case == "miss":
        edge_normals, _ = halfspace_rows(w)
        weights = rng.uniform(0.2, 1.0, size=(k, 2))
        n = np.concatenate([weights[y] @ edge_normals[[(d - 1) % m, d]]
                            for y, d in enumerate(digits)])
        spot = w.vertices[digits].ravel()
    else:
        digits[0] = tips[0]
        side = w.vertices[tips[1]] - w.vertices[tips[0]]
        n = np.concatenate([side / np.linalg.norm(side), 0.5 * rng.normal(size=dim - 2)])
        spot = w.vertices[digits].ravel()
    n /= np.linalg.norm(n)
    b = n @ spot
    if case == "miss":
        b -= rng.uniform(2.0, 5.0) * TOL.eps * max(1.0, abs(b))
    normals = rng.normal(size=(2, dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    anchors = 0.5 * w.vertices[rng.integers(m, size=(2, k))].reshape(2, dim)
    anchors += 0.5 * np.tile(w.vertices.mean(axis=0), k)
    offsets = np.einsum("ij,ij->i", normals, anchors)
    flip = np.where(normals @ spot > offsets, -1.0, 1.0)
    return w, np.vstack([n, flip[:, None] * normals]), np.append(b, flip * offsets)


class TestEnumerateVertices:
    """Vertices of W^k cut by extra rows (`enumerate_product`)."""

    def test_hypercube_4d(self):
        vs, _ = enumerate_product(SQUARE, 2, np.zeros((0, 4)), np.zeros(0))
        assert len(vs.points) == 16
        assert match_point_sets(
            vs.points, np.array(np.meshgrid(*[[-1, 1]] * 4)).reshape(4, -1).T, 1e-9
        )

    def test_simplex_4d(self):
        # [0,1]^4 cut by sum(x) <= 1 is the corner simplex
        unit = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        vs, _ = enumerate_product(unit, 2, np.ones((1, 4)), np.array([1.0]))
        expected = np.vstack([np.zeros((1, 4)), np.eye(4)])
        assert match_point_sets(vs.points, expected, 1e-9)

    def test_empty_system(self):
        # x1 <= -2 misses [-1, 1]^2 entirely
        vs, _ = enumerate_product(SQUARE, 1, np.array([[1.0, 0.0]]), np.array([-2.0]))
        assert vs.is_empty

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

    @pytest.mark.parametrize("degeneracy", [None, "vertex", "duplicate"])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_active_rows_match_recomputed_slack(self, degeneracy, k, seed):
        # the double description's masks, against the slack of every
        # stacked row at the returned coordinates; each point's active
        # rows have full rank, so it is a vertex
        rng = np.random.default_rng(8000 + 100 * k + seed)
        w, normals, offsets = random_cut_system(rng, k, 3, 6 - k, degeneracy)
        # orient every row to keep W^k's centroid, so the cut is nonempty
        flip = np.where(normals @ np.tile(w.vertices.mean(axis=0), k) > offsets, -1.0, 1.0)
        vs, p = enumerate_product(w, k, flip[:, None] * normals, flip * offsets, TOL)
        assert match_point_sets(vs.points, polytope_vertices_bruteforce(p.normals, p.offsets), 1e-7)
        slack = vs.points @ p.normals.T - p.offsets
        expected = np.abs(slack) <= TOL.eps * np.maximum(1.0, np.abs(p.offsets))
        assert vs.active.shape == (vs.num_points, p.num_rows)
        assert np.array_equal(vs.active, expected)
        for row in vs.active:
            assert np.linalg.matrix_rank(p.normals[row], tol=1e-8) == p.dim
        if degeneracy == "duplicate":
            assert np.array_equal(vs.active[:, -1], vs.active[:, -4])

    def test_duplicated_row_matches_bruteforce(self):
        # the row x1 + x3 <= 0.5 given twice: the enumerator inserts a
        # cut that removes nothing, and the oracle skips the singular
        # subsets that hold both copies
        unit = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        row = np.array([[1.0, 0.0, 1.0, 0.0]])
        vs, p = enumerate_product(unit, 2, np.vstack([row, row]), np.array([0.5, 0.5]))
        oracle = polytope_vertices_bruteforce(p.normals, p.offsets)
        assert match_point_sets(vs.points, oracle, 1e-9)
        assert np.array_equal(vs.active[:, -1], vs.active[:, -2])
        assert vs.active[:, -1].any()

    @pytest.mark.parametrize("case", ["spike", "miss", "through"])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_near_degenerate_cuts(self, case, k, seed):
        # every crossing edge adds its own cut point, so near-coincident
        # points stay apart; none may break a row, and the set must
        # still be the polytope's vertices, up to that closeness
        rng = np.random.default_rng(9000 + 100 * k + seed)
        w, normals, offsets = near_degenerate_system(rng, k, case)
        vs, p = enumerate_product(w, k, normals, offsets, TOL)
        gaps = np.linalg.norm(vs.points[:, None] - vs.points[None], axis=2)
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() <= 1e-7, "the case has no near-coincident points"
        band = TOL.eps * np.maximum(1.0, np.abs(p.offsets))
        assert np.all(vs.points @ p.normals.T - p.offsets <= band)
        # the oracle de-duplicates at 1e-7, so counts are not compared
        oracle = polytope_vertices_bruteforce(p.normals, p.offsets)
        dists = np.linalg.norm(vs.points[:, None] - oracle[None], axis=2)
        assert dists.min(axis=1).max() <= 1e-7
        assert dists.min(axis=0).max() <= 1e-7
        # images under a map of norm 1: the oracle within the same band
        # differs from the points only by its merging at eps
        exact = polytope_vertices_bruteforce(p.normals, p.offsets, TOL.eps)
        M = rng.normal(size=(2, 2 * k))
        M /= np.linalg.norm(M, 2)
        c = rng.normal(size=2)
        images = convex_hull(vs.points @ M.T + c)
        assert hausdorff(images, convex_hull(exact @ M.T + c)) <= 2 * TOL.eps


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
    """An (f, 64 * words - 3) boolean active matrix whose `rows` random
    columns are in use; the width is not a multiple of 64, so the
    kernel pads it before packing it into `words` words."""
    cols = rng.choice(64 * words - 3, size=rows, replace=False)
    active = rng.random((f, rows)) < rng.uniform(0.3, 0.8)
    masks = np.zeros((f, 64 * words - 3), dtype=bool)
    masks[:, cols] = active
    return masks


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
