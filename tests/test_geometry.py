import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull

from ppesolve.geometry import (
    PolygonV,
    Tolerances,
    _dists_to_polygon,
    area,
    canonical_polygon,
    contains_polygon,
    convex_hull,
    dist_point_polygon,
    halfspace_rows,
    hausdorff,
    intersect_halfplane,
    intersect_polygons,
    rdp_simplify,
)

from oracles import (
    clip_row_by_row,
    hausdorff_sampled,
    hull_vertices_lp,
    match_point_sets,
    polytope_vertices_bruteforce,
)

RNG = np.random.default_rng(20240817)


def random_hull(n_points=12, scale=3.0, rng=RNG):
    return convex_hull(rng.uniform(-scale, scale, size=(n_points, 2)))


class TestTolerances:
    @pytest.mark.parametrize("field", ["eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-9])
    def test_rejects_non_finite_or_non_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            Tolerances(**{field: value})

    def test_scaling_to_infinity_is_rejected(self):
        assert Tolerances().scaled(10) == Tolerances(1e-8)
        with pytest.raises(ValueError):
            Tolerances().scaled(float("inf"))


class TestPolygonV:
    def test_owns_its_vertices(self):
        """Writing to the caller's array leaves the polygon as it was."""
        a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        p = PolygonV(a)
        a[1, 0] = 5.0
        same = PolygonV(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert p.vertices.tolist() == same.vertices.tolist()
        assert area(p) == 0.5
        for got, want in zip(halfspace_rows(p), halfspace_rows(same)):
            assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            p.vertices[0, 0] = 1.0


class TestConvexHull:
    def test_interior_point_dropped(self):
        p = convex_hull([(0, 0), (1, 0), (0, 1), (0.2, 0.2)])
        assert p.vertices.tolist() == [[0, 0], [1, 0], [0, 1]]

    def test_pd_payoff_points(self, pd_game):
        p = convex_hull(pd_game.payoffs.reshape(-1, 2))
        assert match_point_sets(
            p.vertices, [(2, 2), (-1, 3), (0, 0), (3, -1)], 1e-12
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_against_lp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, size=(100, 2))
        ours = convex_hull(pts).vertices
        oracle = hull_vertices_lp(pts)
        assert match_point_sets(ours, oracle, 1e-7)

    def test_collinear_points_give_segment(self):
        p = convex_hull([(0, 0), (1, 1), (2, 2), (0.5, 0.5)])
        assert p.is_segment
        assert match_point_sets(p.vertices, [(0, 0), (2, 2)], 1e-12)

    def test_empty_and_point(self):
        assert convex_hull([]).is_empty
        assert convex_hull([(1, 2), (1, 2)]).is_point

    def test_chain_keeps_vertex_below_ulp_shifted_column(self):
        # the lower chain starts at (x-, .5), one ULP left of (1, 0): a
        # tolerant turn test took (x-, .5) -> (1, 0) -> (1, 1) for
        # collinear and lost (1, 0)
        x = np.nextafter(1.0, 0.0)
        p = convex_hull([(1, 0), (x, 0.5), (x, 0.6), (2, 0.5), (1, 1)])
        assert p.vertices.tolist() == [[1, 0], [2, 0.5], [1, 1]]

    def test_near_vertical_collinear_points_keep_both_ends(self):
        x = np.nextafter(1.0, 0.0)
        p = convex_hull([(x, 0.5), (1, 0), (1, 1)])
        assert p.vertices.tolist() == [[1, 0], [1, 1]]

    @pytest.mark.parametrize("seed", range(40))
    def test_ulp_shifted_columns_against_qhull(self, seed):
        rng = np.random.default_rng(9000 + seed)
        columns = rng.choice(np.arange(-3.0, 4.0), size=int(rng.integers(2, 5)), replace=False)
        xs = []
        for x in columns:
            xs += [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
        n = int(rng.integers(4, 25))
        pts = np.column_stack([rng.choice(xs, size=n), rng.uniform(-2, 2, size=n)])
        pts[:2, 0] = columns[:2]  # two columns far apart: never collinear
        ours = convex_hull(pts)
        oracle = PolygonV(pts[ConvexHull(pts).vertices])
        assert ours.is_full_dim
        assert hausdorff(ours, oracle) <= 1e-9

    @given(
        st.lists(
            st.tuples(
                st.floats(-50, 50, allow_nan=False),
                st.floats(-50, 50, allow_nan=False),
            ),
            min_size=3,
            max_size=30,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_hull_idempotent(self, pts):
        h1 = convex_hull(pts)
        h2 = convex_hull(h1.vertices)
        assert match_point_sets(h1.vertices, h2.vertices, 1e-7)

    @staticmethod
    def assert_merged(pts, eps):
        """No two output vertices within eps, each one an input point, and
        the hull within 3 eps of qhull's."""
        pts = np.asarray(pts, dtype=float)
        ours = convex_hull(pts, Tolerances(eps))
        v = ours.vertices
        gaps = np.linalg.norm(v[:, None] - v[None], axis=2)
        assert np.all(gaps[~np.eye(len(v), dtype=bool)] > eps)
        assert all(np.any(np.all(pts == q, axis=1)) for q in v)
        distinct = np.unique(pts, axis=0)
        if len(distinct) >= 3:
            oracle = PolygonV(pts[ConvexHull(pts).vertices])
        else:
            oracle = PolygonV(distinct)
        assert hausdorff(ours, oracle) <= 3 * eps
        return ours

    @pytest.mark.parametrize("shift", [0.0, 0.3, 0.6, 0.99, 1.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_shifted_copies_of_hull_points(self, shift, seed):
        rng = np.random.default_rng(9100 + seed)
        eps = 1e-3
        base = rng.uniform(-1.0, 1.0, size=(40, 2))
        hull = base[ConvexHull(base).vertices]
        picks = rng.integers(0, len(hull), size=3 * len(hull))
        step = rng.normal(size=(len(picks), 2))
        step *= shift * eps / np.linalg.norm(step, axis=1, keepdims=True)
        pts = np.vstack([base, hull[picks] + step])
        self.assert_merged(pts[rng.permutation(len(pts))], eps)

    @pytest.mark.parametrize("spacing", [0.3, 0.6, 0.99])
    @pytest.mark.parametrize("seed", range(3))
    def test_eps_chain_along_hull_edge(self, spacing, seed):
        """Points spacing*eps apart, just outside the square's bottom edge,
        so that each is an extreme point until merged."""
        rng = np.random.default_rng(9200 + seed)
        eps = 1e-3
        x = 0.2 + np.arange(40) * spacing * eps
        chain = np.column_stack([x, -rng.uniform(0.0, 0.01 * eps, size=40)])
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        pts = np.vstack([square, chain])
        self.assert_merged(pts[rng.permutation(len(pts))], eps)

    @pytest.mark.parametrize("seed", range(5))
    def test_points_within_eps_give_a_point(self, seed):
        rng = np.random.default_rng(9300 + seed)
        eps = 1e-6
        centre = rng.uniform(-1.0, 1.0, size=2)
        angle = rng.uniform(0.0, 2 * np.pi, size=30)
        radius = 0.5 * eps * np.sqrt(rng.uniform(0.0, 1.0, size=30))
        pts = centre + radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        ours = self.assert_merged(pts, eps)
        assert ours.is_point
        assert ours.vertices.tolist() == [min(pts.tolist())]

    @pytest.mark.parametrize("seed", range(5))
    def test_two_points_within_eps_give_a_point(self, seed):
        rng = np.random.default_rng(9400 + seed)
        eps = 1e-6
        a = rng.uniform(-1.0, 1.0, size=2)
        step = rng.normal(size=2)
        pts = np.array([a, a + 0.9 * eps * step / np.linalg.norm(step)])
        ours = self.assert_merged(pts, eps)
        assert ours.vertices.tolist() == [min(pts.tolist())]

    def test_merge_keeps_lexicographically_smaller_vertex(self):
        """(1, 0) is not within eps of the chord from (0, 0) to its close
        neighbour, so only the merge rule decides which of the two stays."""
        eps = 1e-3
        near = (1.0 - 0.5 * eps, 0.8 * eps)
        ours = self.assert_merged([(0.0, 0.0), (1.0, 0.0), near], eps)
        assert ours.vertices.tolist() == [[0.0, 0.0], list(near)]

    def test_cycle_end_merges_into_first_vertex(self):
        """The last vertex of the cycle, within eps of the first, merges
        into it: the lexicographically smaller one is kept."""
        eps = 1e-3
        ours = self.assert_merged([(0.0, 0.0), (1.0, -1.0), (0.1 * eps, 0.9 * eps)], eps)
        assert ours.vertices.tolist() == [[0.0, 0.0], [1.0, -1.0]]

    def test_canonical_start_is_lex_min(self):
        p = random_hull()
        v = p.vertices
        assert all(
            (v[0, 0], v[0, 1]) <= (x, y) for x, y in v
        )

    def test_canonicalization_rotation_invariant(self):
        p = random_hull()
        for shift in range(p.num_vertices):
            q = canonical_polygon(np.roll(p.vertices, shift, axis=0).tolist())
            assert np.array_equal(q.vertices, p.vertices)


class TestHalfspaceConversion:
    def test_unit_square(self):
        sq = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        normals, offsets = halfspace_rows(sq)
        rows = {tuple(np.round(np.append(n, b), 9)) for n, b in zip(normals, offsets)}
        assert rows == {(1, 0, 1), (0, 1, 1), (-1, 0, 0), (0, -1, 0)}

    def test_pd_w0_matches_known_inequalities(self, pd_game):
        from ppesolve.game import individually_rational_set

        w0 = individually_rational_set(pd_game).individually_rational
        normals, offsets = halfspace_rows(w0)
        # x1 + 3x2 <= 8, 3x1 + x2 <= 8, -x1 <= 0, -x2 <= 0 (unit-scaled)
        expected = [
            (np.array([1, 3]) / np.sqrt(10), 8 / np.sqrt(10)),
            (np.array([3, 1]) / np.sqrt(10), 8 / np.sqrt(10)),
            (np.array([-1, 0]), 0.0),
            (np.array([0, -1]), 0.0),
        ]
        for n_exp, b_exp in expected:
            hit = np.any(
                (np.linalg.norm(normals - n_exp, axis=1) < 1e-9)
                & (np.abs(offsets - b_exp) < 1e-9)
            )
            assert hit, f"missing row {n_exp} <= {b_exp}"

    @pytest.mark.parametrize("points", [[(0.5, -2.0)], [(0, 0), (2, 1)], [(0, 0), (1, 0), (1, 1), (0, 1)]])
    def test_rows_are_derived_once_and_read_only(self, points):
        p = convex_hull(points)
        normals, offsets = halfspace_rows(p)
        again = halfspace_rows(p)
        assert again[0] is normals and again[1] is offsets
        for a in again:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_degenerate_raises(self):
        # the empty set is the one polygon without a halfspace form
        with pytest.raises(ValueError):
            halfspace_rows(PolygonV.empty())

    @pytest.mark.parametrize("seed", range(50))
    def test_round_trip(self, seed):
        p = random_hull(rng=np.random.default_rng(1000 + seed))
        back = polytope_vertices_bruteforce(*halfspace_rows(p))
        assert match_point_sets(back, p.vertices, 1e-7)

    def test_pinned_point(self):
        normals, offsets = halfspace_rows(PolygonV(np.array([[0.5, -2.0]])))
        v = polytope_vertices_bruteforce(normals, offsets)
        assert np.allclose(v, [[0.5, -2.0]])


class TestClipping:
    def test_pd_feasible_to_w0(self, pd_game):
        w_star = convex_hull(pd_game.payoffs.reshape(-1, 2))
        w0 = intersect_halfplane(w_star, (-1, 0), 0.0)
        w0 = intersect_halfplane(w0, (0, -1), 0.0)
        assert match_point_sets(
            w0.vertices, [(0, 0), (8 / 3, 0), (2, 2), (0, 8 / 3)], 1e-9
        )

    def test_redundant_halfplane_is_identity(self):
        p = random_hull()
        q = intersect_halfplane(p, (1, 0), 100.0)
        assert np.array_equal(p.vertices, q.vertices)

    def test_square_against_edge_walk_oracle(self):
        sq = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        got = intersect_halfplane(sq, (1, 0), 0.5)

        # plain vertex-by-vertex edge walk, written independently
        verts = sq.vertices
        out = []
        for k in range(len(verts)):
            a, b = verts[k], verts[(k + 1) % len(verts)]
            ina, inb = a[0] <= 0.5, b[0] <= 0.5
            if ina:
                out.append(a)
            if ina != inb:
                t = (0.5 - a[0]) / (b[0] - a[0])
                out.append(a + t * (b - a))
        assert match_point_sets(got.vertices, hull_vertices_lp(np.array(out)), 1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_clipping_shrinks_area(self, seed):
        rng = np.random.default_rng(seed)
        p = random_hull(rng=rng)
        n = rng.normal(size=2)
        n /= np.linalg.norm(n)
        b = rng.uniform(-1, 1)
        q = intersect_halfplane(p, n, b)
        assert area(q) <= area(p) + 1e-9

    def test_empty_result(self):
        p = convex_hull([(0, 0), (1, 0), (0, 1)])
        assert intersect_halfplane(p, (1, 0), -1.0).is_empty

    def test_intersect_polygons(self):
        a = convex_hull([(0, 0), (2, 0), (2, 2), (0, 2)])
        b = convex_hull([(1, 1), (3, 1), (3, 3), (1, 3)])
        c = intersect_polygons(a, b)
        assert match_point_sets(c.vertices, [(1, 1), (2, 1), (2, 2), (1, 2)], 1e-9)


class TestClipShortcut:
    """intersect_polygons returns p itself when no row of q cuts it, and
    otherwise exactly what clipping row by row returns."""

    TOL = Tolerances()
    # q's right edge is x <= 2, whose band is eps * 2
    Q = convex_hull([(-1, -1), (2, -1), (2, 2), (-1, 2)])
    BAND = 2 * TOL.eps

    @staticmethod
    def square(x_right):
        return convex_hull([(0, 0), (x_right, 0), (x_right, 1), (0, 1)])

    def assert_same(self, p, q):
        got = intersect_polygons(p, q, self.TOL)
        ref = clip_row_by_row(p, q, self.TOL)
        assert got.vertices.shape == ref.vertices.shape
        assert got.vertices.tobytes() == ref.vertices.tobytes()
        return got

    @pytest.mark.parametrize("x_right", [1.0, 2.0, 2.0 + 0.5 * BAND])
    def test_inside_or_within_band_returns_p(self, x_right):
        p = self.square(x_right)
        assert self.assert_same(p, self.Q) is p

    def test_out_by_twice_the_band_is_clipped(self):
        p = self.square(2.0 + 2 * self.BAND)
        got = self.assert_same(p, self.Q)
        assert got is not p
        assert got.vertices[:, 0].max() == 2.0

    def test_segment_q(self):
        q = convex_hull([(0, 0), (3, 3)])
        assert self.assert_same(q, q) is q
        inner = convex_hull([(1, 1), (2, 2)])
        assert self.assert_same(inner, q) is inner
        got = self.assert_same(self.square(2.0), q)
        assert match_point_sets(got.vertices, [(0, 0), (1, 1)], 1e-12)

    def test_point_q(self):
        q = PolygonV(np.array([[0.5, 0.5]]))
        assert self.assert_same(q, q) is q
        got = self.assert_same(self.square(1.0), q)
        assert match_point_sets(got.vertices, [(0.5, 0.5)], 1e-12)
        assert self.assert_same(self.square(0.25), q).is_empty

    @pytest.mark.parametrize("seed", range(40))
    def test_random_pairs(self, seed):
        rng = np.random.default_rng(7000 + seed)
        q = random_hull(rng=rng)
        # every fourth p is q shrunk about its centre, so nothing cuts it
        if seed % 4 == 0:
            c = q.vertices.mean(axis=0)
            p = convex_hull(c + 0.5 * (q.vertices - c))
            assert self.assert_same(p, q) is p
        else:
            self.assert_same(random_hull(rng=rng), q)


SEGMENT_CUTS = [
    "cut_keeps_first",
    "cut_keeps_last",
    "through_first_keeps_it",
    "through_last_keeps_it",
    "through_first_keeps_all",
    "inside",
    "outside",
    "point_inside",
    "point_on_line",
    "point_outside",
]


class TestSegmentClipping:
    """A segment is clipped by the polygon walk, as a 2-vertex cycle."""

    @pytest.mark.parametrize("case", SEGMENT_CUTS)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_parametric_cut(self, case, seed):
        rng = np.random.default_rng(4000 + seed)
        size = 10.0 ** rng.uniform(-1, 4)
        seg = convex_hull(rng.uniform(-size, size, size=(2, 2)))
        v0, v1 = seg.vertices
        d = v1 - v0
        # a line direction at most 60 degrees from the segment's, so
        # n.d >= |d| / 2; "first" and "last" are the canonical order
        turn = rng.uniform(-np.pi / 3, np.pi / 3)
        n = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]]) @ d
        n /= np.linalg.norm(n)
        t = rng.uniform(0.2, 0.8)
        cut = v0 + t * d
        # (point the line passes through, sign of n, parametric result)
        line, sign, expected = {
            "cut_keeps_first": (cut, 1, [v0, cut]),
            "cut_keeps_last": (cut, -1, [cut, v1]),
            "through_first_keeps_it": (v0, 1, [v0]),
            "through_last_keeps_it": (v1, -1, [v1]),
            "through_first_keeps_all": (v0, -1, [v0, v1]),
            "inside": (v1 + 0.5 * d, 1, [v0, v1]),
            "outside": (v0 - 0.5 * d, 1, []),
            "point_inside": (v0 + 0.1 * size * n, 1, [v0]),
            "point_on_line": (v0, 1, [v0]),
            "point_outside": (v0 - 0.1 * size * n, 1, []),
        }[case]
        poly = PolygonV(v0[None]) if case.startswith("point") else seg
        scale = max(1.0, float(np.abs(seg.vertices).max()))
        tol = Tolerances().scaled(scale)
        got = intersect_halfplane(poly, sign * n, sign * n @ line, tol)
        assert match_point_sets(got.vertices, np.reshape(expected, (-1, 2)), 1e-12 * scale)
        assert got.num_vertices < 2 or tuple(got.vertices[0]) < tuple(got.vertices[1])


class TestArea:
    def test_pd_w0(self, pd_game):
        from ppesolve.game import individually_rational_set

        w0 = individually_rational_set(pd_game).individually_rational
        # shoelace by hand over (0,0),(8/3,0),(2,2),(0,8/3) gives 16/3
        assert area(w0) == pytest.approx(16 / 3, abs=1e-12)

    def test_unit_square(self):
        assert area(convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])) == pytest.approx(1.0)

    def test_segment_and_point_are_flat(self):
        assert area(convex_hull([(0, 0), (3, 4)])) == 0.0
        assert area(convex_hull([(5, 5)])) == 0.0


class TestHausdorff:
    def test_identical_is_zero(self):
        p = random_hull()
        assert hausdorff(p, p) == 0.0

    def test_translation(self):
        sq = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        moved = convex_hull(sq.vertices + np.array([0.3, 0.0]))
        assert hausdorff(sq, moved) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_against_sampling_oracle(self, seed):
        rng = np.random.default_rng(500 + seed)
        p, q = random_hull(rng=rng), random_hull(rng=rng)
        approx = hausdorff_sampled(p.vertices, q.vertices)
        assert hausdorff(p, q) == pytest.approx(approx, abs=1e-6)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            hausdorff(PolygonV.empty(), random_hull())

    def test_point_vs_polygon(self):
        sq = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        pt = convex_hull([(2.0, 0.5)])
        assert hausdorff(sq, pt) == pytest.approx(np.hypot(2, 0.5), abs=1e-12)


class TestContainsPolygon:
    def test_empty_sets(self):
        square = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert contains_polygon(square, PolygonV.empty()) and contains_polygon(PolygonV.empty(), PolygonV.empty())
        assert not contains_polygon(PolygonV.empty(), square)

    def test_agrees_with_each_vertex_distance(self):
        """Outer polygons, segments and points, against some of their own
        vertices pulled towards, or pushed away from, their mean, each by
        its own factor, so that one inner set can mix points inside and
        outside.  The distances of all its vertices at once, which skip
        the inside ones, equal those of one vertex at a time."""
        rng = np.random.default_rng(950)
        seen = set()
        mixed = 0
        for _ in range(40):
            outer = convex_hull(rng.uniform(-2, 2, size=(int(rng.choice([1, 2, 8])), 2)))
            v, mean = outer.vertices, outer.vertices.mean(axis=0)
            pull = rng.uniform(0.3, 1.3, size=(3, 1))
            inner = convex_hull(mean + pull * (v[rng.integers(len(v), size=3)] - mean))
            each = [dist_point_polygon(q, outer) for q in inner.vertices]
            assert _dists_to_polygon(inner.vertices, outer).tolist() == each
            mixed += min(each) == 0.0 < max(each)
            for slack in (1e-9, 0.2):
                want = all(d <= slack for d in each)
                assert contains_polygon(outer, inner, slack) == want
                seen.add((slack, want))
        assert len(seen) == 4  # inside and outside at either slack
        assert mixed >= 5


class TestRdp:
    def test_theta_zero_is_identity(self):
        p = random_hull(30)
        q = rdp_simplify(p, 0.0)
        assert np.array_equal(p.vertices, q.vertices)

    def test_regular_64gon(self):
        angles = 2 * np.pi * np.arange(64) / 64
        p = convex_hull(np.column_stack([np.cos(angles), np.sin(angles)]))
        q = rdp_simplify(p, 0.5)
        assert q.num_vertices <= 8
        for v in p.vertices:
            assert dist_point_polygon(v, q) <= 0.5 + 1e-9

    def test_triangle_unchanged(self):
        t = convex_hull([(0, 0), (4, 0), (1, 3)])
        assert np.array_equal(rdp_simplify(t, 10.0).vertices, t.vertices)

    def test_square_unchanged(self):
        # opposite edges are parallel, so no edge has an apex to drop to
        sq = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert rdp_simplify(sq, 10.0) is sq

    @pytest.mark.parametrize("theta", [0.05, 0.2, 1.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_superset_and_bound(self, theta, seed):
        p = random_hull(40, rng=np.random.default_rng(900 + seed))
        q = rdp_simplify(p, theta)
        # edges are dropped outward: q holds p and lies within theta of it
        assert contains_polygon(q, p, 1e-9)
        assert hausdorff(p, q) <= theta + 1e-9
        assert area(q) >= area(p) - 1e-12
        assert q.num_vertices <= p.num_vertices

    def test_mirror_symmetric_polygon_stays_symmetric(self):
        # symmetric in x -> -x, with the axis through two edges
        p = convex_hull([[-1.1, -1.1], [1.1, -1.1], [0.8, 0.1], [0.4, 1.1], [-0.4, 1.1], [-0.8, 0.1]])
        q = rdp_simplify(p, 0.75)
        assert q.num_vertices < p.num_vertices
        assert match_point_sets(q.vertices, q.vertices * [-1.0, 1.0], 1e-9)

    # a nudge of the order of rounding noise must not move the result:
    # at the left anchor (a vertex at x = 1e-17 against one at 0.0 on
    # the same vertical edge), and at a tie of distances to a chord in a
    # mirror-symmetric polygon
    NUDGED = {
        "x=+0 anchor": (
            [[0.0, -1.0], [2.9, -2.4], [2.9, -1.0], [1.3, 3.5], [0.2, 2.9], [0.0, 0.8]],
            0.25, (0, 0), 1e-17,
        ),
        "mirror tie": (
            [[-1.1, -1.1], [1.1, -1.1], [0.8, 0.1], [0.4, 1.1], [-0.4, 1.1], [-0.8, 0.1]],
            0.75, (4, 1), 4.4e-16,
        ),
    }

    @pytest.mark.parametrize("name", NUDGED)
    def test_rounding_noise_does_not_move_the_result(self, name):
        vertices, theta, (k, axis), shift = self.NUDGED[name]
        p = convex_hull(vertices)
        nudged = np.array(vertices)
        nudged[k, axis] += shift
        q = convex_hull(nudged)
        assert not np.array_equal(p.vertices, q.vertices)
        a, b = rdp_simplify(p, theta), rdp_simplify(q, theta)
        assert a.num_vertices == b.num_vertices
        assert hausdorff(a, b) <= 1e-12
