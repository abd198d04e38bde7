"""The shadow walk against the hull of the image of every vertex of Q.

Q is W^k cut by extra rows, and the walk maps it through
x -> c + sum_y weights[y] x_y.  The reference solves every choice of 2k
rows as equalities (`polytope_vertices_bruteforce`), keeps the feasible
solutions, maps them through the matrix kron(weights, I) and hulls the
images.  It builds W^k's rows with `oracles.product_rows`, which the
walk does not use.

The walk keeps its images in the CCW order it visits them instead of
hulling them, so each test also checks that hulling its polygon again
changes no byte.
"""

import numpy as np
import pytest

from ppesolve.geometry import PolygonV, Tolerances, convex_hull, halfspace_rows, hausdorff
from ppesolve.shadow import shadow_polygon

from oracles import byte_equal, polytope_vertices_bruteforce, product_rows

TOL = Tolerances()
SQUARE = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
PENTAGON = convex_hull([(0, 0), (2, -0.5), (3, 1), (1.5, 2.5), (-0.5, 1.5)])


def payoff_map(rho, delta=0.8):
    """The discounted-average map's weights delta * rho and offset, for
    signal probabilities rho (a zero marks a block the profile never
    emits)."""
    return delta * np.asarray(rho, dtype=float), np.array([0.1, -0.2])


def unit_rows(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def reference(w, weights, normals, offsets, c):
    w_normals, w_offsets = product_rows(*halfspace_rows(w), len(weights))
    pts = polytope_vertices_bruteforce(
        np.vstack([w_normals, normals]), np.concatenate([w_offsets, offsets])
    )
    M = np.kron(weights, np.eye(2))
    return PolygonV.empty() if len(pts) == 0 else convex_hull(pts @ M.T + c, TOL)


def assert_canonical(p):
    """Hulling p again changes no byte: p has no duplicate, flat or
    reflex vertex, and starts at its lexicographic minimum."""
    assert byte_equal(convex_hull(p.vertices, TOL), p)


def assert_matches_reference(w, weights, normals, offsets, c):
    p, _ = shadow_polygon(w, weights, normals, offsets, c, TOL)
    assert_canonical(p)
    ref = reference(w, weights, normals, offsets, c)
    assert p.is_empty == ref.is_empty
    if not ref.is_empty:
        assert p.num_vertices == ref.num_vertices
        assert hausdorff(p, ref) <= 1e-9
    return p


SLAB = unit_rows([[1, 0, -1, 0], [-1, 0, 1, 0]])

CASES = {
    # W is a point: Q is that point in every block
    "point W": (convex_hull([(0.5, -0.2)]), 2, unit_rows([1, 1, 1, 1]), np.array([5.0]), (0.3, 0.7)),
    "segment W": (convex_hull([(0, 0), (2, 1)]), 2, unit_rows([1, 0, -1, 0]), np.array([0.5]), (0.3, 0.7)),
    "segment W, reversed start": (
        convex_hull([(0, 1), (2, 0)]), 2, unit_rows([0, 1, 0, -1]), np.array([0.2]), (0.6, 0.4),
    ),
    "opposite-normal rows": (SQUARE, 2, SLAB, np.array([0.2, 0.1]), (0.3, 0.7)),
    "opposite-normal rows of zero width": (SQUARE, 2, SLAB, np.array([0.0, 0.0]), (0.3, 0.7)),
    # through the vertex (1, 1, 0, 0) of W^2, with vertices on either side
    "row through a vertex of W^k": (
        SQUARE, 2, unit_rows([1, 1, -1, 0]), np.array([2.0 / np.sqrt(3.0)]), (0.5, 0.5),
    ),
    "duplicated row": (
        PENTAGON, 2, unit_rows([[1, -1, 0.5, 1], [1, -1, 0.5, 1]]), np.array([0.7, 0.7]), (0.3, 0.7),
    ),
    # x1 + x2 + x3 + x4 >= 4 leaves only the corner (1, 1, 1, 1)
    "Q is a single point": (SQUARE, 2, unit_rows([-1, -1, -1, -1]), np.array([-2.0]), (0.3, 0.7)),
    "Q is empty": (SQUARE, 2, unit_rows([-1, -1, -1, -1]), np.array([-2.1]), (0.3, 0.7)),
    # block 2 is never emitted, but both players' rows reach it
    "kept block never emitted": (
        PENTAGON, 2, unit_rows([[-1, 0, 0.5, 0], [0, -1, 0, 0.5]]), np.array([-0.3, -0.2]), (1.0, 0.0),
    ),
    "three blocks, one never emitted": (
        SQUARE, 3, unit_rows([[-1, 0, 1, 0, 0.5, 0], [0, -1, 0, 1, 0, 0.5]]), np.array([0.1, 0.1]),
        (0.5, 0.5, 0.0),
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_matches_bruteforce_vertices(name):
    w, k, normals, offsets, rho = CASES[name]
    assert len(rho) == k
    weights, c = payoff_map(rho)
    p = assert_matches_reference(w, weights, normals, offsets, c)
    if name == "Q is empty":
        assert p.is_empty
    if name == "Q is a single point":
        assert p.is_point


@pytest.mark.parametrize("seed", range(6))
def test_random_systems(seed):
    """Random W (polygon, segment or point), 1 to 3 blocks, 1 to 3 rows
    that miss, cut or empty W^k, and signal probabilities with zeros."""
    rng = np.random.default_rng(7100 + seed)
    kinds = set()
    for _ in range(25):
        k = int(rng.integers(1, 4))
        shape = str(rng.choice(["polygon", "segment", "point"], p=[0.6, 0.2, 0.2]))
        count = {"polygon": int(rng.integers(3, 10 - 2 * k)), "segment": 2, "point": 1}[shape]
        w = convex_hull(rng.uniform(-1.0, 1.0, size=(count, 2)))
        rows = int(rng.integers(1, 4))
        normals = unit_rows(rng.normal(size=(rows, 2 * k)))
        vals = normals.reshape(rows, k, 2) @ w.vertices.T
        lo, hi = vals.min(axis=2).sum(axis=1), vals.max(axis=2).sum(axis=1)
        offsets = lo + rng.uniform(-0.2, 1.2, size=rows) * (hi - lo)
        rho = rng.random(k) * (rng.random(k) > 0.3)
        weights, c = payoff_map(rho)
        p = assert_matches_reference(w, weights, normals, offsets, c)
        kinds.add("empty" if p.is_empty else "nonempty")
    assert kinds == {"empty", "nonempty"}


class TestMapForm:
    """Weights of one to three blocks, some of them zero."""

    @pytest.mark.parametrize("rho", [(0.3, 0.7), (1.0, 0.0), (0.0, 0.5, 0.5), (0.0, 0.0)])
    def test_block_map_passes(self, rho):
        k = len(rho)
        normals = unit_rows(np.r_[1.0, -1.0, np.zeros(2 * k - 2)])
        assert_matches_reference(PENTAGON, np.array(rho), normals, np.array([0.3]), np.array([0.1, -0.2]))
