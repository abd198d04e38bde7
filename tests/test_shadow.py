"""The shadow walk against the hull of the image of every vertex of Q.

Q is W^k cut by extra rows.  The reference solves every choice of 2k
rows as equalities (`polytope_vertices_bruteforce`), keeps the feasible
solutions, maps them through x -> M x + c and hulls the images; it
shares only `product_polytope` with the walk.
"""

import numpy as np
import pytest

from ppesolve.geometry import PolygonV, Tolerances, convex_hull, hausdorff
from ppesolve.shadow import shadow_polygon
from ppesolve.vertex_enum import product_polytope

from oracles import polytope_vertices_bruteforce

TOL = Tolerances()
SQUARE = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
PENTAGON = convex_hull([(0, 0), (2, -0.5), (3, 1), (1.5, 2.5), (-0.5, 1.5)])


def payoff_map(rho, delta=0.8):
    """The discounted-average map of `aps._payoff_map` for signal
    probabilities rho (a zero marks a block the profile never emits)."""
    k = len(rho)
    M = np.zeros((2, 2 * k))
    M[0, 0::2] = M[1, 1::2] = delta * np.asarray(rho, dtype=float)
    return M, np.array([0.1, -0.2])


def unit_rows(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def reference(w, k, normals, offsets, M, c):
    prod = product_polytope(w, k)
    pts = polytope_vertices_bruteforce(
        np.vstack([prod.normals, normals]), np.concatenate([prod.offsets, offsets])
    )
    return PolygonV.empty() if len(pts) == 0 else convex_hull(pts @ M.T + c, TOL)


def assert_matches_reference(w, k, normals, offsets, M, c):
    p, _ = shadow_polygon(w, k, normals, offsets, M, c, TOL)
    ref = reference(w, k, normals, offsets, M, c)
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
    M, c = payoff_map(rho)
    p = assert_matches_reference(w, k, normals, offsets, M, c)
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
        M, c = payoff_map(rho)
        p = assert_matches_reference(w, k, normals, offsets, M, c)
        kinds.add("empty" if p.is_empty else "nonempty")
    assert kinds == {"empty", "nonempty"}
