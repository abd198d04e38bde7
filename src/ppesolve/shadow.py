"""P(a) as the 2-D shadow of the cut continuation polytope.

Q = {x in R^(2k) : A x <= b} stacks W's halfspace rows on each of the k
signal blocks (`product_polytope`), then the deviation rows.  P(a) is
the image of Q under x -> M x + c, so its vertices are images of
vertices of Q that maximise d.(M x) for some direction d.  A basis
(2k tight rows) is optimal for d while its multipliers
y(d) = d.(M B^-1) are nonnegative; turning d once around the circle
from one optimal basis and pivoting whenever a multiplier reaches zero
visits every such vertex, at about one pivot per vertex of P(a) (the
shadow-vertex method: Gass & Saaty 1955; Borgwardt 1987).

The walk keeps the dense tableau A B^-1, with the slacks b - A x as an
extra column, and the payoff map's rows M B^-1, with -M x, below it;
one rank-1 update per pivot keeps all of it current.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import PolygonV, Tolerances, convex_hull
from .vertex_enum import product_polytope

# angle of the first objective direction: any works, a generic one
# meets fewer ties
_PHI0 = 1.0
# smallest tableau entry taken as a pivot
_PIVOT = 1e-11
# ratios and angles this close to the least count as tied (Bland's rule)
_TIE = 1e-12


def _pivot(T: np.ndarray, basis: list, j: int, p: int) -> None:
    """Row j enters the basis in place of position p."""
    col = T[:, p] / T[j, p]
    w = T[j].copy()
    w[p] -= 1.0
    T -= col[:, None] * w
    T[j] = 0.0  # exactly e_p, slack 0
    T[j, p] = 1.0
    basis[p] = j


def _first(values: list, rows: list) -> int:
    """Index of the least value; within _TIE of it, of the smallest row."""
    least = min(values)
    tied = [i for i, v in enumerate(values) if v <= least + _TIE * (1.0 + abs(least))]
    return min(tied, key=rows.__getitem__)


def _start_rows(w: PolygonV, normals2: np.ndarray, d: np.ndarray) -> tuple:
    """Two of W's rows tight at W's maximiser of d, with d in their cone."""
    if w.is_full_dim:
        k = int(np.argmax(w.vertices @ d))
        return ((k - 1) % w.num_vertices, k)
    # a point or segment: rows 0 and 1, and rows 2 and 3, are opposite pairs
    return (0 if normals2[0] @ d >= 0 else 1, 2 if normals2[2] @ d >= 0 else 3)


def shadow_polygon(w: PolygonV, k: int, normals, offsets, M, c, tol: Tolerances):
    """The image under x -> M x + c of W^k cut by normals.x <= offsets.

    Starts at the vertex of W^k that maximises a fixed direction, block
    by block, and restores the cut rows with dual-simplex pivots; when
    a violated row finds no row to leave, the polytope is empty.  Then
    it turns the direction once around the circle.  Bland's rule settles ties, and a basic row whose
    multiplier is zero for every direction never leaves.  Returns
    (PolygonV, pivots).
    """
    prod = product_polytope(w, k)
    m = prod.num_rows // k
    n = 2 * k
    b = np.concatenate([prod.offsets, offsets])
    R = len(b)
    d = np.array([math.cos(_PHI0), math.sin(_PHI0)])
    basis = [y * m + r for y in range(k) for r in _start_rows(w, prod.normals[:m, :2], d)]
    A = np.vstack([prod.normals, normals, M])
    T = np.empty((R + 2, n + 1))
    T[:, :n] = A @ np.linalg.inv(A[basis])
    T[:, n] = -(T[:, :n] @ b[basis])
    T[:R, n] += b
    T[basis] = np.eye(n, n + 1)
    band = tol.eps * np.maximum(1.0, np.abs(b))
    limit = 10 * (R + n) + 100  # a guard: the walk ends long before
    pivots = 0

    # phase 1, dual simplex at d: the most violated row enters
    while True:
        j = int(np.argmin(T[:R, n] + band))
        if T[j, n] >= -band[j]:
            break
        row = T[j, :n]
        ps = np.flatnonzero(row > _PIVOT).tolist()
        if not ps:
            return PolygonV.empty(), pivots
        y = d @ T[R:, :n]
        p = ps[_first([max(y[p], 0.0) / row[p] for p in ps], [basis[p] for p in ps])]
        _pivot(T, basis, j, p)
        pivots += 1
        if pivots > limit:
            raise RuntimeError("shadow walk: dual simplex exceeded its pivot bound")

    # phase 2: rotate the direction from _PHI0 once around the circle
    images = [T[R:, n].copy()]
    phi, end = _PHI0, _PHI0 + 2 * math.pi
    while True:
        gu, gv = T[R:, :n].tolist()
        cs, sn = math.cos(phi), math.sin(phi)
        zero = 1e-12 * max(map(abs, gu + gv))
        ps = [p for p in range(n) if abs(gu[p]) + abs(gv[p]) > zero]
        if not ps:
            break
        # angle from d at which each multiplier u cos + v sin reaches zero
        angles = [
            math.atan2(max(gu[p] * cs + gv[p] * sn, 0.0), gu[p] * sn - gv[p] * cs)
            for p in ps
        ]
        i = _first(angles, [basis[p] for p in ps])
        if phi + angles[i] >= end:
            break
        phi += angles[i]
        p = ps[i]
        col = T[:R, p]
        js = (col < -_PIVOT).nonzero()[0]
        if not js.size:
            raise RuntimeError("shadow walk: an edge of the polytope is unbounded")
        ratios = np.maximum(T[js, n], 0.0) / -col[js]
        least = ratios.min()
        _pivot(T, basis, int(js[np.argmax(ratios <= least + _TIE * (1.0 + least))]), p)
        images.append(T[R:, n].copy())
        pivots += 1
        if pivots > limit:
            raise RuntimeError("shadow walk: rotation exceeded its pivot bound")
    return convex_hull(c - np.array(images), tol), pivots
