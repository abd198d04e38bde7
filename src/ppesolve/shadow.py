"""P(a) as the 2-D shadow of the cut continuation polytope.

Q = {x in R^(2k) : A x <= b} stacks W's halfspace rows on each of the k
signal blocks, then the deviation rows.  P(a) is the image of Q under
the payoff map x -> M x + c, whose block y is the signal's weight
delta * rho(y|a) >= 0 times the 2x2 identity, so its vertices are
images of vertices of Q that maximise d.(M x) for some direction d.  A
basis (2k tight rows) is optimal for d while its multipliers
y(d) = d.(M B^-1) are nonnegative; turning d once around the circle
from one optimal basis and pivoting whenever a multiplier reaches zero
visits every such vertex, in CCW order, at about one pivot per vertex
of P(a) (the shadow-vertex method: Gass & Saaty 1955; Borgwardt 1987).

The walk keeps the dense tableau A B^-1, with the slacks b - A x as an
extra column, and the payoff map's rows M B^-1, with -M x, below it;
one rank-1 update per pivot keeps all of it current.  M is never
formed: its rows follow from the weights and the start basis.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import PolygonV, Tolerances, canonical_polygon, halfspace_rows

# angle of the first objective direction: any works, a generic one
# meets fewer ties
_PHI0 = 1.0
_D = (math.cos(_PHI0), math.sin(_PHI0))
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
    i = values.index(min(values))
    cut = values[i] + _TIE * (1.0 + abs(values[i]))
    for j, v in enumerate(values):
        if v <= cut and rows[j] < rows[i]:
            i = j
    return i


def _w_side(w: PolygonV, k: int) -> tuple:
    """W's side of the start tableau for k blocks: B^-1, x0, x0 in every
    block, W's rows in every block (N B^-1 in the block's own columns and
    the slacks b - N x0; the basic rows exactly e_p and 0), the start
    basis and W's half of the band over eps, max(1, |b|) per row.  Built
    once per polygon and k, kept in its __dict__ as cached_property would."""
    memo = vars(w).setdefault("_walk_side", {})
    if not memo:
        normals2, offsets2 = halfspace_rows(w)
        if w.is_full_dim:  # W's two rows tight at its maximiser of _D
            i = int(np.argmax(w.vertices @ _D))
            start = [(i - 1) % w.num_vertices, i]
        else:  # a point or segment: rows 0 and 1, and rows 2 and 3, are opposite pairs
            start = [0 if normals2[0] @ _D >= 0 else 1, 2 if normals2[2] @ _D >= 0 else 3]
        inv = np.linalg.inv(normals2[start])
        x0 = inv @ offsets2[start]
        nb = normals2 @ inv
        nb[start] = np.eye(2)
        slack = offsets2 - normals2 @ x0
        slack[start] = 0.0
        memo[None] = start, inv, x0, nb, slack, np.maximum(1.0, np.abs(offsets2))
    if k not in memo:
        start, inv, x0, nb, slack, scale = memo[None]
        m = len(slack)
        top = np.zeros((k * m, 2 * k + 1))
        for y in range(k):
            top[y * m : (y + 1) * m, 2 * y : 2 * y + 2] = nb
            top[y * m : (y + 1) * m, -1] = slack
        basis = [y * m + r for y in range(k) for r in start]
        memo[k] = inv, x0, np.tile(x0, k), top, basis, np.tile(scale, k)
    return memo[k]


def shadow_polygon(w: PolygonV, weights, normals, offsets, c, tol: Tolerances):
    """The image under x -> c + sum_y weights[y] x_y of W^k cut by
    normals.x <= offsets, for k = len(weights) nonnegative weights.

    Starts at the vertex of W^k that maximises a fixed direction, block
    by block: W's two rows tight at W's maximiser x0 in every block, so
    the start basis inverts block by block with one 2x2 inverse; W's side
    of it is built once per polygon and shared by every walk (`_w_side`).
    That start is optimal only because the weights are nonnegative.  It
    restores the cut rows with dual-simplex pivots; when a violated row
    finds no row to leave, the polytope is empty.  Then it turns the
    direction once around the circle, which visits P(a)'s vertices in
    CCW order, so their images are kept as they come
    (`canonical_polygon`), not hulled.  Bland's rule settles ties, and
    a basic row whose multiplier is zero for every direction never
    leaves.  Returns (PolygonV, pivots).
    """
    k = len(weights)
    n = 2 * k
    inv, x0, x0k, top, basis, scale = _w_side(w, k)
    basis = list(basis)
    km = len(top)
    R = km + len(offsets)
    T = np.empty((R + 2, n + 1))
    T[:km] = top
    # the deviation rows, a row times B^-1 block by block, then the map's
    # rows, whose block y is weights[y] times B^-1's row
    T[km:R, :n] = (normals.reshape(-1, k, 2) @ inv).reshape(-1, n)
    T[km:R, n] = offsets - normals @ x0k
    T[R:, :n] = (inv[:, None, :] * weights[:, None]).reshape(2, n)
    T[R:, n] = -weights.sum() * x0
    band = tol.eps * np.concatenate((scale, np.maximum(1.0, np.abs(offsets))))
    inf = np.full(R, math.inf)  # the ratio of a row that does not block
    limit = 10 * (R + n) + 100  # a guard: the walk ends long before
    pivots = 0

    # phase 1, dual simplex at d: the most violated row enters
    d0, d1 = _D
    while True:
        j = int((T[:R, n] + band).argmin())
        if T[j, n] >= -band[j]:
            break
        row = T[j, :n].tolist()
        ps = [p for p in range(n) if row[p] > _PIVOT]
        if not ps:
            return PolygonV.empty(), pivots
        gu, gv = T[R:, :n].tolist()
        ratios = [max(d0 * gu[p] + d1 * gv[p], 0.0) / row[p] for p in ps]
        _pivot(T, basis, j, ps[_first(ratios, [basis[p] for p in ps])])
        pivots += 1
        if pivots > limit:
            raise RuntimeError("shadow walk: dual simplex exceeded its pivot bound")

    # phase 2: rotate the direction from _PHI0 once around the circle
    images = [T[R:, n].tolist()]
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
        ratios = np.divide(np.maximum(T[:R, n], 0.0), -col, out=inf.copy(), where=col < -_PIVOT)
        least = ratios.min()
        if least == math.inf:
            raise RuntimeError("shadow walk: an edge of the polytope is unbounded")
        _pivot(T, basis, int((ratios <= least + _TIE * (1.0 + least)).argmax()), p)
        images.append(T[R:, n].tolist())
        pivots += 1
        if pivots > limit:
            raise RuntimeError("shadow walk: rotation exceeded its pivot bound")
    cx, cy = c.tolist()
    return canonical_polygon([[cx - u, cy - v] for u, v in images], tol), pivots
