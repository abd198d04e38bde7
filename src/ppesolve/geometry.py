"""Tolerance-aware 2-D convex polygon algebra.

All polygons are kept in a canonical V-form: counter-clockwise vertex
order starting at the lexicographically smallest vertex, with
near-coincident and collinear vertices removed.  Polygons are built by
`convex_hull`, which applies the tolerance to its output vertex cycle
only.  An empty vertex list encodes the empty set, one vertex a
point, two vertices a segment.  Halfspace rows are derived from that
form on first use and kept on the polygon (`halfspace_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """One absolute threshold, eps, scaled once per problem instance.

    On a hull's vertex cycle, a vertex within eps of its neighbour is
    merged into it and a vertex within eps of its neighbours' chord is
    dropped; a point within eps (times the row's offset, when that
    exceeds 1) of a halfspace's boundary lies on it.
    """

    eps: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be finite and strictly positive")

    def scaled(self, magnitude: float) -> "Tolerances":
        """Scale the threshold by a payoff-magnitude bound (>= 1)."""
        return Tolerances(self.eps * max(1.0, float(magnitude)))


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class PolygonV:
    """Convex polygon in canonical extreme-point form.  It owns a read-only
    copy of its vertices, and keeps what it derives from them on itself."""

    vertices: np.ndarray  # (m, 2) float64

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 2).copy()
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @cached_property  # it writes __dict__, which the frozen dataclass leaves open
    def _rows(self) -> tuple:
        """`halfspace_rows` of a nonempty polygon, derived once."""
        v = self.vertices
        if self.is_point:
            x, y = v[0]
            normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
            offsets = np.array([x, -x, y, -y])
        elif self.is_segment:
            a, b = v
            t = b - a
            t = t / np.hypot(*t)
            n = np.array([t[1], -t[0]])
            normals = np.array([n, -n, t, -t])
            offsets = np.array([n @ a, -(n @ a), t @ b, -(t @ a)])
        else:
            e = np.concatenate((v[1:], v[:1])) - v
            normals = np.column_stack([e[:, 1], -e[:, 0]])
            normals = normals / np.hypot(normals[:, 0], normals[:, 1])[:, None]
            offsets = np.einsum("ij,ij->i", normals, v)
        normals.setflags(write=False)
        offsets.setflags(write=False)
        return normals, offsets

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.num_vertices == 0

    @property
    def is_point(self) -> bool:
        return self.num_vertices == 1

    @property
    def is_segment(self) -> bool:
        return self.num_vertices == 2

    @property
    def is_full_dim(self) -> bool:
        return self.num_vertices >= 3

    @staticmethod
    def empty() -> "PolygonV":
        return PolygonV(np.zeros((0, 2)))


# relative rounding bound per term of a dot product, with room to spare
_ROUNDING = 8 * np.finfo(float).eps

# relative error bound of the floating-point turn test (Shewchuk's
# ccwerrboundA): beyond it the computed sign is the true one
_TURN_ERR = 3.3306690738754716e-16


def _exact_turn(o, a, p) -> float:
    """Sign of (a - o) x (p - o), computed exactly in integers.

    Every float is an integer over a power of two, so scaling all six
    coordinates to the largest denominator keeps them integers.
    """
    ratios = [v.as_integer_ratio() for v in (*o, *a, *p)]
    den = max(d for _, d in ratios)
    ox, oy, ax, ay, px, py = (n * (den // d) for n, d in ratios)
    c = (ax - ox) * (py - oy) - (ay - oy) * (px - ox)
    return float((c > 0) - (c < 0))


def _within_chord(o, a, p, eps: float) -> bool:
    """True when a lies within eps of the segment from o to p."""
    dx, dy = p[0] - o[0], p[1] - o[1]
    ex, ey = a[0] - o[0], a[1] - o[1]
    length2 = dx * dx + dy * dy
    dot = ex * dx + ey * dy
    if length2 == 0.0 or dot < 0.0 or dot > length2:
        return False  # a projects outside the chord: a spike, not a bend
    return abs(dx * ey - dy * ex) <= eps * length2**0.5


def _drop_flat_vertices(cycle: list, eps: float) -> list:
    """Reduce a convex cycle of [x, y] lists in one stack pass plus the wrap.

    A vertex within eps of the next one kept is merged into it, the
    lexicographically smaller of the two surviving; a vertex within eps
    of the chord between its neighbours is removed.
    """
    out = []
    for p in cycle:
        while out:
            if math.dist(out[-1], p) <= eps:
                p = min(out.pop(), p)
            elif len(out) >= 2 and _within_chord(out[-2], out[-1], p, eps):
                out.pop()
            else:
                break
        out.append(p)
    # the pass never tested the last vertex against the first, nor the
    # first against the last: settle both ends of the cycle
    start = 0
    while len(out) - start >= 2:
        if math.dist(out[-1], out[start]) <= eps:
            out[start] = min(out.pop(), out[start])
        elif _within_chord(out[-2], out[-1], out[start], eps):
            out.pop()
        elif _within_chord(out[-1], out[start], out[start + 1], eps):
            start += 1
        else:
            break
    return out[start:]


def convex_hull(points, tol: Tolerances = DEFAULT_TOL) -> PolygonV:
    """Canonical CCW hull via monotone chain; near-coincident and
    collinear vertices removed.

    The chain pops on the exact turn test, so every extreme point of the
    input survives it; only then is the eps rule applied, to the output
    cycle alone (`_drop_flat_vertices`).  A tolerance inside the chain
    would also pop a vertex where the chain doubles back along a
    near-vertical edge, losing a real extreme point.
    """
    # Python floats: sorted lists order as np.lexsort((y, x)), and the
    # scan below is scalar arithmetic, cheaper than on numpy rows; exact
    # duplicates are dropped, as they would send the chain to the exact
    # turn test
    pts = sorted(np.asarray(points, dtype=float).reshape(-1, 2).tolist())
    seq = pts[:1] + [p for q, p in zip(pts, pts[1:]) if p != q]
    if len(seq) <= 1:
        return PolygonV(np.array(seq))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                left = (ax - ox) * (p[1] - oy)
                right = (ay - oy) * (p[0] - ox)
                c = left - right
                if abs(c) <= _TURN_ERR * (abs(left) + abs(right)) + 1e-300:
                    c = _exact_turn(out[-2], out[-1], p)  # sign in doubt
                # drop a if it is collinear or a right turn
                if c <= 0.0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = chain(seq)
    upper = chain(seq[::-1])
    return canonical_polygon(lower[:-1] + upper[:-1], tol)


def canonical_polygon(cycle: list, tol: Tolerances = DEFAULT_TOL) -> PolygonV:
    """The canonical polygon of a convex CCW cycle of [x, y] lists.

    Near-coincident and flat vertices are dropped (`_drop_flat_vertices`),
    then the cycle is rotated to start at its lexicographic minimum.
    """
    out = _drop_flat_vertices(cycle, tol.eps)
    i = out.index(min(out))
    return PolygonV(np.array(out[i:] + out[:i]))


def halfspace_rows(p: PolygonV):
    """Halfspace rows for any nonempty polygon, degenerate sets included.

    A full-dimensional polygon gets one unit outward-normal row per edge.
    Points and segments are emitted as equality pairs (n.x <= b and
    -n.x <= -b) so that downstream polytope machinery never sees a
    lower-dimensional set as a special case.  Returns (normals, offsets),
    read-only arrays derived once per polygon and returned to every
    later call.
    """
    if p.is_empty:
        raise ValueError("empty polygon has no halfspace form")
    return p._rows


def intersect_halfplane(
    p: PolygonV, normal, offset: float, tol: Tolerances = DEFAULT_TOL
) -> PolygonV:
    """Clip a canonical polygon by n.x <= b (Sutherland-Hodgman walk).

    A segment is walked as a 2-vertex cycle: its cut point is found
    once from each endpoint, and the hull merges the two copies.
    """
    n = np.asarray(normal, dtype=float)
    b = float(offset)
    if p.is_empty:
        return p
    s = p.vertices @ n - b
    eps = tol.eps * max(1.0, abs(b))
    if np.all(s <= eps):
        return p
    if np.all(s > eps):
        return PolygonV.empty()

    v = p.vertices
    m = len(v)
    out = []
    for k in range(m):
        a, c = v[k], v[(k + 1) % m]
        sa, sc = s[k], s[(k + 1) % m]
        if sa <= eps:
            out.append(a)
        if (sa <= eps) != (sc <= eps):
            t = sa / (sa - sc)
            out.append(a + t * (c - a))
    return convex_hull(out, tol)


def area(p: PolygonV) -> float:
    """Shoelace area; zero for empty, point, and segment sets."""
    if not p.is_full_dim:
        return 0.0
    v = p.vertices
    nxt = np.concatenate((v[1:], v[:1]))
    return 0.5 * float(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))


def _point_segment_dists(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from each point q (n, 2) to each segment a[k]b[k]: (n, m)."""
    ab = b - a
    denom = np.vecdot(ab, ab)
    t = np.vecdot(q[:, None, :] - a, ab) / np.where(denom == 0.0, 1.0, denom)
    d = q[:, None, :] - (a + np.clip(t, 0.0, 1.0)[..., None] * ab)
    return np.hypot(d[..., 0], d[..., 1])


def _dists_to_polygon(qs: np.ndarray, p: PolygonV) -> np.ndarray:
    """Distance from each point of qs (n, 2) to a nonempty convex polygon:
    0 inside it, point-segment distances computed for the others alone."""
    if p.is_empty:
        raise ValueError("empty polygon")
    v = p.vertices
    if p.is_point:
        return np.hypot(qs[:, 0] - v[0, 0], qs[:, 1] - v[0, 1])
    if p.is_segment:
        return _point_segment_dists(qs, v[:1], v[1:])[:, 0]
    normals, offsets = halfspace_rows(p)
    outside = ~np.all(qs @ normals.T - offsets <= 0.0, axis=1)  # nan included
    d = np.zeros(len(qs))
    if outside.any():
        ends = np.concatenate((v[1:], v[:1]))
        d[outside] = _point_segment_dists(qs[outside], v, ends).min(axis=1)
    return d


def dist_point_polygon(q, p: PolygonV) -> float:
    """Distance from a point to a nonempty convex polygon."""
    q = np.asarray(q, dtype=float).reshape(1, 2)
    return float(_dists_to_polygon(q, p)[0])


def hausdorff(p: PolygonV, q: PolygonV) -> float:
    """Symmetric Hausdorff distance between nonempty convex polygons.

    For convex sets the supremum is attained at a vertex of one of the
    polygons, so scanning vertices against the other set suffices.
    """
    if p.is_empty or q.is_empty:
        raise ValueError("hausdorff needs nonempty inputs")
    d_pq = _dists_to_polygon(p.vertices, q).max()
    d_qp = _dists_to_polygon(q.vertices, p).max()
    return float(max(d_pq, d_qp))


def rdp_simplify(p: PolygonV, theta: float, tol: Tolerances = DEFAULT_TOL) -> PolygonV:
    """Outward simplification: a superset of p within Hausdorff distance theta.

    Dropping edge i, from v[i] to v[i+1], extends edges i-1 and i+1 to
    their apex, which exists when they turn by less than pi.  Each round
    drops edges nearest to p first, ties in cycle order, while the apex
    lies within theta and no neighbour was dropped in the round, so each
    apex stays valid.  The name predates the rule (inward Ramer-Douglas-
    Peucker) and stays while `perfbench/tracing.py` probes it by name.
    """
    if theta < 0:
        raise ValueError("theta must be >= 0")
    if theta == 0 or p.num_vertices <= 3:
        return p
    v = p.vertices.tolist()
    while len(v) > 3:
        m, edges, apexes = len(v), [], []
        for i in range(m):
            (ax, ay), (bx, by), (cx, cy), (dx, dy) = v[i - 1], v[i], v[(i + 1) % m], v[(i + 2) % m]
            ux, uy, wx, wy = bx - ax, by - ay, dx - cx, dy - cy
            turn = ux * wy - uy * wx
            if turn > 0.0:
                t = ((cx - bx) * wy - (cy - by) * wx) / turn
                edges.append(i)
                apexes.append((bx + t * ux, by + t * uy))
        d = _dists_to_polygon(np.array(apexes).reshape(-1, 2), p)
        apex = {}
        for j in np.argsort(d, kind="stable"):
            if not d[j] <= theta:  # nan included
                break
            if (edges[j] - 1) % m not in apex and (edges[j] + 1) % m not in apex:
                apex[edges[j]] = apexes[j]
        if not apex:
            break
        # edge i's apex replaces v[i] and v[i+1]
        v = [apex.get(i, x) for i, x in enumerate(v) if (i - 1) % m not in apex]
    return p if len(v) == p.num_vertices else convex_hull(v, tol)


def intersect_polygons(p: PolygonV, q: PolygonV, tol: Tolerances = DEFAULT_TOL) -> PolygonV:
    """Intersection of two convex polygons (q may be degenerate).

    p is clipped by q's rows one at a time (`intersect_halfplane`).  When
    every vertex of p lies within each row's band, with room left for
    the rounding of its value, every clip would return p, so p itself
    is returned after one array test.
    """
    if p.is_empty or q.is_empty:
        return PolygonV.empty()
    normals, offsets = halfspace_rows(q)
    s = p.vertices @ normals.T - offsets  # (|p|, rows)
    size = np.abs(p.vertices) @ np.abs(normals).T + np.abs(offsets)
    if np.all(s + _ROUNDING * size <= tol.eps * np.maximum(1.0, np.abs(offsets))):
        return p
    out = p
    for n, b in zip(normals, offsets):
        out = intersect_halfplane(out, n, b, tol)
        if out.is_empty:
            break
    return out


def contains_point(p: PolygonV, q, slack: float = 1e-9) -> bool:
    """Membership test with absolute slack, valid for degenerate sets."""
    if p.is_empty:
        return False
    return dist_point_polygon(np.asarray(q, dtype=float), p) <= slack


def contains_polygon(outer: PolygonV, inner: PolygonV, slack: float = 1e-9) -> bool:
    """True when every vertex of `inner` lies in `outer` within slack."""
    if inner.is_empty:
        return True
    if outer.is_empty:
        return False
    return bool(_dists_to_polygon(inner.vertices, outer).max() <= slack)
