"""Independent brute-force oracles used to cross-check the fast paths.

Nothing in here shares code with the implementation under test: hulls
come from per-point LPs, polytope vertices from equality-subset
enumeration, Hausdorff distances from dense boundary sampling, and
deviation rows and FLM's score bound from the payoffs, signal
probabilities and delta alone.
The one exception is `clip_row_by_row`, which checks only the shortcut
that `intersect_polygons` takes around the same per-row clip.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.optimize import linprog


def hull_vertices_lp(points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Extreme points only: p is kept iff it is not a convex combination
    of the other points (small feasibility LP per point)."""
    pts = np.asarray(points, dtype=float)
    keep = []
    for k in range(len(pts)):
        others = np.delete(pts, k, axis=0)
        if len(others) == 0:
            keep.append(k)
            continue
        # weights lam >= 0, sum lam = 1, others^T lam = p
        A_eq = np.vstack([others.T, np.ones(len(others))])
        b_eq = np.concatenate([pts[k], [1.0]])
        res = linprog(
            np.zeros(len(others)),
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=[(0, None)] * len(others),
            method="highs",
        )
        if res.status != 0:
            keep.append(k)
    return pts[keep]


def deviation_rows(payoffs, signal_probs, a, delta):
    """Every one-shot deviation from profile `a` as a row n . gamma <= b
    over the 2S continuation coordinates, the promised value substituted
    out: delta * sum_y (rho(y|dev) - rho(y|a)) * gamma_i(y) <= (1-delta) *
    (u_i(a) - u_i(dev)).  Rows have unit length, but a deviation with
    rho(.|a)'s own signal distribution keeps its zero row, with 0 <= b."""
    payoffs = np.asarray(payoffs, dtype=float)
    signal_probs = np.asarray(signal_probs, dtype=float)
    S = signal_probs.shape[2]
    normals, offsets = [], []
    for i in (0, 1):
        for d in range(payoffs.shape[i]):
            if d == a[i]:
                continue
            dev = (d, a[1]) if i == 0 else (a[0], d)
            n = np.zeros(2 * S)
            n[i::2] = delta * (signal_probs[dev] - signal_probs[a])
            b = (1.0 - delta) * (payoffs[a][i] - payoffs[dev][i])
            norm = np.linalg.norm(n)
            scale = norm if norm > 0 else 1.0
            normals.append(n / scale)
            offsets.append(b / scale)
    return np.array(normals).reshape(-1, 2 * S), np.array(offsets)


def product_rows(normals, offsets, k):
    """W's rows (normals, offsets) on each of k coordinate blocks: W^k."""
    return np.kron(np.eye(k), normals), np.tile(offsets, k)


def profile_score(payoffs, signal_probs, a, lam):
    """FLM's score of profile `a` in unit direction lam, -inf when no x
    meets its rows: max lam . u(a) + sum_y rho(y|a) lam . x(y) over the
    delta-free continuation units x in R^2S, subject to every deviation
    row and lam . x(y) <= 0 for every signal y.  At delta = 1/2 the
    deviation rows carry delta and 1 - delta alike, so
    `deviation_rows(..., 0.5)` poses the delta-free rows up to scale."""
    payoffs = np.asarray(payoffs, dtype=float)
    signal_probs = np.asarray(signal_probs, dtype=float)
    lam = np.asarray(lam, dtype=float)
    S = signal_probs.shape[2]
    normals, offsets = deviation_rows(payoffs, signal_probs, a, 0.5)
    res = linprog(
        -np.kron(signal_probs[a], lam),
        A_ub=np.vstack([normals, np.kron(np.eye(S), lam)]),
        b_ub=np.concatenate([offsets, np.zeros(S)]),
        bounds=[(None, None)] * (2 * S),
        method="highs",
    )
    if res.status == 2:
        return -np.inf
    assert res.status == 0, res.message
    return float(lam @ payoffs[a] - res.fun)


def score_bound(payoffs, signal_probs, lam):
    """FLM's maximal score k*(lam), the largest `profile_score`: every
    pure PPE payoff v, at every delta, has lam . v <= k*(lam)."""
    n1, n2 = np.shape(payoffs)[:2]
    return max(profile_score(payoffs, signal_probs, (i, j), lam) for i in range(n1) for j in range(n2))


def polytope_vertices_bruteforce(
    normals: np.ndarray, offsets: np.ndarray, tol: float = 1e-7
) -> np.ndarray:
    """Solve every dim-subset of rows as equalities, keep feasible
    solutions, deduplicate.  Exponential; for small systems only."""
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    dim = normals.shape[1]
    out = []
    for rows in combinations(range(len(normals)), dim):
        A = normals[list(rows)]
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, offsets[list(rows)])
        if np.all(normals @ x - offsets <= tol * np.maximum(1.0, np.abs(offsets))):
            out.append(x)
    if not out:
        return np.zeros((0, dim))
    pts = np.array(out)
    # dedup within tol
    kept: list[np.ndarray] = []
    for p in pts[np.lexsort(pts.T[::-1])]:
        if not kept or all(np.linalg.norm(p - q) > tol for q in kept):
            kept.append(p)
    return np.array(kept)


def boundary_samples(vertices: np.ndarray, per_edge: int = 200) -> np.ndarray:
    """Dense point sample of a polygon boundary (vertex order given)."""
    v = np.asarray(vertices, dtype=float)
    if len(v) == 1:
        return v
    ts = np.linspace(0.0, 1.0, per_edge, endpoint=False)
    segs = []
    for k in range(len(v)):
        a, b = v[k], v[(k + 1) % len(v)]
        segs.append(a + ts[:, None] * (b - a))
    return np.vstack(segs)


def _inside_ccw(points: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Point-in-convex-polygon via edge cross products (CCW order)."""
    inside = np.ones(len(points), dtype=bool)
    m = len(verts)
    for k in range(m):
        a, b = verts[k], verts[(k + 1) % m]
        cross = (b[0] - a[0]) * (points[:, 1] - a[1]) - (b[1] - a[1]) * (
            points[:, 0] - a[0]
        )
        inside &= cross >= -1e-12
    return inside


def hausdorff_sampled(vp: np.ndarray, vq: np.ndarray, per_edge: int = 20000) -> float:
    """Hausdorff distance between convex polygons via dense sampling.

    For convex sets the supremum is attained at a vertex, so only the
    vertices of each polygon are measured, against a dense sample of the
    other boundary (zero when the vertex lies inside the other set)."""
    vp = np.asarray(vp, dtype=float)
    vq = np.asarray(vq, dtype=float)
    sp = boundary_samples(vp, per_edge)
    sq = boundary_samples(vq, per_edge)

    def directed(verts, other_samples, other_verts):
        d = np.linalg.norm(verts[:, None, :] - other_samples[None, :, :], axis=2)
        nearest = d.min(axis=1)
        if len(other_verts) >= 3:
            nearest[_inside_ccw(verts, other_verts)] = 0.0
        return nearest.max()

    return max(directed(vp, sq, vq), directed(vq, sp, vp))


def match_point_sets(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Set equality of two point clouds within tol (greedy matching)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    used = np.zeros(len(b), dtype=bool)
    for i in range(len(a)):
        j = int(np.argmin(np.where(used, np.inf, d[i])))
        if used[j] or d[i, j] > tol:
            return False
        used[j] = True
    return True


def adjacent_pairs_loop(masks: np.ndarray, min_common: int) -> np.ndarray:
    """Combinatorial adjacency, one dominance test per candidate pair.

    masks is an (f, rows) boolean active matrix.  (i, j) with i < j is
    kept when its common active set has at least min_common rows and no
    third row of masks contains that set."""
    f = len(masks)
    out = []
    for i in range(f):
        for j in range(i + 1, f):
            c = masks[i] & masks[j]
            if int(c.sum()) < min_common:
                continue
            dominated = np.all((masks & c) == c, axis=1)
            if int(dominated.sum()) <= 2:
                out.append((i, j))
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def clip_row_by_row(p, q, tol):
    """p clipped by each of q's halfspace rows in turn, no shortcut."""
    from ppesolve.geometry import PolygonV, halfspace_rows, intersect_halfplane

    if p.is_empty or q.is_empty:
        return PolygonV.empty()
    out = p
    for n, b in zip(*halfspace_rows(q)):
        out = intersect_halfplane(out, n, b, tol)
        if out.is_empty:
            break
    return out
