"""Vertices of a product polytope W^k cut by extra rows.

The solve path uses only `product_polytope` from this module: P(a)
comes from the shadow walk (`shadow`).  The enumerator stays as the
oracle that tests hold the walk against.

W is a 2-D polygon, so W^k (one copy per signal block) has the tuples of
W's vertices as its vertices and is seeded from them directly, each
seed edge stepping one block to its successor along W.  The enumerator
keeps a double description of the working polytope: vertex
coordinates, an (n, rows) boolean matrix of active rows, and an
explicit edge list.  The extra rows are inserted one at a time.  Each
cut drops the vertices beyond its on-plane band and adds one vertex per
crossing edge, whose active rows are the AND of the edge's endpoints'
plus the cut's row; cut points are never merged by coordinates.  The
adjacency on the new facet is then rebuilt with the combinatorial
active-set test (`_kernels.adjacent_pairs`), except after the last cut,
when no edge is read.  A vertex's active rows are the ones this
bookkeeping carries: the seed's come from W's vertices, each cut sets
its row on the vertices within its on-plane band and on its new
vertices, and no coordinate re-check follows.  When the seed or a cut
exceeds the vertex cap, the result is empty and marked truncated.
Everything is deterministic: rows are inserted in a fixed heuristic
order and results are returned in lexicographic vertex order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .geometry import PolygonV, Tolerances, DEFAULT_TOL, halfspace_rows

DEFAULT_VERTEX_CAP = 200_000


@dataclass(frozen=True)
class HPolytope:
    """n.x <= b rows in R^dim."""

    dim: int
    normals: np.ndarray  # (m, dim)
    offsets: np.ndarray  # (m,)

    def __post_init__(self):
        n = np.asarray(self.normals, dtype=float).reshape(-1, self.dim)
        b = np.asarray(self.offsets, dtype=float).reshape(-1)
        if len(n) != len(b):
            raise ValueError("normals/offsets length mismatch")
        if not np.all(np.isfinite(n)) or not np.all(np.isfinite(b)):
            raise ValueError("non-finite constraint data")
        object.__setattr__(self, "normals", n)
        object.__setattr__(self, "offsets", b)

    @property
    def num_rows(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True)
class VertexSet:
    """Enumerated vertices with their active rows; a truncated set is
    empty, because the enumeration stopped at the vertex cap."""

    points: np.ndarray  # (n, dim)
    active: np.ndarray  # (n, rows) bool: row r is tight at point k
    truncated: bool = False

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.num_points == 0


def _empty_vertex_set(dim: int, truncated: bool = False) -> VertexSet:
    return VertexSet(np.zeros((0, dim)), np.zeros((0, 0), dtype=bool), truncated)


def _sorted_unique_edges(edges: np.ndarray) -> np.ndarray:
    """Rows (i, j) with i < j, deduplicated, in lexicographic order."""
    if len(edges) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    e = np.sort(edges, axis=1)
    n = int(e[:, 1].max()) + 1
    key = np.sort(e[:, 0] * n + e[:, 1])
    key = key[np.concatenate([[True], key[1:] != key[:-1]])]
    return np.column_stack([key // n, key % n])


def _insert_halfspace(
    points: np.ndarray,
    masks: np.ndarray,
    edges: np.ndarray,
    normal: np.ndarray,
    offset: float,
    row: int,
    dim: int,
    tol: Tolerances,
    need_edges: bool,
):
    """Cut the working polytope (points, masks, edges) by
    normal.x <= offset, setting column `row` of the (n, rows) boolean
    active matrix `masks` where the row is tight.  Edges may be listed
    in either orientation.  Returns the new (points, masks, edges), or
    None when the cut empties the polytope.  Without need_edges (no
    further cut follows) the new edge list is None."""
    s = points @ normal - offset
    eps = tol.eps * max(1.0, abs(offset))
    status = np.where(s < -eps, 0, np.where(s <= eps, 1, 2)).astype(np.int8)

    if not np.any(status <= 1):
        return None
    if not np.any(status == 2):
        masks[status == 1, row] = True
        return points, masks, edges

    keep = status <= 1
    new_index = np.full(len(points), -1, dtype=np.int64)
    new_index[keep] = np.arange(int(keep.sum()))
    pts_kept = points[keep]
    masks_kept = masks[keep]
    on_kept = status[keep] == 1
    masks_kept[on_kept, row] = True

    e0, e1 = edges[:, 0], edges[:, 1]
    st0, st1 = status[e0], status[e1]
    cross = ((st0 == 0) & (st1 == 2)) | ((st0 == 2) & (st1 == 0))
    # one new vertex per crossing edge; its active rows are those the
    # edge's endpoints share, plus the cut's own row
    ce = edges[cross]
    swap = status[ce[:, 0]] == 2
    ce[swap] = ce[swap][:, ::-1]  # first endpoint strictly inside
    u, v = ce[:, 0], ce[:, 1]
    t = (s[u] / (s[u] - s[v]))[:, None]
    new_pts = points[u] + t * (points[v] - points[u])
    new_masks = masks[u] & masks[v]
    new_masks[:, row] = True
    cut_ids = np.arange(len(ce)) + len(pts_kept)
    clipped_edges = np.column_stack([new_index[u], cut_ids])

    all_pts = np.vstack([pts_kept, new_pts])
    all_masks = np.vstack([masks_kept, new_masks])
    if not need_edges:
        return all_pts, all_masks, None

    kept_edges = new_index[edges[(st0 <= 1) & (st1 <= 1)]]

    # adjacency on the fresh facet: kept on-plane vertices + new vertices
    facet_ids = np.concatenate([np.where(on_kept)[0], cut_ids])
    if len(facet_ids) >= 2:
        pairs = _kernels.adjacent_pairs(all_masks[facet_ids], dim - 1)
        facet_edges = facet_ids[pairs]
    else:
        facet_edges = np.zeros((0, 2), dtype=np.int64)

    # a kept on-plane edge and the facet test can give the same pair
    edges = _sorted_unique_edges(
        np.vstack([kept_edges, clipped_edges, facet_edges]).astype(np.int64)
    )
    return all_pts, all_masks, edges


def _insertion_order(normals, offsets, center):
    """Most-cutting rows first, judged against a deterministic center."""
    norms = np.linalg.norm(normals, axis=1)
    norms[norms == 0] = 1.0
    tightness = (normals @ center - offsets) / norms
    return np.argsort(-tightness, kind="stable")


# ---------------------------------------------------------------------------
# public operations


def product_polytope(w: PolygonV, num_signals: int) -> HPolytope:
    """Replicate W's halfspace rows on each signal's coordinate block.

    Degenerate sets use equality pairs (see `halfspace_rows`).  Row j of
    signal block y lands at index y * m + j, acting on coordinates
    (2y, 2y+1).
    """
    normals2, offsets2 = halfspace_rows(w)
    m = len(offsets2)
    dim = 2 * num_signals
    normals = np.zeros((m * num_signals, dim))
    offsets = np.zeros(m * num_signals)
    for y in range(num_signals):
        normals[y * m : (y + 1) * m, 2 * y : 2 * y + 2] = normals2
        offsets[y * m : (y + 1) * m] = offsets2
    return HPolytope(dim, normals, offsets)


def _polygon_seed(w: PolygonV):
    """W's vertex-by-row active matrix over `halfspace_rows(w)`, and each
    vertex's successor along W (-1 for none): W's edges are the pairs
    (k, succ[k]), each listed once."""
    if w.is_point:
        return np.ones((1, 4), dtype=bool), np.array([-1])
    if w.is_segment:
        return np.array([[1, 1, 0, 1], [1, 1, 1, 0]], dtype=bool), np.array([1, -1])
    k = np.arange(w.num_vertices)
    active = np.zeros((len(k), len(k)), dtype=bool)
    active[k, k] = active[k, k - 1] = True
    return active, (k + 1) % len(k)


def enumerate_product(
    w: PolygonV,
    num_signals: int,
    extra_normals: np.ndarray,
    extra_offsets: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
    cap: int = DEFAULT_VERTEX_CAP,
):
    """Vertices of (W^num_signals intersected with extra rows).

    Returns (VertexSet, HPolytope) where the polytope stacks the product
    rows first and the extra rows after them; the VertexSet's active
    columns index that stacking.  The product seed is built directly
    from W's vertex tuples, so only the extra rows go through
    incremental insertion.  The active matrix is the double
    description's own: the product rows' columns come from the seed
    tuples, each extra row's from its cut.  It is not recomputed from
    the coordinates.  If the seed or a cut has more than `cap` vertices,
    the VertexSet is empty and truncated.
    """
    active2, succ = _polygon_seed(w)
    v2 = w.vertices
    S = num_signals
    dim = 2 * S
    mv = len(v2)
    prod = product_polytope(w, S)
    extra_normals = np.asarray(extra_normals, dtype=float).reshape(-1, dim)
    extra_offsets = np.asarray(extra_offsets, dtype=float).reshape(-1)
    stacked = HPolytope(
        dim,
        np.vstack([prod.normals, extra_normals]),
        np.concatenate([prod.offsets, extra_offsets]),
    )
    if mv**S > cap:
        return _empty_vertex_set(dim, truncated=True), stacked

    digits = np.stack(
        np.meshgrid(*([np.arange(mv)] * S), indexing="ij"), axis=-1
    ).reshape(-1, S)
    n = len(digits)
    pts = v2[digits].reshape(n, dim)
    # a seed point's active rows are those of its W vertex in each block
    masks = np.zeros((n, stacked.num_rows), dtype=bool)
    masks[:, : prod.num_rows] = active2[digits].reshape(n, prod.num_rows)

    # seed edges: one block steps to its W successor, the others stay put
    strides = mv ** np.arange(S - 1, -1, -1)
    nxt = succ[digits]
    has = nxt >= 0
    ids = np.arange(n)[:, None]
    edges = np.column_stack(
        [np.broadcast_to(ids, has.shape)[has], (ids + (nxt - digits) * strides)[has]]
    )

    center = pts.mean(axis=0)
    order = _insertion_order(extra_normals, extra_offsets, center)
    for k in order:
        cut = _insert_halfspace(
            pts,
            masks,
            edges,
            extra_normals[k],
            extra_offsets[k],
            prod.num_rows + int(k),
            dim,
            tol,
            need_edges=k != order[-1],
        )
        if cut is None:
            return _empty_vertex_set(dim), stacked
        pts, masks, edges = cut
        if len(pts) > cap:
            return _empty_vertex_set(dim, truncated=True), stacked
    order = np.lexsort(pts.T[::-1])
    return VertexSet(pts[order], masks[order]), stacked
