"""Vertices of a product polytope W^k cut by extra rows.

W is a 2-D polygon, so W^k (one copy per signal block) has the tuples of
W's vertices as its vertices and is seeded from them directly.  The
enumerator keeps a double description of the working polytope: vertex
coordinates plus, per vertex, the bitmask of active rows and an explicit
edge list.  The extra rows are inserted one at a time; each cut clips
crossing edges and reconstructs the adjacency on the new facet with the
combinatorial active-set test, except the last cut, after which no edge
is read.  A vertex's active rows are the masks this bookkeeping carries:
the seed's come from W's vertices, each cut sets its row's bit on the
vertices within the on-plane band, and no coordinate re-check follows.
When the seed or a cut exceeds the vertex cap, the result is empty and
marked truncated.  Everything is deterministic: rows are inserted in a
fixed heuristic order and results are returned in lexicographic vertex
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .geometry import PolygonV, Tolerances, DEFAULT_TOL, greedy_cluster, halfspace_rows

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


# ---------------------------------------------------------------------------
# bitmask helpers


def _words_for(nrows: int) -> int:
    return max(1, (nrows + 63) // 64)


def _bit(row: int, words: int) -> np.ndarray:
    m = np.zeros(words, dtype=np.uint64)
    m[row // 64] = np.uint64(1) << np.uint64(row % 64)
    return m


class _DDState:
    """Mutable working polytope: points, active-row masks, edge list."""

    __slots__ = ("points", "masks", "edges")

    def __init__(self, points, masks, edges):
        self.points = points  # (n, dim) float64
        self.masks = masks  # (n, words) uint64
        self.edges = edges  # (e, 2) int64, sorted pairs, unique; None after the last cut

    @property
    def num_points(self):
        return self.points.shape[0]


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
    state: _DDState,
    normal: np.ndarray,
    offset: float,
    row: int,
    dim: int,
    words: int,
    tol: Tolerances,
    need_edges: bool,
):
    """Cut the working polytope by normal.x <= offset.  Returns the new
    state, or None when the cut empties the polytope.  Without
    need_edges (no further cut follows) the new state has no edge list."""
    s = state.points @ normal - offset
    eps = tol.eps_side * max(1.0, abs(offset))
    status = np.where(s < -eps, 0, np.where(s <= eps, 1, 2)).astype(np.int8)

    if not np.any(status <= 1):
        return None
    bit = _bit(row, words)
    if not np.any(status == 2):
        on = status == 1
        state.masks[on] |= bit
        return state

    keep = status <= 1
    new_index = np.full(state.num_points, -1, dtype=np.int64)
    new_index[keep] = np.arange(int(keep.sum()))
    pts_kept = state.points[keep]
    masks_kept = state.masks[keep].copy()
    on_kept = status[keep] == 1
    masks_kept[on_kept] |= bit

    e0, e1 = state.edges[:, 0], state.edges[:, 1]
    st0, st1 = status[e0], status[e1]
    cross = ((st0 == 0) & (st1 == 2)) | ((st0 == 2) & (st1 == 0))
    ce = state.edges[cross]
    if len(ce):
        swap = status[ce[:, 0]] == 2
        ce[swap] = ce[swap][:, ::-1]  # first endpoint strictly inside
        u, v = ce[:, 0], ce[:, 1]
        t = (s[u] / (s[u] - s[v]))[:, None]
        cut_pts = state.points[u] + t * (state.points[v] - state.points[u])
        cut_masks = (state.masks[u] & state.masks[v]) | bit

        # merge coincident cut points into clusters (centroid + mask union)
        labels, founders = greedy_cluster(cut_pts, tol.eps_point)
        n_clusters = len(founders)
        new_pts = np.zeros((n_clusters, dim))
        new_masks = np.zeros((n_clusters, words), dtype=np.uint64)
        np.add.at(new_pts, labels, cut_pts)  # sums in cut order
        np.bitwise_or.at(new_masks, labels, cut_masks)
        new_pts /= np.bincount(labels, minlength=n_clusters)[:, None]

        # merge clusters that coincide with a kept on-plane vertex
        on_ids = np.where(on_kept)[0]
        cluster_target = np.arange(n_clusters) + len(pts_kept)
        drop = np.zeros(n_clusters, dtype=bool)
        if len(on_ids):
            d = np.linalg.norm(
                new_pts[:, None, :] - pts_kept[on_ids][None, :, :], axis=2
            )
            hit = np.argmin(d, axis=1)
            drop = d[np.arange(n_clusters), hit] <= tol.eps_point
            tgt = on_ids[hit[drop]]
            np.bitwise_or.at(masks_kept, tgt, new_masks[drop])
            cluster_target[drop] = tgt
        if np.any(drop):
            remap = np.full(n_clusters, -1, dtype=np.int64)
            remap[~drop] = np.arange(int((~drop).sum())) + len(pts_kept)
            cluster_target = np.where(drop, cluster_target, remap)
            new_pts = new_pts[~drop]
            new_masks = new_masks[~drop]

        cut_target = cluster_target[labels]
        clipped_edges = np.column_stack([new_index[u], cut_target])
    else:
        new_pts = np.zeros((0, dim))
        new_masks = np.zeros((0, words), dtype=np.uint64)
        clipped_edges = np.zeros((0, 2), dtype=np.int64)

    all_pts = np.vstack([pts_kept, new_pts])
    all_masks = np.vstack([masks_kept, new_masks])
    if not need_edges:
        return _DDState(all_pts, all_masks, None)

    kept_edges = state.edges[(st0 <= 1) & (st1 <= 1)]
    kept_edges = np.column_stack([new_index[kept_edges[:, 0]], new_index[kept_edges[:, 1]]])

    # adjacency on the fresh facet: kept on-plane vertices + new vertices
    facet_ids = np.concatenate(
        [np.where(on_kept)[0], np.arange(len(new_pts)) + len(pts_kept)]
    ).astype(np.int64)
    if len(facet_ids) >= 2:
        pairs = _kernels.adjacent_pairs(all_masks[facet_ids], dim - 1)
        facet_edges = facet_ids[pairs]
    else:
        facet_edges = np.zeros((0, 2), dtype=np.int64)

    edges = _sorted_unique_edges(
        np.vstack([kept_edges, clipped_edges, facet_edges]).astype(np.int64)
    )
    return _DDState(all_pts, all_masks, edges)


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
    """Per W vertex its active rows of `halfspace_rows(w)`; W's edges."""
    m = w.num_vertices
    if w.is_point:
        return [{0, 1, 2, 3}], []
    if w.is_segment:
        return [{0, 1, 3}, {0, 1, 2}], [(0, 1)]
    vact = [{(k - 1) % m, k} for k in range(m)]
    edges = [(k, (k + 1) % m) for k in range(m)]
    return vact, edges


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
    incremental insertion.  The active rows are the double description's
    own masks: the product rows' from the seed tuples, each extra row's
    from its cut.  They are not recomputed from the coordinates.  If
    the seed or a cut has more than `cap` vertices, the VertexSet is
    empty and truncated.
    """
    vact, edges2 = _polygon_seed(w)
    v2 = w.vertices
    S = num_signals
    dim = 2 * S
    mv = len(v2)
    prod = product_polytope(w, S)
    m2 = prod.num_rows // S
    extra_normals = np.asarray(extra_normals, dtype=float).reshape(-1, dim)
    extra_offsets = np.asarray(extra_offsets, dtype=float).reshape(-1)
    stacked = HPolytope(
        dim,
        np.vstack([prod.normals, extra_normals]),
        np.concatenate([prod.offsets, extra_offsets]),
    )
    words = _words_for(stacked.num_rows)
    if mv**S > cap:
        return _empty_vertex_set(dim, truncated=True), stacked

    digits = np.stack(
        np.meshgrid(*([np.arange(mv)] * S), indexing="ij"), axis=-1
    ).reshape(-1, S)
    pts = v2[digits].reshape(len(digits), dim)
    # a seed point's active rows are those of its W vertex in each block
    templates = np.zeros((S, mv, words), dtype=np.uint64)
    for y in range(S):
        for k in range(mv):
            for r in vact[k]:
                templates[y, k] |= _bit(y * m2 + r, words)
    masks = np.bitwise_or.reduce(templates[np.arange(S), digits], axis=1)

    # seed edges: one block steps along an edge of W, the others stay put
    strides = mv ** np.arange(S - 1, -1, -1)
    edges2 = np.asarray(edges2, dtype=np.int64).reshape(-1, 2)
    edge_parts = []
    for y in range(S):
        ids, e = np.nonzero(digits[:, y, None] == edges2[None, :, 0])
        step = (edges2[e, 1] - edges2[e, 0]) * strides[y]
        edge_parts.append(np.column_stack([ids, ids + step]))
    edges = _sorted_unique_edges(np.vstack(edge_parts))
    state = _DDState(pts.copy(), masks, edges)

    center = pts.mean(axis=0)
    order = _insertion_order(extra_normals, extra_offsets, center)
    for k in order:
        state = _insert_halfspace(
            state,
            extra_normals[k],
            extra_offsets[k],
            m2 * S + int(k),
            dim,
            words,
            tol,
            need_edges=k != order[-1],
        )
        if state is None:
            return _empty_vertex_set(dim), stacked
        if state.num_points > cap:
            return _empty_vertex_set(dim, truncated=True), stacked
    order = np.lexsort(state.points.T[::-1])
    # bit r of a mask, little-endian across its words, is stacked row r
    bytes_ = state.masks[order].astype("<u8").view(np.uint8)
    active = np.unpackbits(bytes_, axis=1, bitorder="little")[:, : stacked.num_rows]
    return VertexSet(state.points[order], active.astype(bool)), stacked

