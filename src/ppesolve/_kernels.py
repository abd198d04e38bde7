"""Facet-adjacency test of the vertex enumerator.

After a cut, two vertices on the fresh facet are joined by an edge when
their active sets share enough rows and no third facet vertex's active
set contains the shared rows.  The candidate stage is quadratic in the
facet size; the dominance stage tests each candidate pair only against
its endpoint's candidate partners.

The enumerator passes active sets as a boolean vertex-by-row matrix;
the kernel packs it into little-endian uint64 words, bit r for row r,
and counts and compares common rows on those words.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 1_000_000


def adjacent_pairs(masks: np.ndarray, min_common: int) -> np.ndarray:
    """Combinatorial adjacency among facet vertices.

    `masks` is the (f, rows) boolean active matrix of the f facet
    vertices.  Two vertices are adjacent when their common active set
    has at least `min_common` rows and no third vertex's active set
    dominates it.  Returns an (e, 2) int64 array of index pairs with
    i < j, in lexicographic order.
    """
    f, rows = masks.shape
    if f < 2:
        return np.zeros((0, 2), dtype=np.int64)
    padded = np.pad(masks, ((0, 0), (0, -rows % 64)))
    bits = np.packbits(padded, axis=1, bitorder="little").view(np.uint64)
    w = bits.shape[1]
    # work in blocks of about _BLOCK array elements, to bound the buffers
    ii_parts, jj_parts = [], []
    chunk = max(1, _BLOCK // (f * w))
    for lo in range(0, f, chunk):
        hi = min(lo + chunk, f)
        common = np.bitwise_count(bits[lo:hi, None, :] & bits[None, lo:, :])
        counts = common.sum(axis=2, dtype=np.uint16)
        a, b = np.nonzero(counts >= min_common)
        keep = a < b  # b counts from lo, as a does
        ii_parts.append(a[keep] + lo)
        jj_parts.append(b[keep] + lo)
    ii = np.concatenate(ii_parts)
    jj = np.concatenate(jj_parts)
    # a third vertex whose active set contains the common rows of (i, j)
    # shares them with i, so it is one of i's candidate partners: only
    # those are tested
    src, dst = np.concatenate([ii, jj]), np.concatenate([jj, ii])
    by_src = np.argsort(src, kind="stable")
    dst = dst[by_src]
    start = np.searchsorted(src[by_src], np.arange(f + 1))
    keep = np.zeros(len(ii), dtype=bool)
    chunk = max(1, _BLOCK // max(1, int(np.diff(start).max(initial=0))))
    for lo in range(0, len(ii), chunk):
        i, j = ii[lo : lo + chunk], jj[lo : lo + chunk]
        deg = start[i + 1] - start[i]
        pair = np.repeat(np.arange(len(i)), deg)
        # pair p's slots in t hold dst[start[i[p]] : start[i[p] + 1]]
        offset = np.cumsum(deg) - deg
        t = dst[np.repeat(start[i] - offset, deg) + np.arange(len(pair))]
        c = bits[i[pair]] & bits[j[pair]]
        third = np.all((bits[t] & c) == c, axis=1) & (t != j[pair])
        keep[lo : lo + chunk] = np.bincount(pair[third], minlength=len(i)) == 0
    return np.column_stack([ii[keep], jj[keep]]).astype(np.int64)

