"""Facet-adjacency test of the vertex enumerator.

After a cut, two vertices on the fresh facet are joined by an edge when
their active sets share enough rows and no third facet vertex's active
set contains the shared rows.  The test is quadratic in the facet size.
It is compiled with numba when numba is installed (the optional `numba`
extra); otherwise, or with PPE_NO_NUMBA=1, the vectorized numpy version
runs.  Both return the same pairs in the same order.

Active constraint sets are stored as multi-word uint64 bitmasks, one row
bit per inserted halfspace.
"""

from __future__ import annotations

import os

import numpy as np

USE_NUMBA = os.environ.get("PPE_NO_NUMBA", "") not in ("1", "true", "yes")
if USE_NUMBA:
    try:
        import numba
    except ImportError:  # pragma: no cover
        USE_NUMBA = False

_BLOCK = 1_000_000


def adjacent_pairs_numpy(masks: np.ndarray, min_common: int) -> np.ndarray:
    """Combinatorial adjacency among facet vertices, vectorized.

    Two vertices are adjacent when their common active set has at least
    `min_common` rows and no third vertex's active set dominates it.
    Returns an (e, 2) int64 array of index pairs with i < j, in
    lexicographic order.
    """
    f, w = masks.shape
    if f < 2:
        return np.zeros((0, 2), dtype=np.int64)
    # work in blocks of about _BLOCK array elements, to bound the buffers
    ii_parts, jj_parts = [], []
    chunk = max(1, _BLOCK // (f * w))
    for lo in range(0, f, chunk):
        hi = min(lo + chunk, f)
        common = np.bitwise_count(masks[lo:hi, None, :] & masks[None, lo:, :])
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
        c = masks[i[pair]] & masks[j[pair]]
        third = np.all((masks[t] & c) == c, axis=1) & (t != j[pair])
        keep[lo : lo + chunk] = np.bincount(pair[third], minlength=len(i)) == 0
    return np.column_stack([ii[keep], jj[keep]]).astype(np.int64)


if USE_NUMBA:

    @numba.njit(cache=True)
    def _popcount64(x):
        x = x - ((x >> 1) & np.uint64(0x5555555555555555))
        x = (x & np.uint64(0x3333333333333333)) + (
            (x >> 2) & np.uint64(0x3333333333333333)
        )
        x = (x + (x >> 4)) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return (x * np.uint64(0x0101010101010101)) >> 56

    @numba.njit(cache=True)
    def _adjacent_pairs_nb(masks, min_common):
        f, w = masks.shape
        cap = max(4 * f, 64)
        out = np.empty((cap, 2), dtype=np.int64)
        n_out = 0
        for i in range(f):
            for j in range(i + 1, f):
                npc = 0
                for k in range(w):
                    npc += int(_popcount64(masks[i, k] & masks[j, k]))
                if npc < min_common:
                    continue
                ndom = 0
                for t in range(f):
                    dom = True
                    for k in range(w):
                        c = masks[i, k] & masks[j, k]
                        if masks[t, k] & c != c:
                            dom = False
                            break
                    if dom:
                        ndom += 1
                        if ndom > 2:
                            break
                if ndom <= 2:
                    if n_out == cap:
                        bigger = np.empty((cap * 2, 2), dtype=np.int64)
                        bigger[:cap] = out
                        out = bigger
                        cap *= 2
                    out[n_out, 0] = i
                    out[n_out, 1] = j
                    n_out += 1
        return out[:n_out]

    def adjacent_pairs(masks: np.ndarray, min_common: int) -> np.ndarray:
        return _adjacent_pairs_nb(np.ascontiguousarray(masks), min_common)

else:
    adjacent_pairs = adjacent_pairs_numpy


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"
