"""Codec between vertex pairs {i, j} and dense lexicographic indices.

Pairs of vertices 0..n-1 with i < j are numbered (0,1), (0,2), ...,
(0,n-1), (1,2), ... so that

    pair_index(i, j, n) = i*(n-1) - i*(i-1)/2 + (j - i - 1)

runs over 0 .. n*(n-1)/2 - 1. Everything that enumerates or samples edges
(exact transition kernels, G(n,p) draws, the heat-bath chain) goes through
this one numbering so indices mean the same thing everywhere.
"""

from __future__ import annotations

import numpy as np


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(i: int, j: int, n: int) -> int:
    """Lexicographic index of the pair (i, j), requires 0 <= i < j < n."""
    if not (0 <= i < j < n):
        raise ValueError(f"need 0 <= i < j < n, got ({i}, {j}) with n={n}")
    return i * (n - 1) - i * (i - 1) // 2 + (j - i - 1)


def row_offsets(n: int) -> np.ndarray:
    """offsets[i] = index of pair (i, i+1); sentinel num_pairs(n) at the end."""
    i = np.arange(n, dtype=np.int64)
    return i * (n - 1) - i * (i - 1) // 2


def pairs_from_indices(ks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized inverse of pair_index: index array -> (i, j) arrays."""
    ks = np.asarray(ks, dtype=np.int64)
    offsets = row_offsets(n)
    i = np.searchsorted(offsets, ks, side="right") - 1
    j = ks - offsets[i] + i + 1
    return i, j


def pair_indices_of(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Vectorized pair_index over arrays with u < v elementwise."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    # pair_index rearranged to u*(2n-3-u)/2 + v - 1, whose product is even
    return (u * (2 * n - 3 - u) >> 1) + v - 1


def lex_order(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The permutation that puts the distinct pairs (u, v), u < v, in
    lexicographic order.

    A stable sort of the pair indices, which numpy runs as timsort: pair
    lists made of k runs that are each in order already (one per color
    class, say) are merged in O(N log k). Distinct pairs have distinct
    indices, so no tie is left to the sort.
    """
    if n >= 2 ** 31:  # beyond about 3.04e9 the int64 pair indices wrap
        raise ValueError(f"need n below 2**31 to order pairs, got n={n}")
    return np.argsort(pair_indices_of(u, v, n), kind="stable")


def all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All pairs in index order; equals pairs_from_indices(arange, n)."""
    i, j = np.triu_indices(n, k=1)
    return i.astype(np.int64), j.astype(np.int64)
