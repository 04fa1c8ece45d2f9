"""Codec between vertex pairs {i, j} and dense lexicographic indices.

Pairs of vertices 0..n-1 with i < j are numbered (0,1), (0,2), ...,
(0,n-1), (1,2), ... so that

    pair_index(i, j, n) = i*(n-1) - i*(i-1)/2 + (j - i - 1)

runs over 0 .. n*(n-1)/2 - 1. Everything that enumerates or samples edges
(exact transition kernels, G(n,p) draws, the heat-bath chain) goes through
this one numbering so indices mean the same thing everywhere.

Row i starts at o(i) = i*(2n-1-i)/2, so index k lies in row i = floor(r),
r = ((2n-1) - sqrt((2n-1)**2 - 8k)) / 2 the smaller root of o(x) = k, and
j = k - o(i) + i + 1. pairs_from_indices takes the discriminant in exact
integers and the root in floating point, then settles the one row that
rounding leaves in doubt by comparing o(i) with k exactly. pair_from_index
does the same for one index in Python integers, with math.isqrt for the
root and no numpy call.
"""

from __future__ import annotations

import math

import numpy as np


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(i: int, j: int, n: int) -> int:
    """Lexicographic index of the pair (i, j), requires 0 <= i < j < n."""
    if not (0 <= i < j < n):
        raise ValueError(f"need 0 <= i < j < n, got ({i}, {j}) with n={n}")
    return i * (n - 1) - i * (i - 1) // 2 + (j - i - 1)


def pair_from_index(k: int, n: int) -> tuple[int, int]:
    """Inverse of pair_index for one index, in exact integers; raises the
    ValueErrors of pairs_from_indices."""
    if not 0 <= n < 2 ** 31:
        raise ValueError(f"need 0 <= n < 2**31, got n={n}")
    if not 0 <= k < n * (n - 1) // 2:
        raise ValueError(f"pair index outside [0, n*(n-1)/2): {k} with n={n}")
    a = 2 * n - 1
    # isqrt errs by under 1, so this is row i or row i + 1
    i = (a - math.isqrt(a * a - 8 * k)) // 2
    i -= i * (a - i) // 2 > k
    return i, k - i * (a - i) // 2 + i + 1


def pairs_from_indices(ks, n) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized inverse of pair_index: index array -> (i, j) arrays.

    n is one vertex count, or one per index. Raises ValueError for n
    outside [0, 2**31), beyond which (2n-1)**2 overflows uint64, and for
    an index outside [0, n*(n-1)/2).
    """
    ks = np.asarray(ks, dtype=np.int64)
    scalar = np.ndim(n) == 0
    if scalar:  # a Python int is faster than a numpy scalar
        n = lo = hi = int(n)
    else:
        n = np.asarray(n, dtype=np.int64)
        lo, hi = (int(n.min()), int(n.max())) if n.size else (0, 0)
    if lo < 0 or hi >= 2 ** 31:
        raise ValueError(f"need 0 <= n < 2**31, got n from {lo} to {hi}")
    if not ks.size:
        return ks.copy(), ks.copy()

    def outside():
        return ValueError(f"pair index outside [0, n*(n-1)/2): indices from "
                          f"{ks.min()} to {ks.max()}, n from {lo} to {hi}")

    # exact for one n; with one n per index it keeps 8k below 2**64
    if ks.min() < 0 or ks.max() >= num_pairs(hi):
        raise outside()
    # the work is in place in the two outputs: every fresh array of this
    # size costs more in page faults than a pass over a warm one
    a = 2 * n - 1
    i, j = np.empty_like(ks), np.empty_like(ks)
    disc = i.view(np.uint64)  # a*a - 8k, in unsigned arithmetic
    if scalar:
        disc.fill(a * a)
    else:
        np.square(a.view(np.uint64), out=disc)
    disc -= np.left_shift(ks.view(np.uint64), 3, out=j.view(np.uint64))
    # 1 <= disc < 2**64, so the float root errs by under 1e-6; adding
    # 2**-10 puts its floor on row i or i + 1, and one exact comparison
    # with the row offset o(i) = i*(a-i)/2 settles which
    root = np.sqrt(disc, out=j.view(np.float64))
    np.subtract(a, root, out=root)
    root += 2.0 ** -9
    root *= 0.5
    np.copyto(i, root, casting="unsafe")  # truncation, which is floor here
    o = np.subtract(a, i, out=j)
    o *= i
    o >>= 1
    i -= o > ks
    np.subtract(a, i, out=o)
    o *= i
    o >>= 1
    np.subtract(ks, o, out=j)
    j += i
    j += 1
    # an index at or past its n's last pair decodes to j >= n
    if not scalar and (j >= n).any():
        raise outside()
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
