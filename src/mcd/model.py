"""Configurations, cluster decomposition, and the bottleneck statistics.

Conventions used throughout the package:

* vertices are 0..n-1, colors are 1..q (q integer where colors are involved);
* edges are unordered pairs (i, j) with i < j, stored as a canonical
  (m, 2) integer array sorted lexicographically;
* cluster ids are canonical: every cluster is labeled by its smallest member
  vertex, and clusters are listed in ascending order of that id, the one
  order in which per-cluster randomness is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .indexing import lex_order, pair_indices_of


def integer_q(q, least: int, what: str) -> int:
    """q as an int, for the paths defined only at integer q >= least: 3.0
    is 3, and anything else, inf and nan included, raises ValueError."""
    if not (least <= q < math.inf and q == int(q)):
        raise ValueError(f"{what} needs integer q >= {least}, got {q!r}")
    return int(q)


def positive_n(n):
    """n if it is a positive integer (int or numpy int), else ValueError."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return n


@dataclass(frozen=True)
class ModelParams:
    """Parameters (n, q, lambda) with the derived edge probability and
    inverse temperature.

    p = lam/n and beta = -n*ln(1 - lam/n), so that lam/n = 1 - exp(-beta/n).
    """

    n: int
    q: float
    lam: float

    def __post_init__(self):
        positive_n(self.n)
        if not 1 <= self.q < math.inf:
            raise ValueError(f"q must be finite and >= 1, got {self.q!r}")
        if not (0.0 < self.lam < self.n):
            raise ValueError(f"lam must lie in (0, n), got {self.lam!r}")

    @property
    def p(self) -> float:
        return self.lam / self.n

    @property
    def beta(self) -> float:
        # -n*log1p(-p) is accurate for small p
        return -self.n * math.log1p(-self.p)

    @property
    def q_int(self) -> int:
        """Integer q, for operations defined only at integer cluster weight."""
        return integer_q(self.q, 1, "this operation")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SpinConfig:
    """A Potts coloring: colors[v] in {1..q}, with per-color counts."""

    colors: np.ndarray
    q: int
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        colors = np.ascontiguousarray(self.colors, dtype=np.int64)
        if colors.ndim != 1 or colors.size == 0:
            raise ValueError("colors must be a non-empty 1-d sequence")
        q = integer_q(self.q, 1, "a coloring")
        if colors.min() < 1 or colors.max() > q:
            raise ValueError("colors must take values in 1..q")
        counts = np.bincount(colors, minlength=q + 1)[1:]
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "colors", _readonly(colors))
        object.__setattr__(self, "counts", _readonly(counts))

    @property
    def n(self) -> int:
        return self.colors.size

    def sorted_counts(self) -> np.ndarray:
        """Color-class sizes in non-increasing order (v^1 >= v^2 >= ...)."""
        return np.sort(self.counts)[::-1]


@dataclass(frozen=True)
class EdgeConfig:
    """An FK/random-cluster configuration: a set of unordered vertex pairs.

    pairs is an (m, 2) int array with i < j on every row, lexicographically
    sorted and duplicate-free. Construction canonicalizes row order and
    endpoint order but rejects duplicates and self-loops.
    """

    n: int
    pairs: np.ndarray

    def __post_init__(self):
        positive_n(self.n)
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size:
            lo = pairs.min(axis=1)
            hi = pairs.max(axis=1)
            if (lo == hi).any():
                raise ValueError("self-loops are not allowed")
            if lo.min() < 0 or hi.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            order = lex_order(lo, hi, self.n)
            lo, hi = lo[order], hi[order]
            if (np.diff(pair_indices_of(lo, hi, self.n)) == 0).any():
                raise ValueError("duplicate edges are not allowed")
            pairs = np.column_stack([lo, hi])
        object.__setattr__(self, "pairs", _readonly(np.ascontiguousarray(pairs)))

    @property
    def edge_count(self) -> int:
        return self.pairs.shape[0]

    @classmethod
    def empty(cls, n: int) -> "EdgeConfig":
        return cls(n=n, pairs=np.empty((0, 2), dtype=np.int64))


def _edge_config_presorted(n: int, u: np.ndarray, v: np.ndarray) -> EdgeConfig:
    """Internal fast path: build an EdgeConfig from arrays already satisfying
    the canonical form (u < v, lexicographically sorted, no duplicates)."""
    cfg = object.__new__(EdgeConfig)
    pairs = np.column_stack([u, v]).astype(np.int64, copy=False)
    object.__setattr__(cfg, "n", n)
    object.__setattr__(cfg, "pairs", _readonly(np.ascontiguousarray(pairs)))
    return cfg


@dataclass(frozen=True)
class ClusterPartition:
    """Connected components of an EdgeConfig in canonical order, the draw
    order for per-cluster randomness (recoloring, activation).

    ids[c] is cluster c's smallest member (ascending in c), sizes[c] its
    size, cluster_of[v] the index c of v's cluster, and assignment[v] =
    ids[cluster_of[v]] the canonical id of v's cluster.
    """

    n: int
    ids: np.ndarray
    sizes: np.ndarray
    cluster_of: np.ndarray

    def __post_init__(self):
        for name in ("ids", "sizes", "cluster_of"):
            a = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, _readonly(a))

    @property
    def assignment(self) -> np.ndarray:
        return self.ids[self.cluster_of]

    @property
    def cluster_count(self) -> int:
        return self.ids.size

    @property
    def largest_size(self) -> int:
        return int(self.sizes.max())


def _adjacency(n: int, u: np.ndarray, v: np.ndarray) -> csr_matrix | None:
    """The CSR graph with an arc u[e] -> v[e] for each e, which must be
    grouped by u (canonical pairs are); None if there are no arcs. Its
    int32 indices need n and the arc count below 2**31."""
    if max(n, u.size) >= 2 ** 31:
        raise ValueError(f"need n and the arc count below 2**31, got n={n} "
                         f"with {u.size} arcs")
    if not u.size:
        return None
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
    return csr_matrix((np.ones(u.size), v.astype(np.int32), indptr),
                      shape=(n, n))


def _component_labels(n: int, u: np.ndarray,
                      v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The components of the graph on 0..n-1 with the edges (u[e], v[e]),
    grouped by u, as (labels, first): labels[x] numbers x's component in
    the canonical order, and first[x] says whether x is its smallest member.

    scipy numbers undirected components in order of first appearance along
    0..n-1, which is ascending smallest member; checked, not assumed. A
    component's smallest member is where the labels' running maximum steps
    up, and the order is canonical exactly when there are as many steps as
    components, each step then being 1.
    """
    g = _adjacency(n, u, v)
    if g is None:
        return np.arange(n), np.ones(n, dtype=bool)
    count, labels = connected_components(g, directed=False)
    run = np.maximum.accumulate(labels)
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(run[1:], run[:-1], out=first[1:])
    if np.count_nonzero(first) != count:
        raise AssertionError("components are not numbered by smallest member")
    return labels, first


def cluster_decompose(edges: EdgeConfig) -> ClusterPartition:
    """Connected components with canonical (smallest-member) cluster ids."""
    n, pairs = edges.n, edges.pairs
    labels, first = _component_labels(n, pairs[:, 0], pairs[:, 1])
    return ClusterPartition(n=n, ids=np.flatnonzero(first),
                            sizes=np.bincount(labels), cluster_of=labels)


def s_m_vertices(partition: ClusterPartition, m_threshold: int) -> int:
    """|S_M|: number of vertices in clusters of size strictly greater than M."""
    if m_threshold < 0:
        raise ValueError("M must be >= 0")
    sizes = partition.sizes
    return int(sizes[sizes > m_threshold].sum())


def balanced_counts(n: int, q: int) -> list[int]:
    """Class counts as equal as possible (first n mod q classes one larger)."""
    base, rem = divmod(n, q)
    return [base + 1] * rem + [base] * (q - rem)


def majority_counts(n: int, q: int, v1: int) -> list[int]:
    """Class 1 of size v1, the rest split as evenly as possible."""
    if not (0 <= v1 <= n):
        raise ValueError(f"majority size {v1} outside [0, {n}]")
    base, rem = divmod(n - v1, q - 1)
    return [v1] + [base + 1] * rem + [base] * (q - 1 - rem)


def is_balanced(counts, rho: float):
    """Whether every color class is within rho*n of n/q (strict), n the
    total, over the last axis of an array of count vectors."""
    counts = np.asarray(counts)
    n = counts.sum(axis=-1)
    target = n / counts.shape[-1]
    return np.max(np.abs(counts - target[..., None]), axis=-1) < rho * n


def is_ordered(counts, rho: float, a_lambda: float):
    """Ordered-phase membership over the last axis of an array of count
    vectors: sorted counts v1 >= v2 >= ... satisfy |v1 - a_lambda*n| <=
    rho*n and v2 <= (n - v1)/(q - 1) + rho*n."""
    counts = np.asarray(counts)
    q = counts.shape[-1]
    if q < 2:
        raise ValueError("ordered set needs q >= 2")
    v = np.sort(counts, axis=-1)
    v1, v2, n = v[..., -1], v[..., -2], counts.sum(axis=-1)
    return ((np.abs(v1 - a_lambda * n) <= rho * n)
            & (v2 <= (n - v1) / (q - 1) + rho * n))


def in_balanced_set(spin: SpinConfig, rho: float) -> bool:
    """is_balanced on the configuration's color counts."""
    return bool(is_balanced(spin.counts, rho))


def in_ordered_set(spin: SpinConfig, rho: float, a_lambda: float) -> bool:
    """is_ordered on the configuration's color counts."""
    return bool(is_ordered(spin.counts, rho, a_lambda))
