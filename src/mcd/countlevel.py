"""Exact count-level laws of mean-field Swendsen-Wang at finite n.

Swendsen-Wang commutes with vertex permutations, so the vector of color
class sizes is itself a Markov chain: the chain lumps to counts
(Levin-Peres-Wilmer, *Markov Chains and Mixing Times*, sec. 2.3.1;
Galanis-Stefankovic-Vigoda, *Swendsen-Wang algorithm on the mean-field
Potts model*). Everything here follows from that structure, with no
sampling:

* conn_p(s) = P(G(s, p) is connected), from the tree inversion enumerator
  J_k (Mallows-Riordan): conn_p(s) = p^(s-1) (1-p)^(C(s,2)-s+1)
  J_{s-1}(1/(1-p)), with J_{k+1}(y) = sum_i C(k,i) [i+1]_y J_i(y) J_{k-i}(y)
  and [j]_y = 1 + y + ... + y^(j-1). Every term is positive, so float64 in
  log space carries it without the cancellation of 1 - P(disconnected);
* the law g_m(s) = C(m-1, s-1) conn_p(s) (1-p)^(s(m-s)) of the component
  of the lowest vertex of G(m, p); peeling it off gives Z_r(w) = E[w^k]
  over the number k of components of G(r, p): Z_r = w sum_s g_r(s) Z_{r-s};
* the color counts k of a class of m vertices after one step, in product
  form by the Edwards-Sokal coupling: multinomial(m; k) (1-p)^(sum_{i<j}
  k_i k_j) prod_i Z_{k_i}(1/q), as no edge joins two color sets and each
  set's components all take its color; class_color_laws(sizes, p, q)
  maps each class size m to that law;
* the one-step law of the count vector (a convolution over the classes),
  the exit probability of the balanced set, and the escape-time law of the
  absorbing chain inside it;
* the stationary count law pi(c) ~ multinomial(n; c) (1-p)^(-sum C(c_i,2));
* log_largest_cdf(sizes, p, kmax), the log CDF of the largest component
  of a disjoint union of G(m_i, p), and E[L1].

The edge probability is p = lam/n throughout, n being the total number of
vertices, as in ModelParams. A law over count vectors with total N is a
(q-1)-dimensional array of shape (N+1,)*(q-1) indexed by the first q-1
counts; the last count is N minus their sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.special import gammaln, logsumexp

from .model import balanced_counts, integer_q, is_balanced, majority_counts

_STATES_MAX = 4 * 10 ** 6
_TAIL_TOL = 1e-12  # truncation bound on E[L1]


def _log_y(p: float) -> float:
    """log(1/(1-p)) for an edge probability strictly inside (0, 1)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    return -math.log1p(-p)


def _log_factorials(m: int) -> np.ndarray:
    return gammaln(np.arange(m + 1) + 1.0)


# ---------------------------------------------------------------------------
# G(m, p): connectivity and the component law

def log_connectivity(smax: int, p: float) -> np.ndarray:
    """log conn_p(s) for s = 0..smax, conn_p(s) = P(G(s, p) is connected);
    conn_p(0) = conn_p(1) = 1."""
    big_l = _log_y(p)
    j = np.arange(1, smax + 1) * big_l
    # log [j]_y = log expm1(j L) - log expm1(L), log expm1(x) = x + log(-expm1(-x))
    log_qint = j + np.log(-np.expm1(-j)) - (big_l + math.log(-math.expm1(-big_l)))
    lf = _log_factorials(smax)
    log_j = np.zeros(max(smax, 1))
    for k in range(smax - 1):
        i = np.arange(k + 1)
        log_j[k + 1] = logsumexp(lf[k] - lf[i] - lf[k - i] + log_qint[i]
                                 + log_j[i] + log_j[k - i])
    s = np.arange(1, smax + 1, dtype=np.float64)
    return np.append(0.0, (s - 1) * math.log(p) - big_l * ((s - 1) * (s - 2) / 2)
                     + log_j[:smax])


def log_component_law(m: int, p: float,
                      log_conn: np.ndarray | None = None) -> np.ndarray:
    """log g_m(s) = log P(|C(v)| = s) for s = 0..m (g_m(0) = 0), v the lowest
    vertex of G(m, p); log_conn, if given, is log_connectivity(smax, p) for
    some smax >= m."""
    if log_conn is None:
        log_conn = log_connectivity(m, p)
    lf = _log_factorials(m)
    s = np.arange(1, m + 1)
    return np.append(-np.inf, lf[m - 1] - lf[s - 1] - lf[m - s]
                     + log_conn[1:m + 1] - _log_y(p) * s * (m - s))


def log_cluster_weight(mmax: int, p: float, w: float) -> np.ndarray:
    """log Z_r(w) = log E[w^k] for r = 0..mmax, k the number of components
    of G(r, p), w > 0: peel off the lowest vertex's component, Z_r(w) =
    w sum_s g_r(s) Z_{r-s}(w), Z_0 = 1, positive terms summed in log space."""
    log_conn, log_z = log_connectivity(mmax, p), np.zeros(mmax + 1)
    for r in range(1, mmax + 1):
        log_z[r] = math.log(w) + logsumexp(
            log_component_law(r, p, log_conn)[1:] + log_z[r - 1::-1])
    return log_z


# ---------------------------------------------------------------------------
# largest component of a disjoint union of G(m_i, p)

def log_largest_cdf(sizes, p: float, kmax: int) -> np.ndarray:
    """log P(L1 <= k), k = 0..kmax, for the disjoint union of G(m, p) over
    m in sizes.

    a_k(r) = P(every component of G(r, p) has at most k vertices) obeys
    a_k(r) = sum_j [r! / (k!^j j! (r-jk)!)] conn_p(k)^j
             (1-p)^(C(j,2) k^2 + jk(r-jk)) a_{k-1}(r - jk),
    j counting the components of exactly k vertices; every term is
    positive and is summed in log space.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    big_r = int(sizes.max())
    big_l = _log_y(p)
    log_conn = log_connectivity(min(kmax, big_r), p)
    lf = _log_factorials(big_r)
    log_a = np.full(big_r + 1, -np.inf)
    log_a[0] = 0.0
    out = np.zeros(kmax + 1)
    out[0] = log_a[sizes].sum()
    for k in range(1, min(kmax, big_r) + 1):
        new = log_a.copy()
        for j in range(1, big_r // k + 1):
            rest = np.arange(big_r - j * k + 1)
            term = (lf[rest + j * k] - lf[rest] - j * lf[k] - lf[j]
                    + j * log_conn[k]
                    - big_l * (j * (j - 1) / 2 * k * k + j * k * rest)
                    + log_a[rest])
            new[j * k:] = np.logaddexp(new[j * k:], term)
        log_a = new
        out[k] = log_a[sizes].sum()
    if kmax > big_r:  # no component is larger than the largest class
        out[big_r + 1:] = out[big_r]
    return out


def expected_largest(sizes, p: float) -> tuple[float, float]:
    """(E[L1], bound) for the disjoint union of G(m, p) over m in sizes.

    The sum E[L1] = sum_k P(L1 > k) stops at the first K whose exact tail
    bound E[(L1 - K)^+] <= sum_{s>K} (s-K) E[N_s] is below 1e-12; the
    returned value is low by at most the returned bound.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    log_conn = log_connectivity(int(sizes.max()), p)
    s = np.arange(sizes.max() + 1)
    counts = np.zeros(len(s))  # E[N_s], N_s the number of components of s vertices
    for m in sizes:  # in G(m, p), C(m, s) conn_p(s) (1-p)^(s(m-s)) = (m/s) g_m(s)
        counts[1:m + 1] += m / s[1:m + 1] * np.exp(log_component_law(m, p, log_conn)[1:])
    tail = np.cumsum(counts[::-1])[::-1]               # sum_{s' >= s} E[N_s']
    bound = np.append(np.cumsum(tail[:0:-1])[::-1], 0.0)  # sum_{j > K} tail[j]
    kmax = int(np.argmax(bound < _TAIL_TOL))
    log_cdf = log_largest_cdf(sizes, p, kmax)
    return float(np.sum(-np.expm1(log_cdf[:kmax]))), float(bound[kmax])


def sw_drift_mean(n: int, lam: float, q: int, z: float) -> float:
    """Exact mean of the sw_drift_map observable at finite n.

    Given the percolation clusters, the class that receives the largest
    cluster has mean fraction 1/q + (1 - 1/q) L1/n, so the cell mean is
    1/q + (1 - 1/q) E[L1]/n with L1 the largest component of the union of
    G(c_i, lam/n) over the start's class sizes c_i.
    """
    sizes = majority_counts(n, q, round(z * n))
    mean_l1, _ = expected_largest(sizes, lam / n)
    return 1.0 / q + (1.0 - 1.0 / q) * mean_l1 / n


# ---------------------------------------------------------------------------
# the count-vector chain

def _grid_shape(total: int, q: int) -> tuple[int, ...]:
    """The layout (total+1,)*(q-1) of a law over count vectors with the
    given total, refused above _STATES_MAX cells before any is allocated."""
    if (total + 1) ** (q - 1) > _STATES_MAX:
        raise ValueError(f"count grid {(total + 1) ** (q - 1)} exceeds {_STATES_MAX}")
    return (total + 1,) * (q - 1)


def count_grid(total: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Full count vectors for the (q-1)-dimensional layout with the given
    total: (counts of shape (total+1,)*(q-1) + (q,), mask of valid ones)."""
    shape = _grid_shape(total, integer_q(q, 2, "count_grid"))
    head = np.stack(np.indices(shape), axis=-1)
    last = total - head.sum(axis=-1, keepdims=True)
    return np.concatenate([head, last], axis=-1), last[..., 0] >= 0


def class_color_laws(sizes, p: float, q: int) -> dict[int, np.ndarray]:
    """{m: the color-count law of a class of m vertices after one SW step}
    for m in sizes: the product form above, in the layout with total m and
    normalised by the identity; sum_{i<j} k_i k_j = (m^2 - sum_i k_i^2)/2
    is exact in ints."""
    q = integer_q(q, 2, "class_color_laws")
    lf = _log_factorials(max(sizes))
    b = log_cluster_weight(max(sizes), p, 1.0 / q) - lf  # log Z_k(1/q) - log k!
    laws = {}
    for m in sizes:
        k = np.arange(m + 1)
        last = m - reduce(np.add.outer, [k] * (q - 1))  # < 0 off the simplex
        cross = (m * m - reduce(np.add.outer, [k * k] * (q - 1)) - last * last) // 2
        log_law = (lf[m] + reduce(np.add.outer, [b[:m + 1]] * (q - 1))
                   + b.take(last, mode="clip") - _log_y(p) * cross)
        laws[m] = np.exp(np.where(last >= 0, log_law, -np.inf))
    return laws


def one_step_law(counts, lam: float, q: int,
                 laws: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Exact law of the next count vector of SW from the given counts.

    The classes percolate and recolor independently: the law is the FFT
    convolution of their class_color_laws on the full grid (no wrap-around),
    with absolute rounding errors of order 1e-16; sub-rounding negatives
    are set to 0. laws, if given, is class_color_laws(sizes, lam/n, q) for
    sizes holding every count; if not, only the sizes in counts are built.
    The size of the (N+1)^(q-1) grid is checked before any law is built.
    """
    q = integer_q(q, 2, "one_step_law")
    counts = [int(c) for c in counts]
    if len(counts) != q:
        raise ValueError(f"need {q} counts, got {len(counts)}")
    shape, axes = _grid_shape(sum(counts), q), list(range(q - 1))
    if laws is None:
        laws = class_color_laws(set(counts), lam / sum(counts), q)
    spectrum = np.fft.rfftn(laws[counts[0]], shape, axes)
    for c in counts[1:]:  # in class order, one spectrum at a time
        spectrum *= np.fft.rfftn(laws[c], shape, axes)
    return np.maximum(np.fft.irfftn(spectrum, shape, axes), 0.0)


def exit_probability(counts, lam: float, q: int, rho: float) -> float:
    """P(one SW step from the given counts leaves the balanced set).

    A count vector is balanced when every count passes is_balanced's test
    on its own, so the set is built from one 1-D test per axis and one on
    the last count, with no grid of count vectors."""
    q = integer_q(q, 2, "exit_probability")
    row = one_step_law(counts, lam, q)
    total = sum(counts)
    k = np.arange(total + 1)
    ok = np.abs(k - total / q) < rho * total
    last = total - reduce(np.add.outer, [k] * (q - 1))
    inside = (reduce(np.logical_and.outer, [ok] * (q - 1))
              & ok.take(last, mode="clip"))
    return float(row[(last >= 0) & ~inside].sum())


@dataclass(frozen=True)
class EscapeLaw:
    """Law of the first exit time T >= 1 from the balanced set."""

    survival: np.ndarray  # P(T > t) for t = 0..tmax
    mean: float

    @property
    def median(self) -> int:
        """The smallest t with P(T <= t) >= 1/2 (needs survival <= 1/2
        within tmax)."""
        hit = np.flatnonzero(self.survival <= 0.5)
        if not hit.size:
            raise ValueError("median beyond tmax")
        return int(hit[0])


def escape_time_law(n: int, lam: float, q: int, rho: float,
                    tmax: int) -> EscapeLaw:
    """Escape-time law of SW from the balanced start (balanced_counts).

    The count vectors inside the balanced set form an absorbing chain; its
    substochastic matrix Q has one_step_law rows restricted to the set, so
    P(T > t) = e_start Q^t 1 and E[T] = e_start (I - Q)^-1 1.
    """
    grid, valid = count_grid(n, q)
    inside = valid & is_balanced(grid, rho)
    states = grid[inside]
    laws = class_color_laws(np.unique(states).tolist(), lam / n, q)
    mat = np.array([one_step_law(c, lam, q, laws)[inside] for c in states])
    start = balanced_counts(n, int(q))  # q checked by count_grid
    hits = np.flatnonzero((states == start).all(axis=1))
    if not hits.size:
        raise ValueError("the balanced start lies outside the balanced set")
    dist = np.zeros(len(states))
    dist[hits[0]] = 1.0
    survival = np.empty(tmax + 1)
    for t in range(tmax + 1):
        survival[t] = dist.sum()
        dist = dist @ mat
    mean = float(np.linalg.solve(np.eye(len(states)) - mat,
                                 np.ones(len(states)))[hits[0]])
    return EscapeLaw(survival=survival, mean=mean)


# ---------------------------------------------------------------------------
# the stationary count law

def stationary_count_law(n: int, q: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(counts, probs): every count vector with total n, shape (K, q), and
    its stationary probability multinomial(n; c) (1-p)^(-sum C(c_i, 2)),
    p = lam/n."""
    grid, valid = count_grid(n, q)
    counts = grid[valid]
    logw = (-gammaln(counts + 1.0).sum(axis=1)
            + _log_y(lam / n) * (counts * (counts - 1) / 2).sum(axis=1))
    return counts, np.exp(logw - logsumexp(logw))


def majority_law(n: int, q: int, lam: float) -> np.ndarray:
    """P(max_i c_i = k) for k = 0..n under the stationary count law."""
    counts, probs = stationary_count_law(n, q, lam)
    return np.bincount(counts.max(axis=1), weights=probs, minlength=n + 1)
