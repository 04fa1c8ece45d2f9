"""Exact small-system ground truth: measures, kernels, spectra, couplings.

State indexing contract (bit-exact, used by fixtures and tests):

* An edge configuration on n vertices is a C(n,2)-bit integer; bit k set
  means the k-th pair in the lexicographic order of indexing.py is open.
* A spin configuration is a base-q integer with little-endian digits,
  digit v = color_v - 1 (vertex 0 is the least significant digit).

Everything exact in this module enumerates full state spaces, so the
guards are hard limits, not suggestions: random-cluster enumeration stops
at n = 7, the Potts side at q^n = 10^6, and the kernels at the bounds
documented on build_kernel. Unnormalized weights are handled in log space
against the max log, with compensated summation for the normalizer.

Class-map contract: a KernelTable holds its kernel as a class map
`classes` (state -> class) and a class kernel K, with
P(x, y) = K[classes[x], classes[y]], and the stationary measure is constant
on each class (checked on construction). An SW entry depends on the two
colorings only through their monochromatic pair masks, so the sw classes
are those masks (187 of them for the 4096 states at n = 6, q = 4); cm and
glauber use one class per state, with K = P. Stationarity, detailed
balance, the spectral gap and the mixing time are computed on K and the
class sizes; `KernelTable.P` expands the per-state view for cuts, dumps
and sampling checks.

The cluster-coloring checks loop over the class colorings of the
vertices: given one, the conditional law is a tensor with one axis per
class, over the edge sets inside that class, so the class marginals are
its axis sums and the independence test compares it with their product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .indexing import all_pairs, num_pairs, pair_indices_of
from .model import EdgeConfig, _edge_config_presorted
from .report import atomic_write_text

_FK_N_MAX = 7
_POTTS_STATES_MAX = 10 ** 6


# ---------------------------------------------------------------------------
# partition table over all edge masks

_partition_tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def mask_partition_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every C(n,2)-bit edge mask: per-vertex component labels
    (smallest member), component count, and edge count.

    Built by doubling: the masks whose highest bit is b are the masks below
    2^b with pair b added, so each block is one merge of pair b's two
    labels over the block before it.
    """
    if n in _partition_tables:
        return _partition_tables[n]
    if n > _FK_N_MAX:
        raise ValueError(f"partition table limited to n <= {_FK_N_MAX}, got {n}")
    c = num_pairs(n)
    pu, pv = all_pairs(n)
    size = 1 << c
    labels = np.empty((size, n), dtype=np.int8)
    kcnt = np.empty(size, dtype=np.int8)
    ecnt = np.empty(size, dtype=np.int8)
    labels[0] = np.arange(n, dtype=np.int8)
    kcnt[0] = n
    ecnt[0] = 0
    for b in range(c):
        lo, hi = 1 << b, 2 << b
        rows = labels[:lo]
        la, lb = rows[:, pu[b]], rows[:, pv[b]]
        keep, drop = np.minimum(la, lb)[:, None], np.maximum(la, lb)[:, None]
        labels[lo:hi] = np.where(rows == drop, keep, rows)
        kcnt[lo:hi] = kcnt[:lo] - (la != lb)
        ecnt[lo:hi] = ecnt[:lo] + 1
    labels.flags.writeable = False
    kcnt.flags.writeable = False
    ecnt.flags.writeable = False
    _partition_tables[n] = (labels, kcnt, ecnt)
    return _partition_tables[n]


# ---------------------------------------------------------------------------
# state codecs

def spin_code(colors: np.ndarray, q: int) -> int:
    """Base-q code of a coloring (values 1..q), vertex 0 least significant."""
    code = 0
    for v in range(len(colors) - 1, -1, -1):
        code = code * q + int(colors[v]) - 1
    return code


def spin_from_code(code: int, n: int, q: int) -> np.ndarray:
    colors = np.empty(n, dtype=np.int64)
    for v in range(n):
        colors[v] = code % q + 1
        code //= q
    return colors


def edge_mask(edges: EdgeConfig) -> int:
    if edges.pairs.shape[0] == 0:
        return 0
    ks = pair_indices_of(edges.pairs[:, 0], edges.pairs[:, 1], edges.n)
    return int(np.bitwise_or.reduce(np.int64(1) << ks))


def edges_from_mask(mask: int, n: int) -> EdgeConfig:
    ks = np.array([b for b in range(num_pairs(n)) if (mask >> b) & 1],
                  dtype=np.int64)
    pu, pv = all_pairs(n)
    return _edge_config_presorted(n, pu[ks], pv[ks])


def _digit_matrix(count: int, base: int, width: int) -> np.ndarray:
    """Rows are the little-endian base-`base` digits of 0..count-1."""
    codes = np.arange(count, dtype=np.int64)
    powers = base ** np.arange(width, dtype=np.int64)
    return (codes[:, None] // powers[None, :]) % base


# ---------------------------------------------------------------------------
# exact measures

@dataclass(frozen=True)
class MeasureTable:
    """Fully enumerated probability vector over the indexed state space."""

    kind: str  # "fk" or "potts"
    n: int
    q: float
    lam: float
    probs: np.ndarray
    log_norm: float

    @property
    def size(self) -> int:
        return self.probs.shape[0]


def _normalize_log_weights(logw: np.ndarray) -> tuple[np.ndarray, float]:
    m = float(logw.max())
    w = np.exp(logw - m)
    z = math.fsum(w.tolist())
    return w / z, m + math.log(z)


def enumerate_fk_measure(n: int, lam: float, q: float) -> MeasureTable:
    """The random-cluster measure on all 2^C(n,2) edge configurations:
    weight p^|E| (1-p)^(C-|E|) q^k(G) with p = lam/n.

    Any real q > 0 is accepted (the coloring checks condition on vertex
    subsets whose effective weight can be fractional). n = 0 and n = 1
    are single-state spaces.
    """
    if not (0 <= n <= _FK_N_MAX):
        raise ValueError(f"exact enumeration limited to 0 <= n <= {_FK_N_MAX}, got {n}")
    if n == 0:
        return MeasureTable("fk", 0, q, lam, np.array([1.0]), 0.0)
    if q <= 0:
        raise ValueError(f"cluster weight must be positive, got {q!r}")
    if not (0.0 <= lam < n):
        raise ValueError(f"need 0 <= lam < n for p = lam/n in [0,1), got lam={lam!r}")
    p = lam / n
    _, kcnt, ecnt = mask_partition_table(n)
    c = num_pairs(n)
    if p == 0.0:
        probs = np.zeros(1 << c)
        probs[0] = 1.0
        return MeasureTable("fk", n, q, lam, probs, n * math.log(q))
    logw = (ecnt * math.log(p) + (c - ecnt) * math.log1p(-p)
            + kcnt * math.log(q)).astype(np.float64)
    probs, log_norm = _normalize_log_weights(logw)
    probs.flags.writeable = False
    return MeasureTable("fk", n, q, lam, probs, log_norm)


def enumerate_potts_measure(n: int, q: int, lam: float) -> MeasureTable:
    """The mean-field Potts measure over all q^n colorings: weight
    exp((beta/n) * #{monochromatic pairs}) with beta = -n*log(1 - lam/n)."""
    if int(q) != q or q < 1:
        raise ValueError(f"Potts needs integer q >= 1, got {q!r}")
    q = int(q)
    if q ** n > _POTTS_STATES_MAX:
        raise ValueError(f"q^n = {q ** n} exceeds {_POTTS_STATES_MAX}")
    if not (0.0 <= lam < n):
        raise ValueError(f"need 0 <= lam < n, got lam={lam!r}")
    beta = -n * math.log1p(-lam / n)
    digits = _digit_matrix(q ** n, q, n)
    h = np.zeros(q ** n, dtype=np.int64)
    for color in range(q):
        cnt = (digits == color).sum(axis=1)
        h += cnt * (cnt - 1) // 2
    probs, log_norm = _normalize_log_weights((beta / n) * h)
    probs.flags.writeable = False
    return MeasureTable("potts", n, q, lam, probs, log_norm)


# ---------------------------------------------------------------------------
# exact kernels

@dataclass(frozen=True)
class KernelTable:
    """Exact transition kernel in class form (see the module docstring):
    P(x, y) = K[classes[x], classes[y]] with K in CSR, plus the stationary
    reference measure, indexed per the module codec."""

    kind: str
    n: int
    q: float
    lam: float
    classes: np.ndarray
    K: sp.csr_matrix
    measure: MeasureTable

    def __post_init__(self):
        sizes = self.class_sizes
        if (self.classes.shape != self.measure.probs.shape
                or self.K.shape != (sizes.size, sizes.size) or not sizes.all()):
            raise ValueError("classes must map the states onto every row of K")
        if not np.array_equal(self.class_probs[self.classes], self.measure.probs):
            raise ValueError("the stationary measure is not constant on each class")

    @property
    def size(self) -> int:
        return self.classes.size

    @functools.cached_property
    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.classes)

    @functools.cached_property
    def class_probs(self) -> np.ndarray:
        """The stationary probability of one state of each class."""
        pi = np.zeros(self.class_sizes.size)
        pi[self.classes] = self.measure.probs
        return pi

    @functools.cached_property
    def balance_violation(self) -> float:
        """max over classes of |pi_a K_ab - pi_b K_ba|; only the scalar is kept."""
        f = self.K.copy()
        f.data *= np.repeat(self.class_probs, np.diff(f.indptr))
        return float(abs(f - f.T).max())

    @functools.cached_property
    def P(self) -> sp.csr_matrix:
        """The per-state kernel in canonical CSR (rows sum to 1)."""
        P = self.K.tocsc()[:, self.classes].tocsr()[self.classes]
        P.sort_indices()
        return P


def _bernoulli_submasks(positions: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """All submasks over the bit positions in the last axis of `positions`
    (distinct within a row), with their Bernoulli(p) product weights: masks
    of shape positions.shape[:-1] + (2^t,), and the 2^t weights."""
    t = positions.shape[-1]
    bits = ((np.arange(1 << t, dtype=np.int64)[:, None]
             >> np.arange(t, dtype=np.int64)) & 1)
    masks = (np.int64(1) << positions) @ bits.T
    e = bits.sum(axis=1)
    return masks, p ** e * (1.0 - p) ** (t - e)


def _mono_masks(n: int, q: int) -> np.ndarray:
    """Per coloring, in codec order, the mask of its monochromatic pairs."""
    digits = _digit_matrix(q ** n, q, n)
    pu, pv = all_pairs(n)
    return (digits[:, pu] == digits[:, pv]) @ (
        np.int64(1) << np.arange(num_pairs(n), dtype=np.int64))


def _percolation_factor(mono: np.ndarray, n: int, p: float) -> sp.csr_matrix:
    """Edwards-Sokal percolation push: row i is the law of the open pair
    set when each pair of the mask mono[i] is kept independently with
    probability p (over _mono_masks: row sigma is P(omega | sigma))."""
    bits = (mono[:, None] >> np.arange(num_pairs(n), dtype=np.int64)) & 1
    t = bits.sum(axis=1)
    rows, cols, vals = [], [], []
    for k in np.unique(t).tolist():
        sel = np.flatnonzero(t == k)
        pos = np.nonzero(bits[sel])[1].reshape(sel.size, k)
        masks, w = _bernoulli_submasks(pos, p)
        rows.append(np.repeat(sel, w.size))
        cols.append(masks.ravel())
        vals.append(np.tile(w, sel.size))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mono.size, 1 << num_pairs(n)))


def _recolor_factor(n: int, q: int) -> sp.csr_matrix:
    """Edwards-Sokal recolor push: row omega is uniform over the q^k(omega)
    colorings that are constant on each cluster of omega."""
    labels, kcnt, _ = mask_partition_table(n)
    # cluster index 0..k-1 of each vertex, clusters in order of least member
    roots = labels == np.arange(n)
    cluster = np.take_along_axis(np.cumsum(roots, axis=1) - 1,
                                 labels.astype(np.intp), axis=1)
    qpow = q ** np.arange(n, dtype=np.int64)
    rows, cols, vals = [], [], []
    for k in range(1, n + 1):
        sel = np.flatnonzero(kcnt == k)
        targets = _digit_matrix(q ** k, q, k)[:, cluster[sel]] @ qpow
        rows.append(np.repeat(sel, q ** k))
        cols.append(targets.T.ravel())
        vals.append(np.full(targets.size, 1.0 / q ** k))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(1 << num_pairs(n), q ** n))


def _sw_kernel(n: int, q: int, lam: float) -> KernelTable:
    if int(q) != q or q < 2:
        raise ValueError(f"sw kernel needs integer q >= 2, got {q!r}")
    q = int(q)
    if q ** n > 10 ** 4:
        raise ValueError(f"sw kernel limited to q^n <= 10^4, got {q ** n}")
    if num_pairs(n) > 15:
        raise ValueError(f"sw kernel limited to C(n,2) <= 15, got {num_pairs(n)}")
    # an entry depends on the two colorings only through their
    # monochromatic pair masks, so the factor product is taken once per pair
    # of distinct masks, with one representative coloring per target mask.
    # An entry sums up to 2^C terms; extended precision keeps it within
    # rounding of the exact value (float64 accumulation drifts by ~5e-14 at
    # n = 6)
    masks, reps, classes = np.unique(_mono_masks(n, q), return_index=True,
                                     return_inverse=True)
    K = (_percolation_factor(masks, n, lam / n).astype(np.longdouble)
         @ _recolor_factor(n, q)[:, reps].astype(np.longdouble)).astype(np.float64)
    return KernelTable("sw", n, float(q), lam, classes, K,
                       enumerate_potts_measure(n, q, lam))


_SCATTER_ENTRIES = 1 << 18


def _cm_kernel(n: int, q: float, lam: float) -> KernelTable:
    if n > 5:
        raise ValueError(f"cm kernel limited to n <= 5, got {n}")
    if q < 1:
        raise ValueError(f"cm kernel needs q >= 1, got {q!r}")
    p = lam / n
    c = num_pairs(n)
    size = 1 << c
    pu, pv = all_pairs(n)
    labels, kcnt, _ = mask_partition_table(n)
    states = np.arange(size, dtype=np.int64)
    roots = (labels == np.arange(n)).astype(np.int64)
    pair_bits = np.int64(1) << np.arange(c, dtype=np.int64)
    # a step activates each cluster with probability 1/q, keeps the open
    # pairs outside the active vertex set V and resamples the pairs inside
    # it; V is reachable from a state iff no open pair leaves it
    P = np.zeros((size, size))
    for vs in range(1 << n):
        in_v = (vs >> np.arange(n)) & 1
        inside = in_v[pu] & in_v[pv]
        cut = (in_v[pu] ^ in_v[pv]) @ pair_bits
        sel = states[(states & cut) == 0]
        a = roots[sel] @ in_v
        w_act = (1.0 / q) ** a * (1.0 - 1.0 / q) ** (kcnt[sel] - a)
        masks, w_sub = _bernoulli_submasks(np.flatnonzero(inside), p)
        kept = sel & ~(inside @ pair_bits)
        # one V sends a row to distinct targets, so each chunk's += is a
        # plain scatter; chunks bound the temporaries to _SCATTER_ENTRIES
        step = max(1, _SCATTER_ENTRIES // masks.size)
        for lo in range(0, sel.size, step):
            rows = slice(lo, lo + step)
            P[sel[rows, None], kept[rows, None] | masks] += w_act[rows, None] * w_sub
    return KernelTable("cm", n, q, lam, states, sp.csr_matrix(P),
                       enumerate_fk_measure(n, lam, q))


def _glauber_kernel(n: int, q: float, lam: float) -> KernelTable:
    if n > 6:
        raise ValueError(f"glauber kernel limited to n <= 6, got {n}")
    if q <= 0:
        raise ValueError(f"glauber kernel needs q > 0, got {q!r}")
    p = lam / n
    c = num_pairs(n)
    size = 1 << c
    pu, pv = all_pairs(n)
    labels_tbl, _, _ = mask_partition_table(n)
    states = np.arange(size, dtype=np.int64)
    if c == 0:  # one vertex, no pair to update: the chain stays put
        return KernelTable("glauber", n, q, lam, states,
                           sp.identity(1, format="csr"),
                           enumerate_fk_measure(n, lam, q))
    rows, cols, vals = [], [], []
    for b in range(c):
        bit = np.int64(1) << b
        wo = states & ~bit
        conn = labels_tbl[wo, pu[b]] == labels_tbl[wo, pv[b]]
        r = np.where(conn, p, p / (p + q * (1.0 - p)))
        rows.extend([states, states])
        cols.extend([states | bit, wo])
        vals.extend([r / c, (1.0 - r) / c])
    P = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(size, size)).tocsr()
    return KernelTable("glauber", n, q, lam, states, P,
                       enumerate_fk_measure(n, lam, q))


def build_kernel(kind: str, n: int, q: float, lam: float) -> KernelTable:
    """Exact one-step transition kernel of the named dynamics.

    Guards: sw needs integer q with q^n <= 10^4 and C(n,2) <= 15;
    cm needs n <= 5; glauber needs n <= 6. All need 0 <= lam < n.
    """
    if not (0.0 <= lam < n):
        raise ValueError(f"need 0 <= lam < n, got lam={lam!r}, n={n}")
    if kind == "sw":
        if q != int(q):
            raise ValueError(f"sw requires integer q, got {q!r}")
        return _sw_kernel(n, int(q), lam)
    if kind == "cm":
        return _cm_kernel(n, q, lam)
    if kind == "glauber":
        return _glauber_kernel(n, q, lam)
    raise ValueError(f"unknown kernel kind {kind!r}")


# ---------------------------------------------------------------------------
# stationarity, reversibility, spectra

def stationarity_residual(kernel: KernelTable) -> float:
    """L1 norm of pi P - pi against the enumerated measure. Class b of
    (pi P) is sum_a c_a pi_a K[a, b] over the class sizes c."""
    flow = (kernel.class_probs * kernel.class_sizes) @ kernel.K
    return float(np.abs(flow[kernel.classes] - kernel.measure.probs).sum())


def detailed_balance_violation(kernel: KernelTable) -> float:
    """max_{x,y} |pi(x) P(x,y) - pi(y) P(y,x)|, computed once per kernel."""
    return kernel.balance_violation


def _symmetrized(K: sp.csr_matrix, sizes: np.ndarray,
                 pi: np.ndarray) -> sp.csr_matrix:
    """The symmetric C^{1/2} D^{1/2} K D^{-1/2} C^{1/2} for C = diag(sizes)
    and D = diag(pi): similar to K C, so it has the nonzero spectrum of the
    per-state kernel. With unit sizes it is D^{1/2} P D^{-1/2}."""
    s = np.sqrt(pi)
    r = np.sqrt(sizes)
    m = K.copy()
    m.data *= np.repeat(r * s, np.diff(K.indptr))
    m.data *= (r / s)[K.indices]
    return ((m + m.T) * 0.5).tocsr()


def spectral_gap(kernel: KernelTable) -> float:
    """1 - lambda_2 of the reversible kernel, on its class form.

    The symmetrization of K C (C the class sizes, see _symmetrized) carries
    the nonzero spectrum of P; P has one zero eigenvalue more per state than
    per class, so lambda_2 is at least 0 when there are fewer classes than
    states.

    Below 16 classes, where an iteration has no room to work, the spectrum
    is computed densely. From 16 on, Lanczos finds the two largest
    eigenvalues (the top one is 1) at tolerance 1e-10 from a fixed start
    vector, so that the result repeats exactly; lambda_2 is the smaller.
    There is no deflation and no Python matvec: a numpy dot of length
    >= 10^4 in the operator would wake the BLAS threads on every step.
    """
    if kernel.balance_violation >= 1e-8:
        raise ValueError("spectral_gap requires a reversible kernel "
                         "(detailed balance violated)")
    sizes, pi = kernel.class_sizes, kernel.class_probs
    count = sizes.size
    if count == 1:
        return 1.0
    m = _symmetrized(kernel.K, sizes, pi)
    if count < 16:
        lam2 = scipy.linalg.eigvalsh(m.toarray())[-2]
    else:
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, count)
        lam2 = eigsh(m, k=2, which="LA", tol=1e-10, v0=v0,
                     return_eigenvectors=False).min()
    if count < kernel.size:
        lam2 = max(lam2, 0.0)
    return float(1.0 - lam2)


_MIXING_THRESHOLD = 1.0 / (2.0 * math.e)


def mixing_time_exact(kernel: KernelTable) -> int:
    """Smallest t with max_x TV(P^t(x,.), pi) < 1/(2e), by repeated
    multiplication on the class form: P^t(x, y) = M_t[classes[x],
    classes[y]] with M_1 = K and M_{t+1} = M_t C K, so the distance from
    class a is (1/2) sum_b c_b |M_t[a, b] - pi_b|. Guarded to modest state
    spaces."""
    size = kernel.size
    if size > 4096:
        raise ValueError(f"exact mixing time limited to 4096 states, got {size}")
    k = kernel.K.toarray()
    sizes, pi = kernel.class_sizes, kernel.class_probs
    m = k.copy()
    for t in range(1, 10 ** 6 + 1):
        if 0.5 * (np.abs(m - pi) @ sizes).max() < _MIXING_THRESHOLD:
            return t
        m = (m * sizes) @ k
    raise RuntimeError("mixing time exceeded 10^6 steps")


# ---------------------------------------------------------------------------
# bottleneck ratios and cut families

def bottleneck_ratio(kernel: KernelTable, mask: np.ndarray) -> float:
    """Q(S, S^c) / (pi(S) pi(S^c)) with Q(A,B) = sum_{x in A} pi(x) P(x, B),
    for the cut S given as a boolean mask over the states."""
    if not mask.any() or mask.all():
        raise ValueError("cut must be a nonempty proper subset")
    pi = kernel.measure.probs
    rows = kernel.P[mask][:, ~mask]
    q_flow = float(pi[mask] @ np.asarray(rows.sum(axis=1)).ravel())
    pis = float(pi[mask].sum())
    return q_flow / (pis * (1.0 - pis))


def edge_count_cuts(kernel: KernelTable) -> list[np.ndarray]:
    """Sublevel sets of the edge count (random-cluster kernels only)."""
    if kernel.kind not in ("cm", "glauber"):
        raise ValueError("edge-count cuts need an edge-configuration kernel")
    _, _, ecnt = mask_partition_table(kernel.n)
    return [ecnt <= t for t in range(num_pairs(kernel.n))]


def s_m_cuts(kernel: KernelTable, m_threshold: int) -> list[np.ndarray]:
    """Sublevel sets of |S_M| (vertices in clusters larger than M)."""
    if kernel.kind not in ("cm", "glauber"):
        raise ValueError("S_M cuts need an edge-configuration kernel")
    labels, _, _ = mask_partition_table(kernel.n)
    cluster_size = (labels[:, :, None] == labels[:, None, :]).sum(axis=2)
    sm = (cluster_size > m_threshold).sum(axis=1)
    cuts = []
    for t in range(kernel.n):
        mask = sm <= t
        if mask.any() and not mask.all():
            cuts.append(mask)
    return cuts


def sweep_cuts(kernel: KernelTable) -> list[np.ndarray]:
    """Prefix cuts of the second eigenvector of the symmetrized kernel in
    the D^{-1/2} coordinates — the Cheeger-certificate family."""
    if kernel.size > 4096:
        raise ValueError("sweep cuts limited to 4096 states")
    m = _symmetrized(kernel.P, np.ones(kernel.size), kernel.measure.probs)
    w, v = scipy.linalg.eigh(m.toarray())
    f = v[:, -2] / np.sqrt(kernel.measure.probs)
    order = np.argsort(f)
    cuts = []
    for t in range(1, kernel.size):
        mask = np.zeros(kernel.size, dtype=bool)
        mask[order[:t]] = True
        cuts.append(mask)
    return cuts


def _refine_cut(kernel: KernelTable, mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Greedy single-state descent of the bottleneck ratio from a cut."""
    best = bottleneck_ratio(kernel, mask)
    mask = mask.copy()
    improved = True
    while improved:
        improved = False
        for i in range(kernel.size):
            mask[i] = ~mask[i]
            if mask.any() and not mask.all():
                r = bottleneck_ratio(kernel, mask)
                if r < best - 1e-15:
                    best = r
                    improved = True
                    continue
            mask[i] = ~mask[i]
    return best, mask


def min_bottleneck_ratio(kernel: KernelTable) -> tuple[float, np.ndarray]:
    """Minimum ratio over the structured cut families (edge-count and S_M
    sublevel sets where defined, eigenvector sweep cuts, singletons), then
    greedy descent from the best cut found.

    This is an upper bound on the true Cheeger constant: exhausting all
    bipartitions is possible only for tiny spaces (see exhaustive_min_ratio).
    """
    cuts: list[np.ndarray] = []
    if kernel.kind in ("cm", "glauber"):
        cuts.extend(edge_count_cuts(kernel))
        for m_thr in range(1, kernel.n):
            cuts.extend(s_m_cuts(kernel, m_thr))
    cuts.extend(sweep_cuts(kernel))
    for i in range(kernel.size):
        mask = np.zeros(kernel.size, dtype=bool)
        mask[i] = True
        cuts.append(mask)
    best, best_mask = None, None
    for mask in cuts:
        if not mask.any() or mask.all():
            continue
        r = bottleneck_ratio(kernel, mask)
        if best is None or r < best:
            best, best_mask = r, mask
    return _refine_cut(kernel, best_mask)


def exhaustive_min_ratio(kernel: KernelTable) -> tuple[float, np.ndarray]:
    """True Cheeger constant by enumerating every bipartition. 2^(N-1)
    cuts, so the guard is tight."""
    size = kernel.size
    if size > 16:
        raise ValueError(f"exhaustive cuts limited to 16 states, got {size}")
    pi = kernel.measure.probs
    f = (kernel.P.multiply(pi[:, None])).toarray()
    best, best_mask = None, None
    for code in range(1, 1 << (size - 1)):  # state 0 always in S^c
        mask = (code >> np.arange(size)) & 1 == 1
        pis = pi[mask].sum()
        q_flow = f[mask][:, ~mask].sum()
        r = q_flow / (pis * (1.0 - pis))
        if best is None or r < best:
            best, best_mask = float(r), mask
    return best, best_mask


def min_conductance(kernel: KernelTable) -> tuple[float, str]:
    """Min bottleneck ratio phi of Q(S, S^c)/(pi(S) pi(S^c)): exhaustive ("exact")
    to 16 states, cut families ("family", an upper bound) beyond. gap <= phi for
    every cut; Cheeger gives only phi^2/8 <= gap here, so phi^2/2 <= gap (held
    on every kernel scanned) is stronger than the theorem, not certified."""
    if kernel.size <= 16:
        return exhaustive_min_ratio(kernel)[0], "exact"
    return min_bottleneck_ratio(kernel)[0], "family"


# ---------------------------------------------------------------------------
# coupling checks

def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def _cluster_coloring_check(n: int, lam: float, q: float,
                            w: list[float]) -> float:
    """Exact verification of the cluster-coloring theorem: draw omega from
    the random-cluster measure (weight q) and give each cluster class i
    independently with probability w[i]. Conditionally on the class vertex
    sets, the restriction of omega to class i (m_i vertices) follows the
    random-cluster measure on m_i vertices with weight q*w[i] and the same
    edge density, independently across classes. Returns the maximum
    total-variation deviation over every class marginal and the product
    test, over all class colorings of the vertices."""
    measure = enumerate_fk_measure(n, lam, q)
    labels, _, _ = mask_partition_table(n)
    roots = labels == np.arange(n)
    pu, pv = all_pairs(n)
    w = np.asarray(w, dtype=np.float64)
    worst = 0.0
    for c in _digit_matrix(w.size ** n, w.size, n):
        # the states whose clusters each stay inside one class are the
        # products of edge sets inside the classes: axis i of the joint
        # lists class i's masks in its own local codec, and a state weighs
        # its FK probability times w[i] per cluster (root) in class i
        axes = [_bernoulli_submasks(np.flatnonzero((c[pu] == i) & (c[pv] == i)),
                                    lam / n)[0] for i in range(w.size)]
        states = functools.reduce(np.add.outer, axes)
        cluster_w = np.where(roots[states], w[c], 1.0).prod(axis=-1)
        joint = measure.probs[states] * cluster_w
        total = joint.sum()
        if total == 0.0:  # a class of probability 0 holds a cluster
            continue
        joint /= total
        margs = [joint.sum(axis=tuple(j for j in range(w.size) if j != i))
                 for i in range(w.size)]
        for i, marg in enumerate(margs):
            m = int((c == i).sum())
            ref = enumerate_fk_measure(m, lam * m / n, q * w[i] if m else 1.0)
            worst = max(worst, tv_distance(marg, ref.probs))
        # conditional independence: the joint is the product of its marginals
        product = functools.reduce(np.multiply.outer, margs)
        worst = max(worst, tv_distance(joint, product))
    return worst


def bgj_coloring_check(n: int, lam: float, q: float, alpha: float) -> float:
    """The cluster-coloring check with a red class of probability alpha:
    given the red vertex set R, omega restricted to R is the random-cluster
    measure of weight alpha*q, the complement has weight (1-alpha)*q, and
    the two restrictions are independent."""
    if n > 5:
        raise ValueError(f"coloring check limited to n <= 5, got {n}")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0,1], got {alpha!r}")
    return _cluster_coloring_check(n, lam, q, [alpha, 1.0 - alpha])


def iterated_coloring_check(n: int, lam: float, q: float) -> float:
    """The cluster-coloring check with floor(q) unit classes (probability
    1/q each, so each restricts to the q=1 Erdos-Renyi measure) plus a
    remainder class of probability (q - floor(q))/q (weight q - floor(q))."""
    if n > 4:
        raise ValueError(f"iterated coloring check limited to n <= 4, got {n}")
    if q <= 2:
        raise ValueError(f"iterated coloring check needs q > 2, got {q!r}")
    f = int(math.floor(q))
    return _cluster_coloring_check(n, lam, q, [(q - f) / q] + [1.0 / q] * f)


def es_coupling_check(n: int, lam: float, q: int) -> tuple[float, float]:
    """Both directions of the Edwards-Sokal coupling, exactly, on the two
    factors the sw kernel is built from: (a) the Potts measure pushed
    through monochromatic percolation equals the random-cluster measure;
    (b) the random-cluster measure pushed through uniform cluster
    recoloring equals the Potts measure. Returns the two L1 deviations."""
    if n > 5:
        raise ValueError(f"coupling check limited to n <= 5, got {n}")
    if int(q) != q or q < 1:
        raise ValueError(f"needs integer q >= 1, got {q!r}")
    q = int(q)
    potts = enumerate_potts_measure(n, q, lam)
    fk = enumerate_fk_measure(n, lam, q)
    push_fk = potts.probs @ _percolation_factor(_mono_masks(n, q), n, lam / n)
    push_potts = fk.probs @ _recolor_factor(n, q)
    return (float(np.abs(push_fk - fk.probs).sum()),
            float(np.abs(push_potts - potts.probs).sum()))


# ---------------------------------------------------------------------------
# fixture dump

def dump_kernel_csv(kernel: KernelTable, path: str) -> None:
    """CSV fixture: one row per state — index, stationary probability, and
    the kernel row's nonzeros as "j:p;j:p;..." in column order."""
    lines = ["state,probability,row"]
    indptr, indices, data = kernel.P.indptr, kernel.P.indices, kernel.P.data
    for s in range(kernel.size):
        lo, hi = indptr[s], indptr[s + 1]
        nz = ";".join(f"{int(j)}:{repr(float(x))}"
                      for j, x in zip(indices[lo:hi], data[lo:hi]))
        lines.append(f"{s},{repr(float(kernel.measure.probs[s]))},{nz}")
    # CRLF row ends, as the csv module's default dialect writes them
    atomic_write_text(path, "\r\n".join(lines) + "\r\n")
