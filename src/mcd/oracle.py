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

Chain contract: a Chain is a chain in class form, three arrays: the class
kernel K (dense or CSR), pi of one state of each class and the class
sizes, with P(x, y) = K[a, b] for x in class a and y in class b.
Stationarity, detailed balance, the spectral gap and the mixing time read
only these, by the same operations on either storage; the Lanczos gap
multiplies by a CSR K in scipy's own loop and by a dense K in einsum's, so
no BLAS call runs on the long vectors. Detailed balance and the
symmetrization combine a scaled K with its transpose in place: a dense K
one square tile at a time, with no full-size copy of the transpose, and a
CSR K of symmetric pattern on its data. A KernelTable is the
Chain of an enumerated kernel: it adds the class map `classes` (state ->
class) and the measure, which must be constant on each class, and reads
pi and the sizes off them. The sw classes are the monochromatic pair
masks, on which an SW entry depends (187 of them for the 4096 states at
n = 6, q = 4); cm and glauber use one class per state, with K = P. The sw
and cm class kernels are full, so dense; a glauber row has one entry per
pair plus the diagonal, so CSR. Dumps use the per-state CSR
`KernelTable.P`. A cut S counts its states in each class, on the support
of pi; P depends only on classes, so every cut, one that splits an sw
class included, is scored exactly on the class form.

The structure of a glauber or sw kernel, which no weight enters, is
computed once and held read-only, as the partition table is: per n, the
glauber CSR pattern with one code per entry (pair set, endpoints connected
without it), 3.4 MB at n = 6; per (n, q), the sw mask classes, the
percolation pattern over one mask per class and the Potts pair counts,
0.4 MB at n = 6, q = 4. A build computes only the weights of its q and
lam, so builds at one n after the first skip the structure, and a single
build (one `mcd oracle` call) does no more work than it did without it.

The cluster-coloring checks loop over the class colorings of the
vertices: given one, the conditional law is a tensor with one axis per
class, over the edge sets inside that class, so the class marginals are
its axis sums and the independence test compares it with their product.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec, csr_scale_columns, csr_scale_rows

from .indexing import all_pairs, num_pairs, pair_indices_of
from .model import EdgeConfig, _edge_config_presorted, integer_q, positive_n
from .report import atomic_write_text

_FK_N_MAX = 7
_POTTS_STATES_MAX = 10 ** 6


# ---------------------------------------------------------------------------
# partition table over all edge masks

_partition_tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


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
    _partition_tables[n] = _read_only(labels, kcnt, ecnt)
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
    """Fully enumerated probability vector over the indexed states of n
    vertices."""

    n: int
    probs: np.ndarray
    log_norm: float


def _normalize_log_weights(logw: np.ndarray) -> tuple[np.ndarray, float]:
    m = float(logw.max())
    w = np.exp(logw - m)
    z = math.fsum(w.tolist())
    return w / z, m + math.log(z)


def _edge_probability(n: int, lam: float) -> float:
    """p = lam/n on the exact layer's domain, positive integer n and
    0 <= lam < n: unlike ModelParams' (0, n), lam = 0 (no edges) is kept."""
    if not 0.0 <= lam < positive_n(n):
        raise ValueError(f"lam must lie in [0, n), got {lam!r} with n = {n}")
    return lam / n


def enumerate_fk_measure(n: int, lam: float, q: float) -> MeasureTable:
    """The random-cluster measure on all 2^C(n,2) edge configurations:
    weight p^|E| (1-p)^(C-|E|) q^k(G) with p = lam/n.

    Any real q > 0 is accepted (the coloring checks condition on vertex
    subsets whose effective weight can be fractional). n = 0 and n = 1
    are single-state spaces.
    """
    if n == 0:
        return MeasureTable(0, np.array([1.0]), 0.0)
    p = _edge_probability(n, lam)
    if n > _FK_N_MAX:
        raise ValueError(f"exact enumeration limited to n <= {_FK_N_MAX}, got {n}")
    if not 0 < q < math.inf:
        raise ValueError(f"cluster weight must be positive and finite, got {q!r}")
    _, kcnt, ecnt = mask_partition_table(n)
    c = num_pairs(n)
    if p == 0.0:
        probs = np.zeros(1 << c)
        probs[0] = 1.0
        return MeasureTable(n, probs, n * math.log(q))
    logw = (ecnt * math.log(p) + (c - ecnt) * math.log1p(-p)
            + kcnt * math.log(q)).astype(np.float64)
    probs, log_norm = _normalize_log_weights(logw)
    probs.flags.writeable = False
    return MeasureTable(n, probs, log_norm)


def _pair_counts(n: int, q: int) -> np.ndarray:
    """Per coloring, in codec order, its number of monochromatic pairs."""
    digits = _digit_matrix(q ** n, q, n)
    h = np.zeros(q ** n, dtype=np.int64)
    for color in range(q):
        cnt = (digits == color).sum(axis=1)
        h += cnt * (cnt - 1) // 2
    return h


def _potts_measure(h: np.ndarray, n: int, lam: float) -> MeasureTable:
    """The mean-field Potts measure on the colorings with pair counts h."""
    beta = -n * math.log1p(-lam / n)
    probs, log_norm = _normalize_log_weights((beta / n) * h)
    probs.flags.writeable = False
    return MeasureTable(n, probs, log_norm)


def enumerate_potts_measure(n: int, q: int, lam: float) -> MeasureTable:
    """The mean-field Potts measure over all q^n colorings: weight
    exp((beta/n) * #{monochromatic pairs}) with beta = -n*log(1 - lam/n)."""
    q = integer_q(q, 1, "Potts")
    _edge_probability(n, lam)
    if q ** n > _POTTS_STATES_MAX:
        raise ValueError(f"q^n = {q ** n} exceeds {_POTTS_STATES_MAX}")
    return _potts_measure(_pair_counts(n, q), n, lam)


# ---------------------------------------------------------------------------
# exact kernels

@dataclass(frozen=True)
class Chain:
    """A chain in class form (see the module docstring): the class kernel
    K, dense or CSR, pi of one state of each class, and the number of
    states in each class."""

    K: np.ndarray | sp.csr_matrix
    pi: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        count = self.sizes.size
        if (self.K.shape != (count, count) or self.pi.shape != (count,)
                or not self.sizes.all()):
            raise ValueError("pi and sizes must give every row of K a nonempty class")

    @functools.cached_property
    def balance_violation(self) -> float:
        """max over classes of |pi_a K_ab - pi_b K_ba|; only the scalar is
        kept. A dense K is read one pair of square tiles at a time, as
        _with_transpose reads it, so no full-size array is made."""
        K, pi = self.K, self.pi
        if sp.issparse(K):
            d = _with_transpose(_scaled(K, pi), np.subtract).data
            return float(np.abs(d, out=d).max(initial=0.0))
        worst = [0.0]  # np.max of the tiles' maxima keeps a NaN
        for rows, cols in _tile_pairs(pi.size):
            d = K[rows, cols] * pi[rows, None]
            d -= (K[cols, rows] * pi[cols, None]).T
            worst.append(np.abs(d, out=d).max(initial=0.0))
        return float(np.max(worst))


@dataclass(frozen=True)
class KernelTable(Chain):
    """The Chain of an enumerated kernel (see the module docstring), its
    states indexed per the module codec."""

    pi: np.ndarray = field(init=False)
    sizes: np.ndarray = field(init=False)
    kind: str
    classes: np.ndarray
    measure: MeasureTable

    def __post_init__(self):
        if self.classes.shape != self.measure.probs.shape:
            raise ValueError("classes must map the states onto every row of K")
        sizes = np.bincount(self.classes)
        pi = np.zeros(sizes.size)
        pi[self.classes] = self.measure.probs
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "pi", pi)
        super().__post_init__()
        if not np.array_equal(pi[self.classes], self.measure.probs):
            raise ValueError("the stationary measure is not constant on each class")

    @property
    def size(self) -> int:
        return self.classes.size

    @functools.cached_property
    def P(self) -> sp.csr_matrix:
        """The per-state kernel in canonical CSR (rows sum to 1)."""
        P = sp.csr_matrix(self.K).tocsc()[:, self.classes].tocsr()[self.classes]
        P.sort_indices()
        return P


def _scaled(K: np.ndarray | sp.csr_matrix, row: np.ndarray,
            col: np.ndarray | None = None) -> np.ndarray | sp.csr_matrix:
    """diag(row) K diag(col) in K's own storage, rows scaled first. A CSR K
    keeps its pattern: only its data are copied and scaled."""
    if not sp.issparse(K):
        m = K * row[:, None]
        if col is not None:
            m *= col
        return m
    # scipy's own loops scale the copied data in place, with no
    # per-entry temporary; the pattern arrays are shared with K, and
    # nothing writes to them
    data = K.data.astype(np.float64)
    csr_scale_rows(*K.shape, K.indptr, K.indices, data, row)
    if col is not None:
        csr_scale_columns(*K.shape, K.indptr, K.indices, data, col)
    return type(K)((data, K.indices, K.indptr), shape=K.shape)


_TILE = 128


def _tile_pairs(count: int):
    """The square tiles (rows, cols) of a count x count array on and above
    the diagonal, as slices."""
    for lo in range(0, count, _TILE):
        for lo2 in range(lo, count, _TILE):
            yield slice(lo, lo + _TILE), slice(lo2, lo2 + _TILE)


def _with_transpose(m: np.ndarray | sp.csr_matrix, op) -> np.ndarray | sp.csr_matrix:
    """op(m, m.T) for the ufunc op, written over m. A dense m, and a CSR m
    whose pattern is symmetric (as a reversible kernel's is), are combined
    on their stored values. Only a CSR with an asymmetric pattern goes
    through scipy's sparse sum, whose result buffer, sized for the two
    operands' entries together, page-faults in on every call.

    A dense m is combined one square tile at a time: the tiles (I, J) and
    (J, I) are read through copies of the two tiles' transposes, so no
    full-size copy of m.T is made, and each entry still gets one op on the
    same two operands."""
    if not sp.issparse(m):
        for rows, cols in _tile_pairs(m.shape[0]):
            a, b = m[rows, cols], m[cols, rows]
            if rows == cols:
                op(a, a.T.copy(), out=a)
                continue
            at = a.T.copy()
            op(a, b.T.copy(), out=a)
            op(b, at, out=b)
        return m
    t = m.T.tocsr()
    if not (np.array_equal(t.indptr, m.indptr)
            and np.array_equal(t.indices, m.indices)):
        return op(m, t)
    op(m.data, t.data, out=m.data)
    return m


def _submasks(positions: np.ndarray) -> np.ndarray:
    """All submasks over the bit positions in the last axis of `positions`
    (distinct within a row), of shape positions.shape[:-1] + (2^t,):
    submask j holds the positions of the set bits of j. Built by doubling:
    the submasks below 2^(i+1) are those below 2^i, then those with
    position i added."""
    masks = np.zeros(positions.shape[:-1] + (1,), dtype=np.int64)
    for i in range(positions.shape[-1]):
        added = masks | (np.int64(1) << positions[..., i, None])
        masks = np.concatenate((masks, added), axis=-1)
    return masks


def _bernoulli_weights(t: int, p: float) -> np.ndarray:
    """The Bernoulli(p) product weights p^e (1-p)^(t-e) of the 2^t
    submasks of a t-bit mask, in the order of _submasks (e doubles as
    they do)."""
    e = np.zeros(1, dtype=np.int64)
    for _ in range(t):
        e = np.concatenate((e, e + 1))
    return p ** e * (1.0 - p) ** (t - e)


def _mono_masks(n: int, q: int) -> np.ndarray:
    """Per coloring, in codec order, the mask of its monochromatic pairs."""
    digits = _digit_matrix(q ** n, q, n)
    pu, pv = all_pairs(n)
    return (digits[:, pu] == digits[:, pv]) @ (
        np.int64(1) << np.arange(num_pairs(n), dtype=np.int64))


def _percolation_pattern(mono: np.ndarray, n: int) -> tuple:
    """The percolation push's structure, which p does not enter: the
    canonical CSR indptr and indices (int32, rows as in mono, each row's
    submasks of its mask in the order of _submasks), per entry its index
    into _percolation_weights, and the mask sizes those weights list."""
    bits = (mono[:, None] >> np.arange(num_pairs(n), dtype=np.int64)) & 1
    t = bits.sum(axis=1)
    indptr = np.zeros(mono.size + 1, dtype=np.int32)
    np.cumsum(np.int64(1) << t, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    weight = np.empty(indptr[-1], dtype=np.int32)
    sizes = np.unique(t).tolist()
    offset = 0
    for k in sizes:
        sel = np.flatnonzero(t == k)
        slots = indptr[sel, None] + np.arange(1 << k)
        indices[slots] = _submasks(np.nonzero(bits[sel])[1].reshape(sel.size, k))
        weight[slots] = offset + np.arange(1 << k)
        offset += 1 << k
    return indptr, indices, weight, tuple(sizes)


def _percolation_weights(sizes: tuple, p: float) -> np.ndarray:
    """The weights _percolation_pattern's entries index: the Bernoulli(p)
    submask weights of each mask size in turn."""
    return np.concatenate([_bernoulli_weights(t, p) for t in sizes])


def _percolation_factor(mono: np.ndarray, n: int, p: float) -> sp.csr_matrix:
    """Edwards-Sokal percolation push: row i is the law of the open pair
    set when each pair of the mask mono[i] is kept independently with
    probability p (over _mono_masks: row sigma is P(omega | sigma))."""
    indptr, indices, weight, sizes = _percolation_pattern(mono, n)
    return sp.csr_matrix((_percolation_weights(sizes, p)[weight], indices, indptr),
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


# The structure of the glauber and sw kernels, which lam (and, for glauber,
# q) does not enter, is computed once per n for glauber and once per (n, q)
# for sw and held read-only, as the partition table is; a build then
# computes only its weights. The sw dict keeps its last _SW_PATTERNS_MAX
# keys, since its guard admits some 10^4 values of q at n = 1
_glauber_patterns: dict[int, tuple] = {}
_sw_patterns: dict[tuple[int, int], tuple] = {}
_SW_PATTERNS_MAX = 16


def _sw_pattern(n: int, q: int) -> tuple:
    """The sw kernel's structure at (n, q): the mask class of each
    coloring, the percolation pattern over one mask per class and the
    Potts pair counts."""
    key = (n, q)
    if key in _sw_patterns:
        return _sw_patterns[key]
    masks, classes = np.unique(_mono_masks(n, q), return_inverse=True)
    indptr, indices, weight, sizes = _percolation_pattern(masks, n)
    if len(_sw_patterns) >= _SW_PATTERNS_MAX:
        del _sw_patterns[next(iter(_sw_patterns))]
    _sw_patterns[key] = (*_read_only(classes, indptr, indices, weight,
                                     _pair_counts(n, q)), sizes)
    return _sw_patterns[key]


def _sw_kernel(n: int, q: int, lam: float) -> KernelTable:
    q = integer_q(q, 2, "sw kernel")
    if q ** n > 10 ** 4:
        raise ValueError(f"sw kernel limited to q^n <= 10^4, got {q ** n}")
    if num_pairs(n) > 15:
        raise ValueError(f"sw kernel limited to C(n,2) <= 15, got {num_pairs(n)}")
    # an entry depends on the two colorings only through their
    # monochromatic pair masks, so the factor product is taken once per pair
    # of distinct masks. Recoloring sends omega to a coloring with mask m
    # with probability q^-k(omega) iff omega's open pairs lie in m, so that
    # factor, restricted to one coloring per mask, has the pattern of the
    # percolation factor transposed. An entry sums up to 2^C terms;
    # extended precision keeps it within rounding of the exact value
    # (float64 accumulation drifts by ~5e-14 at n = 6)
    classes, indptr, indices, weight, h, sizes = _sw_pattern(n, q)
    _, kcnt, _ = mask_partition_table(n)
    shape = (indptr.size - 1, 1 << num_pairs(n))
    perc = _percolation_weights(sizes, lam / n).astype(np.longdouble)[weight]
    recolor = (1.0 / q ** np.arange(n + 1, dtype=np.int64)).astype(np.longdouble)
    K = (sp.csr_matrix((perc, indices, indptr), shape=shape)
         @ sp.csr_matrix((recolor[kcnt[indices]], indices, indptr), shape=shape).T)
    return KernelTable(K.toarray().astype(np.float64), "sw", classes,
                       _potts_measure(h, n, lam))


_SCATTER_ENTRIES = 1 << 18


def _cm_kernel(n: int, q: float, lam: float) -> KernelTable:
    if n > 5:
        raise ValueError(f"cm kernel limited to n <= 5, got {n}")
    if not 1 <= q < math.inf:
        raise ValueError(f"cm kernel needs finite q >= 1, got {q!r}")
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
    every = (1 << n) - 1
    for vs in range(every + 1):
        in_v = (vs >> np.arange(n)) & 1
        inside = in_v[pu] & in_v[pv]
        cut = (in_v[pu] ^ in_v[pv]) @ pair_bits
        sel = states[(states & cut) == 0]
        a = roots[sel] @ in_v
        w_act = (1.0 / q) ** a * (1.0 - 1.0 / q) ** (kcnt[sel] - a)
        resampled = np.flatnonzero(inside)
        masks, w_sub = _submasks(resampled), _bernoulli_weights(resampled.size, p)
        kept = sel & ~(inside @ pair_bits)
        # chunks bound the temporaries to _SCATTER_ENTRIES
        step = max(1, _SCATTER_ENTRIES // masks.size)
        for lo in range(0, sel.size, step):
            rows = slice(lo, lo + step)
            w = np.multiply.outer(w_act[rows], w_sub)
            if vs == every:
                # V = all vertices resamples every pair and keeps none: every
                # state reaches every mask, in state order, so the block of
                # rows is dense and the += needs no index arrays
                P[rows] += w
            else:
                # one V sends a row to distinct targets, so the += is a
                # plain scatter
                P[sel[rows, None], kept[rows, None] | masks] += w
    return KernelTable(P, "cm", states, enumerate_fk_measure(n, lam, q))


def _glauber_pattern(n: int) -> tuple:
    """The heat-bath kernel's structure at n: the canonical CSR indptr and
    indices (int32), one code per entry, 2 [pair set] + [endpoints
    connected without the pair], the codes of each state per pair (one row
    per pair, in pair order) and the positions of the diagonal.

    Row x holds x ^ 2^b for each pair b and x itself, in column order:
    first the set bits from the highest down (slot = set bits above b),
    then x (slot = popcount x), then the clear bits from the lowest up
    (slot = popcount x + 1 + clear bits below b)."""
    if n in _glauber_patterns:
        return _glauber_patterns[n]
    c = num_pairs(n)
    size = 1 << c
    pu, pv = all_pairs(n)
    labels, _, ones = mask_partition_table(n)
    states = np.arange(size, dtype=np.int64)
    width = c + 1
    base = states * width
    indices = np.empty(size * width, dtype=np.int32)
    codes = np.zeros(size * width, dtype=np.uint8)  # the diagonal is summed apart
    pair_codes = np.empty((c, size), dtype=np.uint8)
    below = np.zeros(size, dtype=np.int64)  # set bits below b
    for b in range(c):
        bit = np.int64(1) << b
        wo = states & ~bit
        is_set = (states & bit) != 0
        pair_codes[b] = 2 * is_set + (labels[wo, pu[b]] == labels[wo, pv[b]])
        rank = ones - below  # set bits at or above b
        slot = base + np.where(is_set, rank - 1, rank + 1 + b)
        indices[slot] = states ^ bit
        codes[slot] = pair_codes[b]
        below += is_set
    diagonal = (base + ones).astype(np.int32)
    indices[diagonal] = states
    indptr = np.arange(0, size * width + 1, width, dtype=np.int32)
    _glauber_patterns[n] = _read_only(indptr, indices, codes, pair_codes, diagonal)
    return _glauber_patterns[n]


def _glauber_kernel(n: int, q: float, lam: float) -> KernelTable:
    if n > 6:
        raise ValueError(f"glauber kernel limited to n <= 6, got {n}")
    measure = enumerate_fk_measure(n, lam, q)
    p = lam / n
    c = num_pairs(n)
    size = 1 << c
    states = np.arange(size, dtype=np.int64)
    if c == 0:  # one vertex, no pair to update: the chain stays put
        return KernelTable(sp.identity(1, format="csr"), "glauber", states, measure)
    indptr, indices, codes, pair_codes, diagonal = _glauber_pattern(n)
    # a pair is open after the update with probability r, which depends on
    # whether its endpoints are connected without it; by code, an entry is
    # r/c (opening) or (1 - r)/c (closing), and the pair's stay weight on
    # the diagonal is the other of the two
    r = np.array([p / (p + q * (1.0 - p)), p])
    values = np.concatenate((r / c, (1.0 - r) / c))
    data = values[codes]
    stay = values[[2, 3, 0, 1]]
    diag = np.zeros(size)
    for row in pair_codes:  # the diagonal sums the stay weights in pair order
        diag += stay[row]
    data[diagonal] = diag
    return KernelTable(sp.csr_matrix((data, indices, indptr), shape=(size, size)),
                       "glauber", states, measure)


def build_kernel(kind: str, n: int, q: float, lam: float) -> KernelTable:
    """Exact one-step transition kernel of the named dynamics.

    Guards: sw needs integer q with q^n <= 10^4 and C(n,2) <= 15;
    cm needs n <= 5; glauber needs n <= 6; (n, lam) as _edge_probability.
    """
    _edge_probability(n, lam)
    if kind == "sw":
        return _sw_kernel(n, q, lam)
    if kind == "cm":
        return _cm_kernel(n, q, lam)
    if kind == "glauber":
        return _glauber_kernel(n, q, lam)
    raise ValueError(f"unknown kernel kind {kind!r}")


# ---------------------------------------------------------------------------
# stationarity, reversibility, spectra

def stationarity_residual(chain: Chain) -> float:
    """L1 norm of pi P - pi over the states: sum_b c_b |(pi C K)_b - pi_b|
    for the class sizes c. Class b of (pi C K) is sum_a c_a pi_a K[a, b];
    on a dense K, einsum adds the scaled rows in order, as the sparse
    product does, with no full-size temporary and no BLAS call."""
    K, w = chain.K, chain.pi * chain.sizes
    flow = w @ K if sp.issparse(K) else np.einsum("i,ij->j", w, K)
    return float((np.abs(flow - chain.pi) * chain.sizes).sum())


def detailed_balance_violation(chain: Chain) -> float:
    """max_{x,y} |pi(x) P(x,y) - pi(y) P(y,x)|, computed once per chain."""
    return chain.balance_violation


def _symmetrized(K: np.ndarray | sp.csr_matrix, sizes: np.ndarray,
                 pi: np.ndarray) -> np.ndarray | sp.csr_matrix:
    """The symmetric C^{1/2} D^{1/2} K D^{-1/2} C^{1/2} for C = diag(sizes)
    and D = diag(pi), pi > 0, in K's storage: similar to K C, so it has the
    nonzero spectrum of the per-state kernel. With unit sizes it is
    D^{1/2} P D^{-1/2}."""
    s = np.sqrt(pi)
    r = np.sqrt(sizes)
    m = _with_transpose(_scaled(K, r * s, r / s), np.add)
    (m.data if sp.issparse(m) else m)[...] *= 0.5
    return m


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.einsum("i,i", a, b))


_LANCZOS_TOL = 1e-10


_STEBZ, _STEIN = scipy.linalg.get_lapack_funcs(("stebz", "stein"), (np.empty(0),))


def _top_ritz(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, float]:
    """The largest eigenvalue of the symmetric tridiagonal matrix with
    diagonal alpha and off-diagonal beta, and the last component of its unit
    eigenvector: what scipy.linalg.eigh_tridiagonal(alpha, beta, select="i",
    select_range=(j, j)) gives for j = alpha.size - 1, by the same LAPACK
    calls with the same arguments (bisection, then inverse iteration),
    without the wrapper's argument handling on every Lanczos step."""
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise ValueError("Lanczos coefficients must be finite")
    j = alpha.size
    if j == 1:
        return float(alpha[0]), 1.0
    m, w, iblock, isplit, info = _STEBZ(alpha, beta, 2, 0.0, 1.0, j, j, 0.0, "B")
    if info == 0:
        y, info = _STEIN(alpha, beta, w[:m], iblock, isplit)
    if info != 0:
        raise scipy.linalg.LinAlgError(f"tridiagonal eigensolver failed (info={info})")
    return float(w[0]), float(y[-1, 0])


def _top_of_compression(m: np.ndarray | sp.csr_matrix, s: np.ndarray,
                        v: np.ndarray) -> float:
    """The largest eigenvalue of the symmetric m compressed to the
    complement of its unit eigenvector s, by the plain three-term Lanczos
    recurrence from the start vector v.

    Projecting s out of every product keeps the Krylov space off s, so no
    copy of s's eigenvalue can appear. Without reorthogonalisation,
    converged Ritz values come back as ghost copies (Paige 1976; Parlett,
    The Symmetric Eigenvalue Problem, ch. 13), which changes multiplicities
    only; the largest Ritz value rises monotonically to the compression's
    top eigenvalue and is the only one read. The recurrence stops when the
    residual bound beta_j |y_j| of that Ritz pair falls to 1e-10 max(1,
    |theta|); a breakdown (beta_j = 0) meets it with an exact answer.

    Every operation on the long vectors stays out of BLAS: a dense m is
    multiplied by einsum's own loop and a CSR m by scipy's, and the dot
    products are einsum's. A BLAS call here would wake OpenBLAS's thread
    pool, which then spins after it. The vector updates go through one
    preallocated buffer.
    """
    count = s.size
    if sp.issparse(m):
        def matvec(x, out):
            out.fill(0.0)
            csr_matvec(count, count, m.indptr, m.indices, m.data, x, out)
    else:  # m is exactly symmetric, so x m = m x; this form adds the rows
        # in order, as the CSR loop adds a row's entries, so that a dense
        # and a CSR m give the same bits
        def matvec(x, out):
            np.einsum("ij,i->j", m, x, out=out)
    v = v - _dot(s, v) * s
    v /= math.sqrt(_dot(v, v))
    prev, w, tmp = np.zeros(count), np.empty(count), np.empty(count)
    # in exact arithmetic the recurrence breaks down within count - 1
    # steps; in floating point, ghosts can hold the top Ritz value back
    steps = 2 * count
    alpha, beta, b = np.empty(steps), np.empty(steps), 0.0
    for j in range(steps):
        matvec(v, w)
        w -= np.multiply(s, _dot(s, w), out=tmp)
        w -= np.multiply(prev, b, out=tmp)
        alpha[j] = _dot(v, w)
        w -= np.multiply(v, alpha[j], out=tmp)
        b = math.sqrt(_dot(w, w))
        theta, y = _top_ritz(alpha[:j + 1], beta[:j])
        if b * abs(y) <= _LANCZOS_TOL * max(1.0, abs(theta)):
            return theta
        beta[j] = b
        w /= b
        prev, v, w = v, w, prev
    raise RuntimeError(f"Lanczos did not converge in {steps} steps")


def spectral_gap(chain: Chain) -> float:
    """1 - lambda_2 of the reversible kernel on L^2(pi), on its class form.

    A reversible P maps the support of pi into itself, so the gap is that
    of K restricted to the classes of positive measure. The symmetrization
    of K C (C the class sizes, see _symmetrized) carries the nonzero
    spectrum of P; P has one zero eigenvalue more per state than per
    class, so lambda_2 is at least 0 when there are fewer classes than
    states.

    s = sqrt(pi C) is the exact top eigenvector (eigenvalue 1: the
    per-state rows sum to 1 and P is reversible), so by interlacing
    lambda_2 is the top eigenvalue of the compression to the complement of
    s, found by _top_of_compression from a fixed start vector, so that the
    result repeats exactly. On a few classes the recurrence breaks down
    within count - 1 steps, with the exact top value.
    """
    if chain.balance_violation >= 1e-8:
        raise ValueError("spectral_gap requires a reversible kernel "
                         "(detailed balance violated)")
    K, sizes, pi = chain.K, chain.sizes, chain.pi
    keep = pi > 0
    if not keep.all():
        K, sizes, pi = K[keep][:, keep], sizes[keep], pi[keep]
    count = sizes.size
    if count == 1:
        return 1.0
    s = np.sqrt(pi * sizes)
    s /= math.sqrt(_dot(s, s))
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, count)
    lam2 = _top_of_compression(_symmetrized(K, sizes, pi), s, v0)
    if count < sizes.sum():
        lam2 = max(lam2, 0.0)
    return float(1.0 - lam2)


_MIXING_THRESHOLD = 1.0 / (2.0 * math.e)


def mixing_time_exact(chain: Chain) -> int:
    """Smallest t with max_x TV(P^t(x,.), pi) < 1/(2e), by repeated
    multiplication on the class form: P^t(x, y) = M_t[a, b] for x in class
    a and y in class b, with M_1 = K and M_{t+1} = M_t C K, so the distance
    from class a is (1/2) sum_b c_b |M_t[a, b] - pi_b|. The powers are
    dense, so the class count is guarded."""
    sizes, pi = chain.sizes, chain.pi
    if sizes.size > 4096:
        raise ValueError(f"exact mixing time limited to 4096 classes, got {sizes.size}")
    m = k = chain.K.toarray() if sp.issparse(chain.K) else chain.K
    for t in range(1, 10 ** 6 + 1):
        if 0.5 * (np.abs(m - pi) @ sizes).max() < _MIXING_THRESHOLD:
            return t
        m = (m * sizes) @ k
    raise RuntimeError("mixing time exceeded 10^6 steps")


# ---------------------------------------------------------------------------
# bottleneck ratios and cut families

def _support(chain: Chain) -> np.ndarray:
    """The classes of positive measure, where every cut is taken: a state
    off them carries no flow of a reversible kernel."""
    support = np.flatnonzero(chain.pi > 0)
    states = int(chain.sizes[support].sum())
    if states < 2:
        raise ValueError(f"cuts need two states in the support of pi, got {states}")
    return support


def _cut_ratio(chain: Chain, inside: np.ndarray) -> float | None:
    """Q(S, S^c) / (pi(S) pi(S^c)) for the class counts `inside`, with
    Q = sum_a inside_a pi_a (K (sizes - inside))_a, or None if a side has no
    mass. The lighter side's own mass m gives pi(S) pi(S^c) = m (1 - m):
    1 - pi(S) would cancel to 0 when pi(S^c) is below the rounding of 1."""
    inside = np.asarray(inside, dtype=np.float64)
    outside = chain.sizes - inside
    held, left = inside > 0, outside > 0
    w = inside[held] * chain.pi[held]
    light = min(w.sum(), (outside[left] * chain.pi[left]).sum())
    if light == 0.0:
        return None
    return float(w @ (chain.K @ outside)[held]) / float(light * (1.0 - light))


def bottleneck_ratio(chain: Chain, cut: np.ndarray) -> float:
    """Q(S, S^c) / (pi(S) pi(S^c)) with Q(A,B) = sum_{x in A} pi(x) P(x, B),
    for the cut S given as the number of its states in each class."""
    ratio = _cut_ratio(chain, cut)
    if ratio is None:
        raise ValueError("cut must have 0 < pi(S) < 1")
    return ratio


def _first_least(chain: Chain, cuts) -> tuple[float, np.ndarray]:
    """The least ratio over the cuts with mass on both sides, and its first cut."""
    best, best_cut = math.inf, None
    for cut in cuts:
        r = _cut_ratio(chain, cut)
        if r is not None and r < best:
            best, best_cut = r, cut
    return best, best_cut


_SWEEP_CLASSES_MAX = 4096


def sweep_cuts(chain: Chain) -> list[np.ndarray]:
    """Prefix cuts of the second eigenvector of P in the D^{-1/2}
    coordinates, the Cheeger-certificate family, on the classes of positive
    measure; the others stay in S^c. A nonzero eigenvalue's eigenvector is
    constant on classes, so it is read off _symmetrized and each prefix
    takes whole classes. The eigenproblem is dense, so classes are guarded."""
    count = chain.sizes.size
    if count > _SWEEP_CLASSES_MAX:
        raise ValueError(f"sweep cuts limited to {_SWEEP_CLASSES_MAX} classes")
    support = _support(chain)
    if support.size < 2:
        return []
    pi, sizes = chain.pi[support], chain.sizes[support]
    m = _symmetrized(chain.K[support][:, support], sizes, pi)
    _, v = scipy.linalg.eigh(m.toarray() if sp.issparse(m) else m)
    rank = np.full(count, count)
    rank[support[np.argsort(v[:, -2] / np.sqrt(pi * sizes))]] = np.arange(support.size)
    return [np.where(rank < t, chain.sizes, 0) for t in range(1, support.size)]


def _refine_cut(chain: Chain, cut: np.ndarray) -> tuple[float, np.ndarray]:
    """Greedy descent of the bottleneck ratio from a cut, moving one state
    of a class of positive measure into S or out of it at a time."""
    support, inside = _support(chain), np.array(cut, dtype=np.float64)
    best = _cut_ratio(chain, inside)
    improved = True
    while improved:
        improved = False
        for a in support:
            for step in (1.0, -1.0):
                inside[a] += step
                if 0 <= inside[a] <= chain.sizes[a]:
                    r = _cut_ratio(chain, inside)
                    if r is not None and r < best - 1e-15:
                        best, improved = r, True
                        break
                inside[a] -= step
    return best, inside


def min_bottleneck_ratio(chain: Chain) -> tuple[float, np.ndarray]:
    """Minimum ratio over the structured cut families (sublevel sets of the
    edge count and of |S_M|, the vertices in clusters larger than M, for
    the random-cluster kernels; eigenvector sweep cuts; one state of a
    class), then greedy descent from the best cut found. Above 4096
    classes the sweep family is skipped.

    This is an upper bound on the true Cheeger constant: exhausting all
    bipartitions is possible only for tiny spaces (see exhaustive_min_ratio).
    """
    count = chain.sizes.size
    cuts: list[np.ndarray] = []
    if isinstance(chain, KernelTable) and chain.kind in ("cm", "glauber"):
        n = chain.measure.n
        labels, _, ecnt = mask_partition_table(n)
        cuts.extend(ecnt <= t for t in range(num_pairs(n)))
        cluster_size = (labels[:, :, None] == labels[:, None, :]).sum(axis=2)
        for m_thr in range(1, n):
            sm = (cluster_size > m_thr).sum(axis=1)
            cuts.extend(sm <= t for t in range(n))
    if count <= _SWEEP_CLASSES_MAX:
        cuts.extend(sweep_cuts(chain))
    singletons = (np.arange(count) == a for a in range(count))
    _, best = _first_least(chain, itertools.chain(cuts, singletons))
    return _refine_cut(chain, best)


def exhaustive_min_ratio(chain: Chain) -> tuple[float, np.ndarray]:
    """True Cheeger constant. A cut's ratio depends only on its class
    counts, so every count vector on the support of pi is scored, once
    with its complement; the classes off it stay in S^c. That is at most
    2^(N-1) cuts for N states, so the guard is tight."""
    states = int(chain.sizes.sum())
    if states > 16:
        raise ValueError(f"exhaustive cuts limited to 16 states, got {states}")
    lead = _support(chain)[::-1]
    # of a cut and its complement, the one less from the last class is scored
    full = chain.sizes[lead].tolist()
    digits = [d for d in itertools.product(*(range(s + 1) for s in full))
              if list(d) <= [s - c for s, c in zip(full, d)]]
    cuts = np.zeros((len(digits), chain.sizes.size))
    cuts[:, lead] = digits
    return _first_least(chain, cuts)


def min_conductance(chain: Chain) -> tuple[float, str]:
    """Min bottleneck ratio phi of Q(S, S^c)/(pi(S) pi(S^c)): exhaustive ("exact")
    to 16 states, cut families ("family", an upper bound) beyond. gap <= phi for
    every cut; Cheeger gives only phi^2/8 <= gap here, so phi^2/2 <= gap (held
    on every kernel scanned) is stronger than the theorem, not certified."""
    if chain.sizes.sum() <= 16:
        return exhaustive_min_ratio(chain)[0], "exact"
    return min_bottleneck_ratio(chain)[0], "family"


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
    _edge_probability(n, lam)  # the measure alone would take n = 0
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
        axes = [_submasks(np.flatnonzero((c[pu] == i) & (c[pv] == i)))
                for i in range(w.size)]
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
    q = integer_q(q, 1, "es_coupling_check")
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
