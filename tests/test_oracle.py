import dataclasses
import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mcd import oracle
from mcd.indexing import all_pairs, num_pairs
from mcd.model import EdgeConfig, cluster_decompose
from mcd.oracle import (
    Chain,
    KernelTable,
    MeasureTable,
    _mono_masks,
    _percolation_factor,
    _recolor_factor,
    bgj_coloring_check,
    bottleneck_ratio,
    build_kernel,
    detailed_balance_violation,
    dump_kernel_csv,
    edge_mask,
    edges_from_mask,
    enumerate_fk_measure,
    enumerate_potts_measure,
    es_coupling_check,
    exhaustive_min_ratio,
    iterated_coloring_check,
    mask_partition_table,
    min_bottleneck_ratio,
    min_conductance,
    mixing_time_exact,
    spectral_gap,
    spin_code,
    spin_from_code,
    stationarity_residual,
    sweep_cuts,
    tv_distance,
)


# ---------------------------------------------------------------------------
# codecs and the partition table

@given(st.integers(2, 6), st.integers(2, 4), st.integers(0, 2 ** 31))
@settings(max_examples=50, deadline=None)
def test_spin_codec_roundtrip(n, q, seed):
    colors = np.random.default_rng(seed).integers(1, q + 1, n)
    code = spin_code(colors, q)
    assert 0 <= code < q ** n
    assert np.array_equal(spin_from_code(code, n, q), colors)


@given(st.integers(2, 6), st.integers(0, 2 ** 31))
@settings(max_examples=50, deadline=None)
def test_edge_codec_roundtrip(n, seed):
    total = n * (n - 1) // 2
    mask = int(np.random.default_rng(seed).integers(0, 2 ** total))
    edges = edges_from_mask(mask, n)
    assert edge_mask(edges) == mask
    EdgeConfig(n=n, pairs=edges.pairs)


def test_partition_table_triangle():
    labels, kcnt, ecnt = mask_partition_table(3)
    assert kcnt.tolist() == [3, 2, 2, 1, 2, 1, 1, 1]
    assert ecnt.tolist() == [0, 1, 1, 2, 1, 2, 2, 3]
    # full mask: one cluster containing vertex 0
    assert labels[7].tolist() == [0, 0, 0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_partition_table_matches_cluster_decompose(n):
    labels, kcnt, ecnt = mask_partition_table(n)
    for mask in range(labels.shape[0]):
        edges = edges_from_mask(mask, n)
        part = cluster_decompose(edges)
        assert np.array_equal(labels[mask], part.assignment)
        assert kcnt[mask] == part.cluster_count
        assert ecnt[mask] == edges.edge_count


# ---------------------------------------------------------------------------
# measures

def test_fk_measure_with_one_color_is_bernoulli_product():
    lam = 1.2
    table = enumerate_fk_measure(3, lam, 1.0)
    p = lam / 3
    _, _, ecnt = mask_partition_table(3)
    expected = p ** ecnt * (1 - p) ** (3 - ecnt)
    assert np.allclose(table.probs, expected, atol=1e-14)


def test_fk_measure_triangle_ising_by_hand():
    lam, q = 1.0, 2.0
    p = lam / 3
    weights = []
    for mask in range(8):
        e = bin(mask).count("1")
        k = {0: 3, 1: 2, 2: 2, 4: 2, 3: 1, 5: 1, 6: 1, 7: 1}[mask]
        weights.append(p ** e * (1 - p) ** (3 - e) * q ** k)
    expected = np.array(weights) / sum(weights)
    table = enumerate_fk_measure(3, lam, q)
    assert np.allclose(table.probs, expected, atol=1e-14)


def test_potts_measure_color_symmetry():
    table = enumerate_potts_measure(3, 3, 1.5)
    probs = table.probs
    # swapping colors 1 and 2 on every vertex permutes states, not weights
    for code in range(27):
        colors = spin_from_code(code, 3, 3)
        swapped = colors.copy()
        swapped[colors == 1], swapped[colors == 2] = 2, 1
        assert probs[code] == pytest.approx(
            probs[spin_code(swapped, 3)], abs=1e-15)


def test_es_coupling_small():
    dev = max(es_coupling_check(3, 1.0, 2))
    assert dev < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_bgj_check_with_one_class_always_empty(alpha):
    assert bgj_coloring_check(4, 1.0, 3.0, alpha) < 1e-12


def test_iterated_check_at_integer_q_has_an_empty_remainder_class():
    assert iterated_coloring_check(4, 1.0, 3.0) < 1e-12


@pytest.mark.parametrize("source,check", [
    ((4, 1.0, 3.0), lambda: bgj_coloring_check(4, 1.0, 3.0, 1 / 3)),
    ((4, 1.0, 3.5), lambda: iterated_coloring_check(4, 1.0, 3.5)),
], ids=["bgj", "iterated"])
def test_coloring_checks_detect_a_wrong_source_measure(source, check,
                                                       monkeypatch):
    # the measure the clusters are colored from uses q * 1.001; the class
    # references keep their exact weights, so the restrictions must miss
    exact = oracle.enumerate_fk_measure

    def skewed(n, lam, q):
        return exact(n, lam, q * 1.001 if (n, lam, q) == source else q)

    monkeypatch.setattr(oracle, "enumerate_fk_measure", skewed)
    assert check() > 1e-4


# ---------------------------------------------------------------------------
# kernels (small fast instances; the graded grid runs in the acceptance suite)

@pytest.mark.parametrize("kind,n,q", [("sw", 3, 3.0), ("cm", 3, 2.5),
                                      ("glauber", 3, 2.0)])
def test_kernel_rows_are_stochastic(kind, n, q):
    kernel = build_kernel(kind, n, q, 1.5)
    rows = np.asarray(kernel.P.sum(axis=1)).ravel()
    assert np.allclose(rows, 1.0, atol=1e-12)
    assert stationarity_residual(kernel) < 1e-12


@pytest.mark.parametrize("kind", ["sw", "cm", "glauber"])
def test_one_vertex_kernels(kind):
    # no pair to open: every chain mixes in one step
    kernel = build_kernel(kind, 1, 2.0, 0.5)
    rows = np.asarray(kernel.P.sum(axis=1)).ravel()
    assert np.allclose(rows, 1.0, atol=1e-15)
    assert stationarity_residual(kernel) == 0.0
    assert detailed_balance_violation(kernel) == 0.0
    assert spectral_gap(kernel) == 1.0


def test_sw_kernel_matches_the_two_step_definition():
    # one SW step by its definition, one coloring and one open set at a
    # time: keep each monochromatic pair with probability p, then give each
    # cluster a uniform color
    n, q, lam = 4, 3, 1.7
    p = lam / n
    pu, pv = all_pairs(n)
    labels, _, _ = mask_partition_table(n)
    ref = np.zeros((q ** n, q ** n))
    for s in range(q ** n):
        colors = spin_from_code(s, n, q)
        mono = sum(1 << b for b in range(len(pu)) if colors[pu[b]] == colors[pv[b]])
        for omega in range(1 << len(pu)):
            if omega & ~mono:
                continue
            e, t = bin(omega).count("1"), bin(mono).count("1")
            roots = np.unique(labels[omega])
            for cluster_colors in itertools.product(range(1, q + 1),
                                                    repeat=roots.size):
                new = np.array(cluster_colors)[np.searchsorted(roots, labels[omega])]
                ref[s, spin_code(new, q)] += p ** e * (1 - p) ** (t - e) / q ** roots.size
    P = build_kernel("sw", n, q, lam).P
    assert P.has_canonical_format
    assert np.abs(P.toarray() - ref).max() < 1e-14



@pytest.mark.parametrize("n,q,lam", [(3, 1.5, 1.0), (3, 2.5, 2.0),
                                     (4, 1.5, 2.0), (4, 2.5, 1.0)])
def test_cm_kernel_matches_the_step_definition(n, q, lam):
    # one CM step by its definition, one state, one activation and one
    # resampled set at a time: activate each cluster with probability 1/q,
    # then resample every pair inside the active clusters with probability p
    p = lam / n
    pu, pv = all_pairs(n)
    labels, _, _ = mask_partition_table(n)
    terms = {}
    for s in range(1 << len(pu)):
        roots = np.unique(labels[s])
        for active in itertools.product((False, True), repeat=roots.size):
            a = sum(active)
            w = (1 / q) ** a * (1 - 1 / q) ** (roots.size - a)
            in_v = np.isin(labels[s], roots[list(active)])
            inside = [b for b in range(len(pu)) if in_v[pu[b]] and in_v[pv[b]]]
            kept = s & ~sum(1 << b for b in inside)
            for bits in itertools.product((0, 1), repeat=len(inside)):
                e = sum(bits)
                y = kept | sum(1 << b for b, x in zip(inside, bits) if x)
                terms.setdefault((s, y), []).append(
                    w * p ** e * (1 - p) ** (len(inside) - e))
    ref = np.zeros((1 << len(pu), 1 << len(pu)))
    for (s, y), ts in terms.items():
        ref[s, y] = math.fsum(ts)
    P = build_kernel("cm", n, q, lam).P
    assert P.has_canonical_format
    assert np.abs(P.toarray() - ref).max() <= 1e-15


@pytest.mark.parametrize("n,q,lam", [(3, 2, 1.0), (3, 3, 1.0), (3, 3, 2.0),
                                     (3, 3, 1.5), (4, 3, 1.7), (5, 3, 2.0),
                                     (6, 3, 1.0)])
def test_sw_kernel_expands_to_the_full_factor_product(n, q, lam):
    # the product of the two factors over every target coloring, one row
    # per monochromatic pair mask, gathered per coloring
    masks, inv = np.unique(_mono_masks(n, q), return_inverse=True)
    rows = (_percolation_factor(masks, n, lam / n).astype(np.longdouble)
            @ _recolor_factor(n, q).astype(np.longdouble)).astype(np.float64)
    ref = rows[inv]
    ref.sort_indices()
    P = build_kernel("sw", n, q, lam).P
    assert P.has_canonical_format
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(P, attr), getattr(ref, attr))


def _dense_symmetrized(kernel):
    s = np.sqrt(kernel.measure.probs)
    m = s[:, None] * kernel.P.toarray() / s[None, :]
    return 0.5 * (m + m.T)


@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("n,q", [(3, 2), (4, 3), (5, 3)])
def test_sw_class_form_matches_the_per_state_kernel(n, q, lam):
    kernel = build_kernel("sw", n, q, lam)
    assert kernel.K.shape[0] < kernel.size
    P, pi = kernel.P.toarray(), kernel.measure.probs
    assert np.abs(pi @ P - pi).sum() < 1e-12
    assert stationarity_residual(kernel) < 1e-12
    f = pi[:, None] * P
    assert detailed_balance_violation(kernel) == np.abs(f - f.T).max()
    gap = 1.0 - np.linalg.eigvalsh(_dense_symmetrized(kernel))[-2]
    assert spectral_gap(kernel) == pytest.approx(gap, abs=1e-12)


def test_sw_gap_at_n6_q4():
    kernel = build_kernel("sw", 6, 4, 1.0)
    assert kernel.K.shape == (187, 187)
    assert spectral_gap(kernel) == pytest.approx(0.7912704160365236, abs=1e-12)


def test_gap_counts_the_zero_eigenvalues_of_the_expansion():
    # P = [[0, 1/2, 1/2], [1, 0, 0], [1, 0, 0]] has spectrum {1, 0, -1};
    # its class kernel K C = [[0, 1], [1, 0]] alone has {1, -1}
    K = sp.csr_matrix(np.array([[0.0, 0.5], [1.0, 0.0]]))
    chain = Chain(K, np.array([0.5, 0.25]), np.array([1, 2]))
    assert spectral_gap(chain) == 1.0
    P = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    s = np.sqrt([0.5, 0.25, 0.25])
    assert 1.0 - np.linalg.eigvalsh(s[:, None] * P / s)[-2] == pytest.approx(1.0)


def test_class_map_needs_a_constant_measure_on_each_class():
    kernel = build_kernel("sw", 3, 2, 1.0)
    with pytest.raises(ValueError, match="not constant"):
        dataclasses.replace(kernel, classes=np.zeros(kernel.size, dtype=np.intp),
                            K=sp.csr_matrix(np.ones((1, 1))))
    with pytest.raises(ValueError, match="every row"):
        dataclasses.replace(kernel, classes=kernel.classes[:-1])
    with pytest.raises(ValueError, match="every row"):
        dataclasses.replace(kernel, K=kernel.K[:-1, :-1])
    with pytest.raises(ValueError, match="every row"):
        Chain(kernel.K, kernel.pi[:-1], kernel.sizes)
    with pytest.raises(ValueError, match="every row"):
        Chain(kernel.K, kernel.pi, np.zeros_like(kernel.sizes))


def test_kernel_guards():
    with pytest.raises(ValueError):
        build_kernel("sw", 3, 2.5, 1.0)  # non-integer q
    with pytest.raises(ValueError):
        build_kernel("glauber", 12, 2.0, 1.0)  # state space too large
    with pytest.raises(ValueError):
        build_kernel("nope", 3, 2.0, 1.0)


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_real_q_paths_refuse_non_finite_q(q):
    with pytest.raises(ValueError, match="finite"):
        enumerate_fk_measure(3, 1.0, q)
    for kind in ("cm", "glauber"):
        with pytest.raises(ValueError, match="finite"):
            build_kernel(kind, 3, q, 1.0)


def test_glauber_satisfies_detailed_balance_quickly():
    kernel = build_kernel("glauber", 3, 2.0, 1.0)
    assert detailed_balance_violation(kernel) < 1e-15


def test_gap_methods_agree():
    # enough classes for the Lanczos branch, against the dense per-state gap
    for kernel in (build_kernel("glauber", 4, 2.0, 1.0),
                   build_kernel("cm", 4, 2.5, 1.0)):
        assert kernel.K.shape[0] >= 16
        gap = 1.0 - np.linalg.eigvalsh(_dense_symmetrized(kernel))[-2]
        assert spectral_gap(kernel) == pytest.approx(gap, abs=1e-10)


def test_single_color_heat_bath_has_unit_gap():
    # q = 1 removes all interaction: the chain resamples edges independently
    kernel = build_kernel("cm", 3, 1.0, 1.5)
    assert spectral_gap(kernel) == pytest.approx(1.0, abs=1e-10)


def test_mixing_time_is_minimal_threshold_time():
    kernel = build_kernel("glauber", 3, 2.0, 1.0)
    t = mixing_time_exact(kernel)
    assert isinstance(t, int) and t >= 1


def test_mixing_time_guards_the_classes_not_the_states():
    # 10^4 colorings lump to 15 classes; only a dense class power is taken
    kernel = build_kernel("sw", 4, 10, 1.0)
    assert kernel.size == 10 ** 4 and kernel.K.shape == (15, 15)
    assert mixing_time_exact(kernel) == 2
    big = Chain(sp.identity(4097, format="csr"), np.full(4097, 1 / 4097),
                np.ones(4097, dtype=np.int64))
    with pytest.raises(ValueError, match="4096 classes"):
        mixing_time_exact(big)


@pytest.mark.parametrize("kind,n,q", [("sw", 3, 3.0), ("sw", 4, 3.0),
                                      ("glauber", 3, 2.0), ("glauber", 4, 2.0)])
def test_mixing_time_matches_the_per_state_powers(kind, n, q):
    kernel = build_kernel(kind, n, q, 1.5)
    p0, pi = kernel.P.toarray(), kernel.measure.probs
    m, t = p0, 1
    while 0.5 * np.abs(m - pi).sum(axis=1).max() >= 1.0 / (2.0 * math.e):
        m, t = m @ p0, t + 1
    assert mixing_time_exact(kernel) == t


@pytest.mark.parametrize("kind,n,q", [("glauber", 4, 2.0), ("sw", 5, 3.0)])
def test_lanczos_gap_repeats_exactly(kind, n, q):
    gaps = {spectral_gap(build_kernel(kind, n, q, 1.0)) for _ in range(3)}
    assert len(gaps) == 1


@pytest.mark.parametrize("lam", [0.5, 2.0, 3.9])
@pytest.mark.parametrize("kind,q", [("glauber", 1.5), ("glauber", 4.0),
                                    ("cm", 1.5), ("cm", 2.5)])
def test_lanczos_gap_matches_dense_at_n5(kind, q, lam):
    kernel = build_kernel(kind, 5, q, lam)
    assert kernel.K.shape[0] == 1024
    gap = 1.0 - np.linalg.eigvalsh(_dense_symmetrized(kernel))[-2]
    assert spectral_gap(kernel) == pytest.approx(gap, abs=1e-12)


# ---------------------------------------------------------------------------
# kernel storage

def _outputs(kernel):
    """What the oracle returns on a kernel, as the reprs it prints."""
    return [repr(check(kernel)) for check in (
        stationarity_residual, detailed_balance_violation, spectral_gap,
        mixing_time_exact)]


@pytest.mark.parametrize("kind,n,q,lam", [
    ("sw", 3, 2, 1.0), ("sw", 4, 3, 2.5), ("sw", 5, 2, 0.5), ("sw", 5, 3, 2.0),
    ("cm", 3, 1.0, 0.0), ("cm", 4, 1.5, 3.5), ("cm", 4, 2.5, 1.0),
    ("cm", 5, 2.5, 1.0), ("cm", 5, 4.0, 3.0)])
def test_dense_and_csr_class_kernels_agree_bit_for_bit(kind, n, q, lam):
    # the full kernels are dense; handed in as CSR they take the sparse
    # path, where `*` would be a matrix product. At cm q = 1, lam = 0 the
    # measure is zero off the empty graph, so the gap is that of the one
    # class of positive measure in either storage
    dense = build_kernel(kind, n, q, lam)
    assert isinstance(dense.K, np.ndarray)
    csr = dataclasses.replace(dense, K=sp.csr_matrix(dense.K))
    assert _outputs(csr) == _outputs(dense)
    assert dense.P.has_canonical_format
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(csr.P, attr), getattr(dense.P, attr))


def _glauber_coo(n, q, lam):
    """The heat-bath kernel as one COO entry per pair and direction, with
    the duplicates (the diagonal) summed by scipy."""
    p, c = lam / n, num_pairs(n)
    pu, pv = all_pairs(n)
    labels, _, _ = mask_partition_table(n)
    states = np.arange(1 << c)
    rows, cols, vals = [], [], []
    for b in range(c):
        wo = states & ~(1 << b)
        r = np.where(labels[wo, pu[b]] == labels[wo, pv[b]],
                     p, p / (p + q * (1.0 - p)))
        rows += [states, states]
        cols += [states | (1 << b), wo]
        vals += [r / c, (1.0 - r) / c]
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(1 << c, 1 << c)).tocsr()


@pytest.mark.parametrize("n,q,lam", [(2, 2.0, 1.0), (3, 0.5, 2.5), (4, 2.0, 1.0),
                                     (4, 3.0, 0.0), (5, 2.0, 1.0), (5, 4.0, 4.5),
                                     (6, 2.0, 1.0), (6, 1.5, 5.5)])
def test_glauber_csr_is_canonical_and_matches_the_coo_sum(n, q, lam):
    K = build_kernel("glauber", n, q, lam).K
    ref = _glauber_coo(n, q, lam)
    width = num_pairs(n) + 1
    # every row holds its width entries, in strictly increasing columns
    assert np.array_equal(K.indptr, np.arange(0, K.shape[0] * width + 1, width))
    assert (np.diff(K.indices.reshape(-1, width), axis=1) > 0).all()
    assert np.abs(np.add.reduceat(K.data, K.indptr[:-1]) - 1.0).max() <= 1e-15
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)
    if n <= 4:  # scipy sums each short row's duplicates in pair order
        assert np.array_equal(K.data, ref.data)
    else:
        assert np.abs(K.data - ref.data).max() <= 1e-15


# the oracle's values: residual, violation and t_mix as taken when every
# kernel was held in CSR, the gaps as the deflated Lanczos recurrence takes
# them; a change of storage or of summation order that moves them shows here
ORACLE_PINS = {
    ("sw", 5, 3.0, 2.0): ["3.421742056364252e-16", "3.2526065174565133e-19",
                          "0.4517465029219786", "3"],
    ("cm", 4, 1.5, 3.5): ["1.321845736167171e-16", "6.938893903907228e-18",
                          "0.438470473987021", "4"],
    ("cm", 5, 2.5, 1.0): ["6.178600758465935e-15", "2.6020852139652106e-18",
                          "0.31459148192306463", "6"],
    ("glauber", 4, 2.0, 1.0): ["1.5600314009350802e-16", "5.204170427930421e-18",
                               "0.15290765046736088", "15"],
}


@pytest.mark.parametrize("case", list(ORACLE_PINS), ids=lambda c: f"{c[0]}-{c[1]}")
def test_oracle_values_are_pinned(case):
    got = _outputs(build_kernel(*case))
    assert got == ORACLE_PINS[case], f"{got} under numpy {np.__version__}"


@pytest.mark.parametrize("case", list(ORACLE_PINS), ids=lambda c: f"{c[0]}-{c[1]}")
def test_the_checks_read_only_the_chain(case):
    # the class kernel, pi and the sizes alone, with no class map or
    # enumerated measure, give the same values
    k = build_kernel(*case)
    got = _outputs(Chain(k.K, k.pi, k.sizes))
    assert got == ORACLE_PINS[case], f"{got} under numpy {np.__version__}"


def _uniform_chain(K):
    count = K.shape[0]
    return Chain(K, np.full(count, 1.0 / count), np.ones(count, dtype=np.int64))


def _cycle_kernel(count):
    # a lazy walk one step around a cycle: the uniform law is stationary,
    # but every forward flow 1/(2 count) has no backward flow
    return _uniform_chain(sp.csr_matrix(
        0.5 * (np.eye(count) + np.roll(np.eye(count), 1, axis=1))))


def test_gap_refuses_a_kernel_without_detailed_balance():
    kernel = _cycle_kernel(16)
    assert stationarity_residual(kernel) < 1e-15
    with pytest.raises(ValueError, match="reversible"):
        spectral_gap(kernel)
    # asking for the violation first must not turn the refusal into a pass
    kernel = _cycle_kernel(16)
    assert detailed_balance_violation(kernel) == 1.0 / 32
    with pytest.raises(ValueError, match="reversible"):
        spectral_gap(kernel)
    # a replaced K gets its own violation, in both directions
    lazy = dataclasses.replace(kernel, K=0.5 * (kernel.K + kernel.K.T).tocsr())
    assert detailed_balance_violation(lazy) == 0.0
    assert spectral_gap(lazy) == pytest.approx(0.5 * (1.0 - math.cos(math.pi / 8)),
                                               abs=1e-12)
    with pytest.raises(ValueError, match="reversible"):
        spectral_gap(dataclasses.replace(lazy, K=kernel.K))


def test_gap_of_a_reducible_kernel_is_zero():
    # two disjoint lazy reversible 16-cycles: the indicator of one cycle,
    # centred, is a second eigenvector of eigenvalue 1 orthogonal to sqrt(pi)
    cycle = np.roll(np.eye(16), 1, axis=1)
    block = 0.5 * np.eye(16) + 0.25 * (cycle + cycle.T)
    K = sp.csr_matrix(sp.block_diag([block, block]))
    kernel = _uniform_chain(K)
    assert detailed_balance_violation(kernel) == 0.0
    assert abs(spectral_gap(kernel)) <= 1e-12
    dense = dataclasses.replace(kernel, K=K.toarray())
    assert abs(spectral_gap(dense)) <= 1e-12


@pytest.mark.parametrize("kind", ["glauber", "cm"])
@pytest.mark.parametrize("n", [3, 4])
def test_gap_is_taken_on_the_support_of_pi(kind, n):
    # at lam = 0 the measure sits on the empty graph, which every step
    # keeps; classes of measure zero would put 0 * inf into the
    # symmetrization, in both the dense (n = 3) and Lanczos (n = 4) sizes
    kernel = build_kernel(kind, n, 2.0, 0.0)
    assert (kernel.pi > 0).sum() == 1
    assert spectral_gap(kernel) == 1.0


def test_lanczos_refuses_to_return_an_unconverged_value(monkeypatch):
    monkeypatch.setattr(oracle, "_LANCZOS_TOL", -1.0)
    with pytest.raises(RuntimeError, match="did not converge"):
        spectral_gap(build_kernel("glauber", 4, 2.0, 1.0))


def test_top_ritz_matches_the_scipy_wrapper_bit_for_bit():
    rng = np.random.default_rng(23)
    for j in range(81):
        alpha, beta = rng.uniform(-1.0, 1.0, j + 1), rng.uniform(0.0, 1.0, j)
        theta, y = scipy.linalg.eigh_tridiagonal(alpha, beta, select="i",
                                                 select_range=(j, j))
        assert oracle._top_ritz(alpha, beta) == (theta[0], y[-1, 0])


@pytest.mark.parametrize("where", ["alpha", "beta"])
def test_top_ritz_refuses_non_finite_coefficients(where):
    alpha, beta = np.full(4, 0.5), np.full(3, 0.25)
    {"alpha": alpha, "beta": beta}[where][1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        oracle._top_ritz(alpha, beta)
    with pytest.raises(ValueError, match="finite"):
        oracle._top_ritz(np.array([np.nan]), np.empty(0))


@pytest.mark.parametrize("count", [1, oracle._TILE - 1, oracle._TILE, oracle._TILE + 1,
                                   2 * oracle._TILE + 3, 1024])
@pytest.mark.parametrize("op", [np.add, np.subtract])
def test_tiled_transpose_matches_the_full_copy(count, op):
    m = np.random.default_rng(count).uniform(-1.0, 1.0, (count, count))
    ref = op(m, m.T.copy())
    out = oracle._with_transpose(m, op)
    assert out is m
    assert np.array_equal(out, ref)


def test_asymmetric_csr_takes_the_sparse_sum():
    m = sp.csr_matrix(np.triu(np.arange(1.0, 17.0).reshape(4, 4)))
    ref = (m - m.T).toarray()
    out = oracle._with_transpose(m.copy(), np.subtract)
    assert sp.issparse(out)
    assert np.array_equal(out.toarray(), ref)


@pytest.mark.parametrize("n,lam", [(4, 1.0), (3, 0.0)])
def test_checks_leave_a_csr_kernel_unchanged(n, lam):
    # _scaled shares K's pattern arrays with its result, so nothing
    # downstream may write to them; at lam = 0 the gap cuts K to the
    # support of pi first
    kernel = build_kernel("glauber", n, 2.0, lam)
    K = kernel.K
    before = [a.copy() for a in (K.data, K.indices, K.indptr)]
    detailed_balance_violation(kernel)
    spectral_gap(kernel)
    for a, b in zip((K.data, K.indices, K.indptr), before):
        assert np.array_equal(a, b)


def _kernel_arrays(kernel):
    K = kernel.K
    stored = [K.data, K.indices, K.indptr] if sp.issparse(K) else [K]
    return stored + [kernel.pi, kernel.classes, kernel.measure.probs,
                     np.array(kernel.measure.log_norm)]


def _cached_arrays(value):
    """Every array held in a pattern cache, through nested tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _cached_arrays(item)


def _empty_caches(monkeypatch):
    monkeypatch.setattr(oracle, "_glauber_patterns", {})
    monkeypatch.setattr(oracle, "_sw_patterns", {})


@pytest.mark.parametrize("kind,n,params", [
    ("glauber", 5, [(2.0, 1.0), (0.7, 3.5)]),
    ("sw", 4, [(3, 1.0), (2, 2.5), (3, 2.5)])])
def test_kernels_built_on_a_cached_pattern_equal_fresh_builds(kind, n, params,
                                                              monkeypatch):
    # a build on the pattern an earlier (q, lam) left behind equals a
    # build from empty caches, bit for bit, in either order
    refs = {}
    for qa in params:
        _empty_caches(monkeypatch)
        refs[qa] = _kernel_arrays(build_kernel(kind, n, *qa))
    for order in (params, params[::-1]):
        _empty_caches(monkeypatch)
        for qa in order:
            got = _kernel_arrays(build_kernel(kind, n, *qa))
            for a, b in zip(got, refs[qa], strict=True):
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()


def test_cached_patterns_refuse_writes(monkeypatch):
    _empty_caches(monkeypatch)
    kernel = build_kernel("glauber", 4, 2.0, 1.0)
    build_kernel("sw", 4, 3, 1.0)
    held = list(_cached_arrays([*oracle._glauber_patterns.values(),
                                *oracle._sw_patterns.values()]))
    assert held
    for a in held:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]
    # a glauber kernel holds the cached pattern itself
    with pytest.raises(ValueError, match="read-only"):
        kernel.K.indices[0] = 0


def test_sw_pattern_cache_keeps_its_last_keys(monkeypatch):
    _empty_caches(monkeypatch)
    last = oracle._SW_PATTERNS_MAX + 4
    for q in range(2, last):
        build_kernel("sw", 1, q, 0.5)
    assert list(oracle._sw_patterns) == [(1, q) for q in range(4, last)]


def test_cached_patterns_stay_small(monkeypatch):
    # every kind at every (n, q) the suite builds, up to n = 6
    _empty_caches(monkeypatch)
    for n in range(1, 7):
        build_kernel("glauber", n, 2.0, 0.5)
        build_kernel("cm", min(n, 5), 2.0, 0.5)
    for n, q in [(1, 2), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4),
                 (4, 10), (5, 2), (5, 3), (5, 4), (6, 2), (6, 3), (6, 4)]:
        build_kernel("sw", n, q, 0.5)
    assert len(oracle._sw_patterns) == 14
    held = _cached_arrays([*oracle._glauber_patterns.values(),
                           *oracle._sw_patterns.values()])
    assert sum(a.nbytes for a in held) < 6e6


# ---------------------------------------------------------------------------
# conductance machinery

def test_bottleneck_ratio_is_complement_symmetric():
    kernel = build_kernel("glauber", 3, 2.0, 1.0)
    subset = np.zeros(kernel.size, dtype=bool)
    subset[[0, 3, 5]] = True
    assert bottleneck_ratio(kernel, subset) == pytest.approx(
        bottleneck_ratio(kernel, ~subset), abs=1e-14)


def test_family_minimum_upper_bounds_exhaustive_minimum():
    kernel = build_kernel("glauber", 3, 2.0, 1.0)
    phi_exact, cut = exhaustive_min_ratio(kernel)
    phi_family, _ = min_bottleneck_ratio(kernel)
    assert phi_family >= phi_exact - 1e-14
    gap = spectral_gap(kernel)
    # exact conductance satisfies both sides of the spectral sandwich
    assert phi_exact ** 2 / 2 <= gap + 1e-12
    assert gap <= 2 * phi_exact + 1e-12
    assert 0 < cut.sum() < kernel.size


def test_sweep_cuts_are_proper_subsets():
    kernel = build_kernel("glauber", 3, 2.0, 1.0)
    for cut in sweep_cuts(kernel):
        assert 0 < cut.sum() < kernel.size


@pytest.mark.parametrize("n", [3, 4])
def test_cuts_need_two_states_in_the_support_of_pi(n):
    # at lam = 0 the measure sits on the empty graph alone: no cut has
    # 0 < pi(S) < 1, in the exhaustive (n = 3) and family (n = 4) sizes
    kernel = build_kernel("glauber", n, 2.0, 0.0)
    routines = [sweep_cuts, min_bottleneck_ratio, min_conductance]
    if n == 3:
        routines.append(exhaustive_min_ratio)
    for routine in routines:
        with pytest.raises(ValueError, match="support of pi"):
            routine(kernel)
    cut = np.zeros(kernel.size, dtype=bool)
    cut[1:] = True
    with pytest.raises(ValueError, match="0 < pi"):
        bottleneck_ratio(kernel, cut)


def test_cuts_are_taken_on_the_support_of_pi():
    # state 2 has measure zero and carries no flow; the one cut of the
    # support {0, 1} has Q = 1/4 and pi(S) pi(S^c) = 1/4
    K = sp.csr_matrix(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0],
                                [0.5, 0.0, 0.5]]))
    measure = MeasureTable(3, np.array([0.5, 0.5, 0.0]), 0.0)
    kernel = KernelTable(K, "toy", np.arange(3), measure)
    cuts = sweep_cuts(kernel)
    assert len(cuts) == 1 and not cuts[0][2]
    for ratio, cut in (exhaustive_min_ratio(kernel), min_bottleneck_ratio(kernel)):
        assert ratio == 1.0
        assert cut.tolist() in ([False, True, False], [True, False, False])
    assert min_conductance(kernel) == (1.0, "exact")


def test_cut_masses_keep_a_side_below_the_rounding_of_one():
    # pi(0) = 1e-18, so 1 - pi({1, 2}) is exactly 0; the lighter side's
    # own mass gives Q/(pi(S) pi(S^c)) = (0.5 * 1e-18)/1e-18 = 0.5 for the
    # cut {0} | {1, 2}, and the other two cuts have ratio 1
    K = np.array([[0.5, 0.5, 0.0], [1e-18, 0.5, 0.5], [0.0, 0.5, 0.5]])
    measure = MeasureTable(3, np.array([1e-18, 0.5, 0.5]), 0.0)
    kernel = KernelTable(sp.csr_matrix(K), "toy", np.arange(3), measure)
    assert measure.probs[1:].sum() == 1.0
    light = np.array([True, False, False])
    assert bottleneck_ratio(kernel, light) == 0.5
    assert bottleneck_ratio(kernel, ~light) == 0.5
    for ratio, cut in (exhaustive_min_ratio(kernel),
                       min_bottleneck_ratio(kernel)):
        assert ratio == 0.5
        assert cut.tolist() in ([True, False, False], [False, True, True])
    assert min_conductance(kernel) == (0.5, "exact")


def _state_flow(kernel, mask):
    """Q(S, S^c) and pi(S) pi(S^c) of a state mask, summed from the
    per-state kernel."""
    pi, P = kernel.measure.probs, kernel.P.toarray()
    return pi[mask] @ P[mask][:, ~mask].sum(axis=1), pi[mask].sum() * pi[~mask].sum()


@pytest.mark.parametrize("kind,n,q", [("sw", 3, 2), ("sw", 3, 3), ("sw", 4, 2),
                                      ("sw", 4, 3), ("cm", 4, 2.0),
                                      ("glauber", 4, 2.0)])
def test_class_form_cut_equals_the_per_state_flow(kind, n, q):
    kernel = build_kernel(kind, n, q, 1.5)
    rng = np.random.default_rng(7)
    split = 0
    for _ in range(20):
        mask = rng.random(kernel.size) < rng.uniform(0.1, 0.9)
        if mask.all() or not mask.any():
            continue
        inside = np.bincount(kernel.classes, weights=mask,
                             minlength=kernel.sizes.size)
        split += ((0 < inside) & (inside < kernel.sizes)).any()
        flow, mass = _state_flow(kernel, mask)
        # the class form of Q that the cut scorer sums
        q_class = (inside * kernel.pi) @ (kernel.K @ (kernel.sizes - inside))
        assert q_class == pytest.approx(flow, rel=1e-14)
        assert bottleneck_ratio(kernel, inside) == pytest.approx(flow / mass,
                                                                 rel=1e-14)
    assert split > 0 if kind == "sw" else split == 0


@pytest.mark.parametrize("kind,n,q", [("sw", 4, 2), ("glauber", 3, 2.0)])
def test_exhaustive_count_vectors_equal_every_state_subset(kind, n, q):
    kernel = build_kernel(kind, n, q, 1.0)
    assert kernel.size <= 16
    pi, P = kernel.measure.probs, kernel.P.toarray()
    masks = (np.arange(1, 2 ** kernel.size - 1)[:, None]
             >> np.arange(kernel.size)) & 1 == 1
    flows = ((masks * pi) @ P * ~masks).sum(axis=1)
    masses = (masks * pi).sum(axis=1) * (~masks * pi).sum(axis=1)
    brute = (flows / masses).min()
    phi, cut = exhaustive_min_ratio(kernel)
    assert phi == pytest.approx(brute, rel=1e-14)
    assert phi == bottleneck_ratio(kernel, cut)
    chain = Chain(kernel.K, kernel.pi, kernel.sizes)
    assert min_conductance(chain) == min_conductance(kernel) == (phi, "exact")
    # the family search, on the class form alone, stays above the minimum
    family = min_bottleneck_ratio(chain)[0]
    assert family >= phi - 1e-14
    if kind == "sw":  # the random-cluster families are for cm and glauber
        assert family == min_bottleneck_ratio(kernel)[0]


def test_cut_search_never_expands_p():
    # 10^4 and 4096 states in 15 and 187 classes
    for n, q in ((4, 10), (6, 4)):
        kernel = build_kernel("sw", n, q, 1.0)
        phi, label = min_conductance(kernel)
        assert "P" not in vars(kernel)
        assert label == "family" and spectral_gap(kernel) <= phi


def test_cut_search_skips_the_sweep_family_above_its_limit(monkeypatch):
    kernel = build_kernel("glauber", 4, 2.0, 1.0)
    monkeypatch.setattr(oracle, "_SWEEP_CLASSES_MAX", kernel.size - 1)
    with pytest.raises(ValueError, match="sweep cuts limited"):
        sweep_cuts(kernel)
    ratio, cut = min_bottleneck_ratio(kernel)
    assert ratio == bottleneck_ratio(kernel, cut)
    assert ratio >= spectral_gap(kernel)


def test_tv_distance_basics():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([0.0, 0.5, 0.5])
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, q) == pytest.approx(0.5)


def test_dump_kernel_csv(tmp_path):
    kernel = build_kernel("glauber", 3, 2.0, 1.0)
    path = tmp_path / "kernel.csv"
    dump_kernel_csv(kernel, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "state,probability,row"
    assert len(lines) == kernel.size + 1
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_gap_survey_script_runs(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "gap_survey.py"
    spec = importlib.util.spec_from_file_location("gap_survey", path)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    # at lambda = 0.01 the best cuts leave less mass on one side than the
    # rounding of 1
    assert survey.main(["--n", "4", "--q", "2", "--lambdas", "0.01",
                        "--kinds", "glauber,cm"]) == 0
    out = capsys.readouterr().out
    for kind in ("glauber", "cm"):
        assert f"# {kind}  n=4" in out
    assert len([line for line in out.splitlines()
                if line.split()[:1] == ["0.010"]]) == 2
    assert survey.main(["--n", "3", "--q", "2", "--lambdas", "1.0"]) == 0
    out = capsys.readouterr().out
    for kind in ("sw", "cm", "glauber"):
        assert f"# {kind}  n=3" in out
    rows = [line.split() for line in out.splitlines()
            if line.strip() and not line.startswith("#")
            and line.split()[0] != "lambda"]
    # every state space has 8 states, so every cut minimum is exhaustive
    assert len(rows) == 3
    assert all(row[3] == "exact" for row in rows)
    # q that is not an integer skips the sw table, inf included
    for q in ("inf", "2.5"):
        assert survey.main(["--n", "3", "--q", q, "--lambdas", "1",
                            "--kinds", "sw"]) == 0
        assert capsys.readouterr().out == \
            f"# sw: skipped (needs integer q, got {float(q)})\n"
