"""The exact count-level module against brute force and sampling.

At n <= 6 every law is certified to 1e-12 against the enumerated state
spaces of mcd.oracle: the one-step count law against the SW kernel lumped
to counts, the escape-time law against the spin-level absorbing chain, the
stationary count law against the Potts measure, and the connectivity,
component and largest-component laws against the random-cluster measure
at q = 1 (which is G(n, p)), and the weighted peel log_cluster_weight
against the random-cluster normaliser at weight w. Beyond brute force,
connectivity is checked against the subtraction recurrence in
high-precision decimal arithmetic, and E[L1] against batched percolation
draws.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from mcd.countlevel import (
    class_color_laws,
    count_grid,
    escape_time_law,
    exit_probability,
    expected_largest,
    largest_component_cdf,
    log_cluster_weight,
    log_component_law,
    log_connectivity,
    majority_law,
    one_step_law,
    stationary_count_law,
    sw_drift_mean,
)
from mcd.dynamics import _gnp_indices
from mcd.experiments import balanced_spins
from mcd.indexing import num_pairs, pairs_from_indices
from mcd.model import (
    SpinConfig,
    _edge_config_presorted,
    cluster_decompose,
    in_balanced_set,
    is_balanced,
)
from mcd.oracle import (
    _digit_matrix,
    build_kernel,
    enumerate_fk_measure,
    enumerate_potts_measure,
    mask_partition_table,
    spin_code,
)
from mcd.rng import RngStream

LAMBDA_C3 = 4 * math.log(2)
LAMBDAS = [1.0, 2.0, LAMBDA_C3]
SMALL_N = [3, 4, 5, 6]


def _spin_counts(n: int, q: int) -> np.ndarray:
    digits = _digit_matrix(q ** n, q, n)
    return np.stack([(digits == c).sum(axis=1) for c in range(q)], axis=1)


def _gnp_laws(m: int, p: float):
    """Brute-force G(m, p): (P(connected), P(|C(0)| = s), P(L1 <= k))."""
    probs = enumerate_fk_measure(m, p * m, 1.0).probs
    labels, kcnt, _ = mask_partition_table(m)
    sizes = np.stack([np.bincount(row, minlength=m) for row in labels])
    comp0 = np.bincount(sizes[:, 0], weights=probs, minlength=m + 1)
    largest = np.bincount(sizes.max(axis=1), weights=probs, minlength=m + 1)
    return float(probs[kcnt == 1].sum()), comp0, np.cumsum(largest)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("n", SMALL_N)
def test_gnp_laws_match_enumeration(n, lam):
    p = lam / n
    conn, comp0, cdf = _gnp_laws(n, p)
    assert abs(math.exp(log_connectivity(n, p)[n]) - conn) < 1e-12
    assert np.max(np.abs(np.exp(log_component_law(n, p)) - comp0)) < 1e-12
    assert np.max(np.abs(largest_component_cdf([n], p, n + 2)[:n + 1] - cdf)) < 1e-12
    assert largest_component_cdf([n], p, n + 2)[-1] == pytest.approx(1.0, abs=1e-12)


def test_largest_cdf_of_a_union_is_the_product():
    p = 0.4
    cdf2, cdf4 = _gnp_laws(2, p)[2], _gnp_laws(4, p)[2]
    union = largest_component_cdf([2, 4], p, 4)
    want = np.append(cdf2, [1.0, 1.0]) * cdf4
    assert np.max(np.abs(union - want)) < 1e-12


def test_connectivity_matches_high_precision_recurrence():
    # 1 - sum_k C(s-1,k-1) conn(k) (1-p)^(k(s-k)) cancels to ~p^(s-1) s^(s-2):
    # exact in decimal with enough digits, and log_connectivity must agree
    smax = 40
    for p in (0.3, LAMBDA_C3 / 300, 1e-3):
        with localcontext() as ctx:
            ctx.prec = 150
            one_minus = 1 - Decimal(p)
            conn = [Decimal(1), Decimal(1)]
            for s in range(2, smax + 1):
                conn.append(1 - sum(math.comb(s - 1, k - 1) * conn[k]
                                    * one_minus ** (k * (s - k))
                                    for k in range(1, s)))
            want = [float(c.ln()) for c in conn[1:]]
        got = log_connectivity(smax, p)[1:]
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("r", range(7))
@pytest.mark.parametrize("w", [1 / 3, 1 / 2, 1.0, 2.5])
def test_cluster_weight_matches_fk_normaliser(r, w):
    # the FK normaliser sums p^|E| (1-p)^(C-|E|) w^k: exactly E_{G(r,p)}[w^k]
    for p in (0.05, 0.3, LAMBDA_C3 / 6, 0.9):
        want = enumerate_fk_measure(r, p * r, w).log_norm
        assert abs(log_cluster_weight(6, p, w)[r] - want) < 1e-12


def test_component_and_class_laws_are_normalised():
    p = LAMBDA_C3 / 400
    log_conn = log_connectivity(134, p)
    for m in (1, 50, 134):
        assert np.exp(log_component_law(m, p, log_conn)).sum() == pytest.approx(1.0, abs=1e-12)
    for q in (2, 3):
        laws = class_color_laws(134, p, q)
        for m, law in enumerate(laws):
            assert law.shape == (m + 1,) * (q - 1)
            assert law.sum() == pytest.approx(1.0, abs=1e-12)


def test_integral_float_q_is_an_int_and_others_raise():
    counts = [2, 1, 2]
    same = [
        lambda q: count_grid(5, q)[0],
        lambda q: class_color_laws(5, 0.3, q)[5],
        lambda q: one_step_law(counts, 1.5, q),
        lambda q: exit_probability(counts, 1.5, q, 0.2),
        lambda q: escape_time_law(5, 1.5, q, 0.2, 3).survival,
        lambda q: stationary_count_law(5, q, 1.5)[1],
    ]
    for f in same:
        assert np.array_equal(f(3.0), f(3))
        for bad in (2.5, 1):
            with pytest.raises(ValueError, match="integer q >= 2"):
                f(bad)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("n", SMALL_N)
def test_one_step_law_matches_lumped_sw_kernel(n, lam):
    _check_one_step_law(n, 3, lam)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize(("n", "q"), [(n, 2) for n in SMALL_N]
                         + [(n, 4) for n in SMALL_N if n <= 5])
def test_one_step_law_matches_lumped_sw_kernel_other_layouts(n, q, lam):
    # q = 2 and 4 cover the product form's one- and three-axis layouts
    _check_one_step_law(n, q, lam)


def _check_one_step_law(n, q, lam):
    kernel = build_kernel("sw", n, q, lam).P.toarray()
    counts = _spin_counts(n, q)
    grid, valid = count_grid(n, q)
    targets = grid[valid]
    target_of_state = np.array(
        [np.flatnonzero((targets == c).all(axis=1))[0] for c in counts])
    lumped = np.zeros((kernel.shape[0], len(targets)))
    np.add.at(lumped.T, target_of_state, kernel.T)
    for state in range(kernel.shape[0]):
        row = one_step_law(counts[state], lam, q)
        assert np.max(np.abs(row[valid] - lumped[state])) < 1e-12
        assert np.abs(row[~valid]).max(initial=0.0) < 1e-12


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("n", SMALL_N)
def test_stationary_law_matches_potts_measure(n, lam):
    q = 3
    probs = enumerate_potts_measure(n, q, lam).probs
    counts = _spin_counts(n, q)
    vecs, law = stationary_count_law(n, q, lam)
    for vec, want_mass in zip(vecs, law):
        mass = probs[(counts == vec).all(axis=1)].sum()
        assert abs(mass - want_mass) < 1e-12
    majority = np.bincount(counts.max(axis=1), weights=probs, minlength=n + 1)
    assert np.max(np.abs(majority_law(n, q, lam) - majority)) < 1e-12


@pytest.mark.parametrize("lam", LAMBDAS)
def test_escape_law_matches_spin_level_absorbing_chain(lam):
    n, q, rho = 6, 3, 0.2
    kernel = build_kernel("sw", n, q, lam).P.toarray()
    digits = _digit_matrix(q ** n, q, n)
    inside = np.array([in_balanced_set(SpinConfig(colors=d + 1, q=q), rho)
                       for d in digits])
    sub = kernel[np.ix_(inside, inside)]
    start = np.zeros(q ** n)
    start[spin_code(balanced_spins(n, q).colors, q)] = 1.0
    dist = start[inside]
    want = []
    for _ in range(8):
        want.append(dist.sum())
        dist = dist @ sub
    mean = np.linalg.solve(np.eye(sub.shape[0]) - sub, np.ones(sub.shape[0]))
    law = escape_time_law(n, lam, q, rho, 7)
    assert np.max(np.abs(law.survival - want)) < 1e-12
    assert abs(law.mean - mean[start[inside] == 1.0][0]) < 1e-12
    assert law.survival[1] == pytest.approx(
        1 - exit_probability(balanced_spins(n, q).counts, lam, q, rho), abs=1e-15)


@pytest.mark.parametrize("counts, lam, rho", [
    ([7, 6], 1.5, 0.1), ([3, 0, 9], 2.5, 0.2), ([5, 5, 5, 4], 3.0, 0.07),
    ([40, 41, 39], 4 * math.log(2), 0.08), ([12, 0, 0], 0.7, 0.5)])
def test_exit_probability_matches_the_count_grid_formula(counts, lam, rho):
    q = len(counts)
    row = one_step_law(counts, lam, q)
    grid, valid = count_grid(sum(counts), q)
    want = float(row[valid & ~is_balanced(grid, rho)].sum())
    assert exit_probability(counts, lam, q, rho) == want


def test_exit_probability_at_n_1600_is_bit_identical():
    # taken from the full count grid and is_balanced
    counts = balanced_spins(1600, 3).counts
    got = exit_probability(counts, 4 * math.log(2), 3, 0.08)
    assert got == 0.05195908544800473


def test_expected_largest_matches_sampled_percolation():
    # n = 300, z = 1/3: three classes of 100 percolating at p = lambda_c/300
    n, sizes, draws = 300, [100, 100, 100], 40000
    p = LAMBDA_C3 / n
    exact, bound = expected_largest(sizes, p)
    assert bound < 1e-12
    assert round(exact, 3) == 23.762
    rng = RngStream(20260817, "countlevel:largest", 0).generator()
    slots = num_pairs(100)
    batch = 10000
    largest = []
    for _ in range(draws // batch):
        ks = _gnp_indices(batch * 3 * slots, p, rng)
        block, k = np.divmod(ks, slots)  # block = graph * 3 + class
        graph, cls = np.divmod(block, 3)
        i, j = pairs_from_indices(k, 100)
        # the batch's graphs side by side, canonical because ks ascends:
        # graph g owns the clusters from the one holding its vertex g * n
        shift = graph * n + cls * 100
        part = cluster_decompose(
            _edge_config_presorted(batch * n, shift + i, shift + j))
        starts = part.cluster_of[np.arange(batch) * n]
        largest.append(np.maximum.reduceat(part.sizes, starts))
    largest = np.concatenate(largest)
    se = largest.std(ddof=1) / math.sqrt(draws)
    assert abs(largest.mean() - exact) < 4 * se, (largest.mean(), se, exact)
    assert sw_drift_mean(n, LAMBDA_C3, 3, 1 / 3) == pytest.approx(
        1 / 3 + (2 / 3) * exact / n, rel=1e-14)
