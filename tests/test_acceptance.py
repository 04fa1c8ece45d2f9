"""Graded acceptance suite.

One test per numbered criterion, each asserting every clause at its stated
tolerance and printing a single summary line. Stochastic criteria use the
fixed master seed below; they are exact reruns, not tuned draws.

The paper's slowdown is asymptotic, while these clauses run at fixed n
between 40 and 10^4. Where the n -> infinity value of a quantity is still
far off at the n a clause runs at, the clause compares the sampled value
with the exact finite-n value of the same quantity from mcd.countlevel (SW
lumps to colour counts, so these laws are computable exactly), and its
line prints the exact, the sampled and the n -> infinity value:

* criterion 4, sw z = 1/3 at n = 10^4: the mean is 1/q + (1 - 1/q) E[L1]/n
  with E[L1] = 156.60, so 0.34377, not F = 1/3 (sampled 0.34411);
* criterion 5, lambda = 3.2 at n = 400: one-step exit 0.5663 exactly (its
  limit is 1/9), against 0.3606 at lambda_c; escape at n = 40/60/80:
  P(T > 1) = 0.1534/0.2000/0.2726, so every median is exactly 1;
* criterion 7, n = 500 at lambda_c: SW crosses between the phases within
  the run, so both chains sample the stationary law, whose exact mean is
  0.5553, valley mass 0.5035, with maxima at 0.382 and 0.674.
  Metastable separation is asserted at n = 30000 instead.
"""

import math

import numpy as np
import pytest

from mcd.analytic import (
    a_fixed_point,
    cm_drift,
    critical_points,
    sw_drift,
    theta_r,
    theta_star,
)
from mcd.countlevel import (
    escape_time_law,
    exit_probability,
    majority_law,
    sw_drift_mean,
)
from mcd.dynamics import cm_step, glauber_step, sw_step
from mcd.experiments import (
    _majority_series,
    balanced_spins,
    bimodality_scan,
    cluster_tail_bound,
    cm_drift_map,
    escape_time,
    giant_concentration,
    one_step_exit,
    ordered_spins,
    sm_tail,
    sw_drift_map,
)
from mcd.model import EdgeConfig, ModelParams, SpinConfig
from mcd.oracle import (
    bgj_coloring_check,
    build_kernel,
    detailed_balance_violation,
    edge_mask,
    es_coupling_check,
    exhaustive_min_ratio,
    iterated_coloring_check,
    min_bottleneck_ratio,
    mixing_time_exact,
    spectral_gap,
    spin_code,
    stationarity_residual,
    tv_distance,
)
from mcd.rng import RngStream

SEED = 20260817
LAMBDA_C3 = 4 * math.log(2)


def _report(num: str, clauses: list[tuple[bool, str]]) -> None:
    ok = all(flag for flag, _ in clauses)
    print(f"criterion {num}: " + ("PASS" if ok else "FAIL"))
    for flag, desc in clauses:
        print(f"  [{'ok' if flag else 'FAIL'}] {desc}")
    failed = [desc for flag, desc in clauses if not flag]
    assert ok, f"criterion {num} failed clauses: {failed}"


# ---------------------------------------------------------------------------
# 1. analytic suite

def test_criterion_1_analytic():
    clauses = []
    cp3 = critical_points(3.0)
    clauses.append((abs(cp3.lambda_c - LAMBDA_C3) < 1e-12,
                    f"lambda_c(3) = {cp3.lambda_c!r} vs 4 ln 2, tol 1e-12"))
    clauses.append((2.7450 <= cp3.lambda_s <= 2.7465,
                    f"lambda_s(3) = {cp3.lambda_s!r} in [2.7450, 2.7465]"))
    clauses.append((cp3.lambda_S == 3.0, f"lambda_S(3) = {cp3.lambda_S!r} == 3 exactly"))
    for q in (3.0, 4.0, 10.0):
        lam_c = critical_points(q).lambda_c
        got = theta_r(lam_c, q)
        want = (q - 2) / (q - 1)
        clauses.append((abs(got - want) < 1e-8,
                        f"Theta_r(lambda_c, q={q}) = {got!r} vs {want!r}, tol 1e-8"))
    for lam in (2.75, LAMBDA_C3, 2.9):
        a = a_fixed_point(lam, 3)
        fa = sw_drift(a, lam, 3)
        clauses.append((abs(fa - a) < 1e-8,
                        f"|F(a) - a| = {abs(fa - a):.2e} at lam={lam:.6f}, tol 1e-8"))
        tr = theta_r(lam, 3.0)
        g_tr = cm_drift(tr, lam, 3.0) - tr
        clauses.append((abs(g_tr) < 1e-8,
                        f"|g(Theta_r)| = {abs(g_tr):.2e} at lam={lam:.6f}, tol 1e-8"))
        ts = theta_star(lam, 3.0)
        g_ts = cm_drift(ts, lam, 3.0) - ts
        clauses.append((abs(g_ts) < 1e-8,
                        f"|g(Theta*)| = {abs(g_ts):.2e} at lam={lam:.6f}, tol 1e-8"))
        h = 1e-6
        deriv = (sw_drift(a + h, lam, 3) - sw_drift(a - h, lam, 3)) / (2 * h)
        clauses.append((abs(deriv) < 1.0,
                        f"|F'(a)| = {abs(deriv):.6f} < 1 at lam={lam:.6f}"))
    _report("1 (analytic)", clauses)


# ---------------------------------------------------------------------------
# 2. exact oracle suite

def test_criterion_2_oracle():
    clauses = []
    grid = [("sw", 3, 3.0), ("cm", 4, 2.0), ("cm", 4, 2.5)]
    grid += [("glauber", n, q) for n in (4, 6) for q in (1.5, 2.0, 3.0)]
    for kind, n, q in grid:
        for lam in (1.0, 2.0):
            kernel = build_kernel(kind, n, q, lam)
            res = stationarity_residual(kernel)
            db = detailed_balance_violation(kernel)
            clauses.append((res < 1e-10,
                            f"stationarity {kind} n={n} q={q} lam={lam}: {res:.2e} < 1e-10"))
            clauses.append((db < 1e-12,
                            f"detailed balance {kind} n={n} q={q} lam={lam}: {db:.2e} < 1e-12"))
    for n in (3, 4, 5):
        for lam in (1.0, 2.0):
            dev = max(es_coupling_check(n, lam, 3))
            clauses.append((dev < 1e-10,
                            f"edge/spin coupling n={n} q=3 lam={lam}: {dev:.2e} < 1e-10"))
    for lam in (1.0, 2.0):
        dev = bgj_coloring_check(4, lam, 3.0, 1.0 / 3.0)
        clauses.append((dev < 1e-10,
                        f"restriction law n=4 q=3 alpha=1/3 lam={lam}: {dev:.2e} < 1e-10"))
        dev = float(iterated_coloring_check(3, lam, 2.5))
        clauses.append((dev < 1e-10,
                        f"iterated coloring n=3 q=2.5 lam={lam}: {dev:.2e} < 1e-10"))

    # conductance sandwich, with Phi = min over cuts S of
    # Q(S,Sc)/(pi(S)pi(Sc)), the bottleneck_ratio normalisation. The
    # indicator of any cut S gives gap <= Q(S,Sc)/(pi(S)pi(Sc)), so the
    # upper clauses gap <= Phi_exact <= Phi_family are sound. In this
    # normalisation Cheeger's inequality guarantees only Phi_exact^2/8 <= gap,
    # so the lower clauses check Phi^2/2 <= gap, a stronger bound than the
    # theorem gives: an observed margin, not a certificate. Since
    # Phi_exact <= Phi_family, the n=4 clause implies the same bound for the
    # exact minimum without enumerating all 2^63 cuts of the 64-state space.
    # The 8-state chain is small enough to take the true exhaustive minimum
    # directly.
    small = build_kernel("glauber", 3, 2.0, 1.0)
    gap_s = spectral_gap(small)
    phi_s, _ = exhaustive_min_ratio(small)
    clauses.append((phi_s ** 2 / 2 <= gap_s + 1e-12 and gap_s <= 2 * phi_s + 1e-12,
                    f"exhaustive sandwich n=3: {phi_s ** 2 / 2:.4f} <= {gap_s:.4f} <= {2 * phi_s:.4f}"))
    kernel = build_kernel("glauber", 4, 2.0, 1.0)
    gap = spectral_gap(kernel)
    phi_fam, _ = min_bottleneck_ratio(kernel)
    clauses.append((phi_fam ** 2 / 2 <= gap + 1e-12,
                    "lower sandwich n=4, stronger than Cheeger, not a certificate: "
                    f"Phi_fam^2/2 = {phi_fam ** 2 / 2:.4f} <= gap = {gap:.4f}"))
    clauses.append((gap <= phi_fam + 1e-12,
                    f"upper sandwich n=4: gap = {gap:.4f} <= Phi_fam = {phi_fam:.4f} (<= 2 Phi_exact)"))
    tmix = mixing_time_exact(kernel)
    pi_min = float(kernel.measure.probs.min())
    lo = 1.0 / gap - 1.0
    hi = math.log(2.0 * math.e / pi_min) / gap
    clauses.append((lo <= tmix <= hi,
                    f"t_mix = {tmix} within [{lo:.3f}, {hi:.3f}]"))
    _report("2 (oracle)", clauses)


# ---------------------------------------------------------------------------
# 3. dynamics versus oracle, one-step law

def _empirical_tv_sw(samples: int) -> float:
    params = ModelParams(n=3, q=3.0, lam=1.5)
    start = SpinConfig(colors=np.array([1, 2, 3]), q=3)
    kernel = build_kernel("sw", 3, 3.0, 1.5)
    row = kernel.P[spin_code(start.colors, 3)].toarray().ravel()
    rng = RngStream(SEED, "tv:sw").generator()
    counts = np.zeros(kernel.size)
    for _ in range(samples):
        new, _ = sw_step(start, params, rng)
        counts[spin_code(new.colors, 3)] += 1
    return tv_distance(counts / samples, row)


def _empirical_tv_edge(kind, n, q, lam, samples: int) -> float:
    params = ModelParams(n=n, q=q, lam=lam)
    start = EdgeConfig.empty(n)
    kernel = build_kernel(kind, n, q, lam)
    row = kernel.P[edge_mask(start)].toarray().ravel()
    rng = RngStream(SEED, f"tv:{kind}").generator()
    counts = np.zeros(kernel.size)
    step = cm_step if kind == "cm" else glauber_step
    for _ in range(samples):
        counts[edge_mask(step(start, params, rng))] += 1
    return tv_distance(counts / samples, row)


def test_criterion_3_dynamics_vs_oracle():
    samples = 100000
    tv_sw = _empirical_tv_sw(samples)
    tv_cm = _empirical_tv_edge("cm", 4, 2.5, 2.0, samples)
    tv_gl = _empirical_tv_edge("glauber", 4, 2.0, 1.0, samples)
    _report("3 (dynamics vs oracle)", [
        (tv_sw < 1e-2, f"sw n=3 q=3 lam=1.5: TV = {tv_sw:.5f} < 0.01"),
        (tv_cm < 1e-2, f"cm n=4 q=2.5 lam=2: TV = {tv_cm:.5f} < 0.01"),
        (tv_gl < 1e-2, f"glauber n=4 q=2 lam=1: TV = {tv_gl:.5f} < 0.01"),
    ])


# ---------------------------------------------------------------------------
# 4. drift maps at n = 10^4

def test_criterion_4_drift_maps():
    clauses = []
    rep = sw_drift_map(10000, LAMBDA_C3, 3, [1 / 3, 0.5, 2 / 3], 200, SEED,
                       threads=4)
    for cell in rep.cells:
        err = cell.extra["abs_error"]
        if cell.param > 1 / LAMBDA_C3:
            clauses.append((err < 0.01,
                            f"sw z={cell.param:.4f}: |mean - F| = {err:.5f} < 0.01"))
            continue
        # flat branch: F = 1/q is only the n -> inf limit of the exact mean
        # 1/q + (1 - 1/q) E[L1]/n, and lam*z sits in the critical window
        exact = sw_drift_mean(10000, LAMBDA_C3, 3, cell.param)
        gap = abs(cell.estimate - exact)
        clauses.append((gap < 0.01,
                        f"sw z={cell.param:.4f}: |mean - exact| = "
                        f"|{cell.estimate:.5f} - {exact:.5f}| = {gap:.5f} < 0.01 "
                        f"(n->inf: F = {cell.extra['predicted']:.5f})"))
    ts = theta_star(LAMBDA_C3, 3.0)
    tr = theta_r(LAMBDA_C3, 3.0)
    rep2 = cm_drift_map(10000, LAMBDA_C3, 3.0, [ts, (ts + tr) / 2, tr], 200,
                        SEED, threads=4)
    for cell in rep2.cells:
        err = cell.extra["abs_error"]
        clauses.append((err < 0.02,
                        f"cm theta={cell.param:.4f}: |mean - f| = {err:.5f} < 0.02"))
    mid = rep2.cells[1]
    drift, se = mid.extra["empirical_drift"], mid.extra["stderr"]
    clauses.append((drift >= 2 * se,
                    f"midpoint drift {drift:.5f} >= 2 se = {2 * se:.5f}"))
    _report("4 (drift maps)", clauses)


# ---------------------------------------------------------------------------
# 5. slowdown proxy

def test_criterion_5_slowdown_proxy():
    clauses = []
    rep = one_step_exit([200, 400, 800], LAMBDA_C3, 3, 0.08, "balanced",
                        1000, SEED, threads=4)
    est = [c.estimate for c in rep.cells]
    cis = [(c.ci_lo, c.ci_hi) for c in rep.cells]
    clauses.append((est[0] > est[1] > est[2],
                    f"exit estimates strictly decreasing: {est}"))
    clauses.append((cis[0][0] > cis[1][1] and cis[1][0] > cis[2][1],
                    f"95% CIs non-overlapping: {cis}"))
    slope = rep.summary["log_slope"]
    clauses.append((slope < 0, f"log-estimate slope = {slope:.5f} < 0"))
    contrast = one_step_exit([400], 3.2, 3, 0.08, "balanced", 1000, SEED,
                             threads=4).cells[0]
    # at lam = 3.2 one step leaves the set only when the three class giants
    # (each ~0.041 n) share a color: the exit probability falls to 1/9
    exact = exit_probability(balanced_spins(400, 3).counts, 3.2, 3, 0.08)
    exact_c = exit_probability(balanced_spins(400, 3).counts, LAMBDA_C3, 3, 0.08)
    se = math.sqrt(exact * (1 - exact) / contrast.replicas)
    clauses.append((abs(contrast.estimate - exact) < 4 * se,
                    f"contrast lam=3.2 > lambda_S n=400: exit {contrast.estimate:.4f} "
                    f"within 4 se = {4 * se:.4f} of exact {exact:.4f} (n->inf: 1/9)"))
    at_c = rep.cells[1]
    clauses.append((contrast.ci_lo > at_c.ci_hi,
                    f"contrast n=400: lam=3.2 CI ({contrast.ci_lo:.4f}, {contrast.ci_hi:.4f})"
                    f" above lambda_c CI ({at_c.ci_lo:.4f}, {at_c.ci_hi:.4f});"
                    f" exact {exact:.4f} vs {exact_c:.4f} (n->inf: 1/9 vs 0)"))
    rep3 = escape_time([40, 60, 80], LAMBDA_C3, 3, 0.08, "balanced", 200,
                       SEED, cap=10 ** 5, threads=4)
    med = [c.estimate for c in rep3.cells]
    # P(exit at step 1) > 1/2 at these n, so every exact median is 1; the
    # slowdown shows in the tail of the escape-time law
    laws = [escape_time_law(c.n, LAMBDA_C3, 3, 0.08, 5) for c in rep3.cells]
    exact_med = [law.median for law in laws]
    clauses.append((med == exact_med,
                    f"median escape equals exact: sampled {med}, exact {exact_med}"
                    f" (n->inf: exp(cn))"))
    tails = np.array([law.survival[1:] for law in laws])
    clauses.append((bool(np.all(tails[1:] > tails[:-1])),
                    "exact P(T > t), t=1..5, strictly increasing in n: "
                    + "; ".join(f"n={c.n} " + "/".join(f"{v:.4g}" for v in row)
                                + f" E[T]={law.mean:.3f}"
                                for c, row, law in zip(rep3.cells, tails, laws))
                    + " (n->inf: P(T > t) -> 1)"))
    _report("5 (slowdown proxy)", clauses)


# ---------------------------------------------------------------------------
# 6. equilibrium cluster facts

def test_criterion_6_equilibrium_facts():
    clauses = []
    rep = cluster_tail_bound(10000, 0.5, [20, 40, 60], 100000, SEED, threads=4)
    for cell in rep.cells:
        bound = cell.extra["bound"]
        clauses.append((cell.ci_hi <= bound,
                        f"cluster tail k={int(cell.param)}: upper CI {cell.ci_hi:.3e} <= {bound:.3e}"))
    rep2 = sm_tail([100, 200, 400], 0.5, 20, 0.2, 50000, SEED, threads=4)
    slope = rep2.summary["log_slope"]
    clauses.append((slope < 0, f"S_M tail log-estimate slope = {slope:.5f} < 0"))
    rep3 = giant_concentration(100000, 2.0, 0.01, 100, SEED, threads=4)
    outside = rep3.cells[0].extra["outside"]
    clauses.append((outside <= 1,
                    f"giant concentration: {outside} of 100 replicas outside 0.01"))
    _report("6 (equilibrium facts)", clauses)


# ---------------------------------------------------------------------------
# 7. critical bimodality at n = 500

def _batch_se(series: list[np.ndarray], batch: int) -> float:
    means = np.concatenate([s.reshape(-1, batch).mean(axis=1) for s in series])
    return float(means.std(ddof=1) / math.sqrt(means.size))


def test_criterion_7_bimodality():
    # At n = 500 SW crosses between the phases many times within the run
    # (integrated autocorrelation 25-80 steps), so both chains sample the
    # stationary law: assert that law's bimodality exactly, and that the
    # chains sample it. Metastable separation: the n = 30000 test below.
    n, burn, samples = 500, 200, 1000
    rep = bimodality_scan(n, LAMBDA_C3, 3, burn=burn, samples=samples,
                          master_seed=SEED)
    estimates = [c.estimate for c in rep.cells]
    lo, hi = rep.summary["valley"]
    a_ord = rep.summary["a_ordered"]
    series = []
    for name, start in (("balanced", balanced_spins(n, 3)),
                        ("ordered", ordered_spins(n, 3, a_ord))):
        rng = RngStream(SEED, f"bimodality:{name}:n={n}", 0).generator()
        series.append(_majority_series(n, 3, LAMBDA_C3, start, burn, samples,
                                       rng))
    valley = [((s > lo) & (s < hi)).astype(float) for s in series]
    redrawn = [float(s.mean()) for s in series + valley]

    pmf = majority_law(n, 3, LAMBDA_C3)
    frac = np.arange(n + 1) / n
    inside = (frac > lo) & (frac < hi)
    exact_mean = float(pmf @ frac)
    exact_valley = float(pmf[inside].sum())
    peaks = [k for k in range(1, n) if pmf[k - 1] < pmf[k] > pmf[k + 1]]
    left = [k for k in peaks if frac[k] <= lo]
    right = [k for k in peaks if frac[k] >= hi]
    dip = int(np.flatnonzero(inside)[np.argmin(pmf[inside])])
    bimodal = (len(left) == 1 and len(right) == 1 and len(peaks) == 2
               and inside[dip - 1] and inside[dip + 1]
               and pmf[dip] < min(pmf[left[0]], pmf[right[0]]))

    pooled_mean = float(np.concatenate(series).mean())
    pooled_valley = float(np.concatenate(valley).mean())
    se_mean = _batch_se(series, 200)
    se_valley = _batch_se(valley, 200)
    _report("7 (bimodality n=500)", [
        (redrawn == estimates,
         "series redrawn from the scan's streams reproduce its cells "
         + ", ".join(f"{e:.4f}" for e in estimates)),
        (bimodal,
         "exact stationary law bimodal: maxima at "
         + ", ".join(f"{frac[k]:.3f}" for k in peaks) + ", "
         f"valley minimum at {frac[dip]:.3f} with mass {pmf[dip]:.5f} < "
         f"{min(pmf[k] for k in peaks):.5f} (n->inf: peaks at 1/3 and {a_ord:.4f})"),
        (abs(pooled_mean - exact_mean) < 4 * se_mean,
         f"pooled mean {pooled_mean:.4f} (chains {estimates[0]:.4f}, {estimates[1]:.4f})"
         f" within 4 batch se = {4 * se_mean:.4f} of exact {exact_mean:.4f}"
         f" (n->inf: each chain stays in its phase, 1/3 and {a_ord:.4f})"),
        (abs(pooled_valley - exact_valley) < 4 * se_valley,
         f"pooled valley mass {pooled_valley:.4f} (chains {estimates[2]:.4f}, "
         f"{estimates[3]:.4f}) within 4 batch se = {4 * se_valley:.4f} of exact "
         f"{exact_valley:.4f} (n->inf: 0)"),
    ])


def test_bimodality_demonstration_at_large_n():
    # same protocol at n = 30000, where the two chains do separate: the
    # coexistence the n=500 criterion is after appears once n outgrows the
    # critical-window fluctuations
    rep = bimodality_scan(30000, LAMBDA_C3, 3, burn=200, samples=1000,
                          master_seed=SEED)
    bal_mean, ord_mean, bal_val, ord_val = [c.estimate for c in rep.cells]
    assert abs(bal_mean - 1 / 3) < 0.05
    assert abs(ord_mean - 2 / 3) < 0.05
    assert bal_val < 0.01 and ord_val < 0.01


# ---------------------------------------------------------------------------
# 8. determinism

def test_criterion_8_determinism():
    clauses = []
    runs = [one_step_exit([60, 90], LAMBDA_C3, 3, 0.08, "balanced", 200,
                          SEED, threads=t).to_csv_text() for t in (1, 4, 7)]
    clauses.append((runs[0] == runs[1] == runs[2],
                    "one_step_exit identical across 1/4/7 worker processes"))
    tails = [sm_tail([80, 160], 0.5, 10, 0.3, 400, SEED, threads=t).to_csv_text()
             for t in (1, 3)]
    clauses.append((tails[0] == tails[1],
                    "sm_tail identical across 1/3 worker processes"))
    maps = [cm_drift_map(500, LAMBDA_C3, 3.0, [0.375], 40, SEED,
                         threads=t).to_csv_text() for t in (1, 5)]
    clauses.append((maps[0] == maps[1],
                    "cm_drift_map identical across 1/5 worker processes"))
    rerun = one_step_exit([60, 90], LAMBDA_C3, 3, 0.08, "balanced", 200,
                          SEED, threads=4).to_csv_text()
    clauses.append((rerun == runs[0], "rerun with same master seed is byte-identical"))
    _report("8 (determinism)", clauses)
