import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcd.analytic import (
    RegimeError,
    a_fixed_point,
    cm_drift,
    critical_points,
    drift_fixed_points,
    sw_drift,
    theta_giant,
    theta_min,
    theta_r,
    theta_star,
)

LAMBDA_C3 = 4 * math.log(2)


# ---------------------------------------------------------------------------
# giant component function

def test_theta_giant_vanishes_at_and_below_one():
    assert theta_giant(0.5) == 0.0
    assert theta_giant(1.0) == 0.0


@given(st.floats(1.0 + 1e-6, 50.0))
@settings(max_examples=80)
def test_theta_giant_solves_fixed_point(mu):
    th = theta_giant(mu)
    assert 0 < th <= 1  # rounds to 1.0 once 1 - theta is below resolution
    assert th == pytest.approx(-math.expm1(-mu * th), abs=1e-12)


def test_theta_giant_known_value():
    # 1 - theta = exp(-2 theta) at mu = 2
    assert theta_giant(2.0) == pytest.approx(0.7968121300200202, abs=1e-10)


@given(st.floats(1.01, 20.0), st.floats(0.001, 5.0))
@settings(max_examples=60)
def test_theta_giant_monotone(mu, bump):
    assert theta_giant(mu + bump) > theta_giant(mu)


# ---------------------------------------------------------------------------
# critical values

def test_critical_points_coincide_up_to_two_colors():
    for q in (1.0, 1.5, 2.0):
        cp = critical_points(q)
        assert cp.lambda_s == cp.lambda_c == cp.lambda_S == q


def test_critical_points_q3():
    cp = critical_points(3.0)
    assert cp.lambda_c == pytest.approx(LAMBDA_C3, abs=1e-12)
    assert cp.lambda_S == 3.0
    assert 2.7450 <= cp.lambda_s <= 2.7465


def test_critical_points_ordering_and_formulas():
    for q in (2.5, 3.0, 4.0, 10.0):
        cp = critical_points(q)
        if q > 2:
            assert cp.lambda_s < cp.lambda_c < cp.lambda_S
            expected_c = 2 * (q - 1) / (q - 2) * math.log(q - 1)
            assert cp.lambda_c == pytest.approx(expected_c, abs=1e-12)
            assert cp.lambda_S == q


def test_spinodal_is_a_minimum():
    # lambda_s minimises z + q z / (e^z - 1); check first-order stationarity
    cp = critical_points(4.0)
    assert cp.lambda_s == pytest.approx(3.2187410883369565, abs=1e-9)

    def h(z):
        return z + 4.0 * z / math.expm1(z)

    zgrid = np.linspace(1e-6, 30, 40000)
    assert cp.lambda_s <= min(h(z) for z in zgrid) + 1e-6


# ---------------------------------------------------------------------------
# drift functions and their fixed points

def test_sw_drift_flat_branch():
    lam = 2.0
    for z in (0.05, 0.2, 1 / lam):
        assert sw_drift(z, lam, 3.0) == pytest.approx(1 / 3, abs=1e-15)
    assert sw_drift(0.6, lam, 3.0) > 1 / 3


def test_a_fixed_point_exact_at_q3_critical():
    a = a_fixed_point(LAMBDA_C3, 3)
    assert a == pytest.approx(2 / 3, abs=1e-10)
    assert sw_drift(a, LAMBDA_C3, 3) == pytest.approx(a, abs=1e-10)


def test_a_fixed_point_needs_supercritical_lambda():
    with pytest.raises(RegimeError):
        a_fixed_point(2.0, 3)
    with pytest.raises(RegimeError):
        a_fixed_point(critical_points(3.0).lambda_s - 1e-6, 3)


@given(st.sampled_from([3, 4, 5]), st.floats(0.01, 3.0))
@settings(max_examples=40)
def test_a_fixed_point_is_attracting(q, margin):
    lam = critical_points(float(q)).lambda_s + margin
    a = a_fixed_point(lam, q)
    assert 1 / q < a < 1
    assert sw_drift(a, lam, q) == pytest.approx(a, abs=1e-8)
    h = 1e-5
    deriv = (sw_drift(a + h, lam, q) - sw_drift(a - h, lam, q)) / (2 * h)
    assert abs(deriv) < 1.0


def test_a_fixed_point_is_one_where_the_root_rounds_to_one():
    # 1 - a is about 2 exp(-lam) at q = 3, below the spacing of floats
    # near 1 from about lam = 37 on
    for lam in (37.0, 40.0, 100.0):
        assert a_fixed_point(lam, 3) == 1.0
        assert theta_r(lam, 3.0) == 1.0


# Theta_r at lam = lambda_s(q) + 1e-7: the root of the 50-digit mpmath
# findroot of exp(-lam*x) - 1 + q*x/(1 + (q-1)*x) next to theta_r's value,
# with the left side positive on a grid of 1000 points above it
THETA_R_NEAR_LAMBDA_S = {3: 0.37744352769221767686, 4: 0.50731956036951111137,
                         10: 0.69944868304747762644}


@pytest.mark.parametrize("q", sorted(THETA_R_NEAR_LAMBDA_S))
def test_ordered_root_just_above_lambda_s(q):
    # the stretch where the equation is < 0 is narrower than the scan step
    # here, so the root is bisected from the closed-form minimum
    lam = critical_points(float(q)).lambda_s + 1e-7
    a, tr = a_fixed_point(lam, q), theta_r(lam, float(q))
    assert tr == (q * a - 1.0) / (q - 1.0)
    assert abs(tr - THETA_R_NEAR_LAMBDA_S[q]) < 1e-10


def test_theta_r_closed_form_at_critical():
    for q in (3.0, 4.0, 10.0):
        lam_c = critical_points(q).lambda_c
        assert theta_r(lam_c, q) == pytest.approx((q - 2) / (q - 1), abs=1e-8)


def test_theta_star_and_theta_r_are_cm_drift_roots():
    for lam in (2.75, LAMBDA_C3, 2.9):
        for th in (theta_star(lam, 3.0), theta_r(lam, 3.0)):
            assert cm_drift(th, lam, 3.0) - th == pytest.approx(0.0, abs=1e-8)


def test_theta_star_below_theta_r_with_positive_drift_between():
    for lam in (2.75, LAMBDA_C3, 2.9):
        ts, tr = theta_star(lam, 3.0), theta_r(lam, 3.0)
        assert 0 < ts < tr < 1
        for th in np.linspace(ts, tr, 50)[1:-1]:
            assert cm_drift(float(th), lam, 3.0) - th > 0


def test_theta_star_regime_guards():
    with pytest.raises(RegimeError):
        theta_star(2.0, 3.0)  # below lambda_s
    with pytest.raises(RegimeError):
        theta_star(3.5, 3.0)  # above lambda_S
    with pytest.raises(RegimeError):
        theta_star(1.5, 2.0)  # needs q > 2


def test_theta_min_formula():
    assert theta_min(LAMBDA_C3, 3.0) == pytest.approx(
        (3 - LAMBDA_C3) / (LAMBDA_C3 * 2), abs=1e-15)
    assert theta_min(3.5, 3.0) == 0.0


def test_known_cm_landmarks_at_q3_critical():
    assert theta_star(LAMBDA_C3, 3.0) == pytest.approx(0.25, abs=1e-8)
    assert theta_r(LAMBDA_C3, 3.0) == pytest.approx(0.5, abs=1e-8)


def test_drift_fixed_points_bundle():
    fp = drift_fixed_points(LAMBDA_C3, 3.0)
    assert fp.a_lambda == pytest.approx(2 / 3, abs=1e-8)
    assert fp.theta_star == pytest.approx(0.25, abs=1e-8)
    below = drift_fixed_points(2.0, 3.0)
    assert below.a_lambda is None
    assert below.theta_star is None


@given(st.floats(0.01, 0.99), st.floats(0.1, 8.0), st.floats(1.0, 6.0))
@settings(max_examples=80)
def test_cm_drift_stays_in_unit_interval(theta, lam, q):
    val = cm_drift(theta, lam, q)
    assert 0.0 <= val <= 1.0
