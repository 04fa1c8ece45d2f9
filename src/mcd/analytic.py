"""Critical points, giant-component fractions, and drift maps.

All root finding is bisection on explicitly stated brackets (absolute
tolerance 1e-12); the one minimization (lambda_s) is golden-section on
[1e-9, 50]. No stochastic element anywhere in this module.

Quantities, for cluster weight q and mean degree lambda:

* theta_giant(mu): positive root of exp(-mu*x) = 1 - x for mu > 1, else 0.
* lambda_s = min_z { z + q*z/(e^z - 1) }: below this the ordered phase
  disappears.
* lambda_c = 2*(q-1)*ln(q-1)/(q-2) for q > 2: where the two phase weights
  balance.
* lambda_S = q: above this the disordered phase disappears.
  For q <= 2 all three coincide at q.
* sw_drift F(z): one-step map of the largest color-class fraction under
  Swendsen-Wang; fixed points 1/q and (for lambda > lambda_s) a_lambda.
* cm_drift f(theta) and g = f - theta: one-step map of the giant fraction
  under Chayes-Machta; roots Theta_star < Theta_r above lambda_s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import integer_q


class RegimeError(ValueError):
    """Raised when a quantity is requested outside its parameter regime."""


_TOL = 1e-12


def _bisect(fn, lo: float, hi: float, iters: int = 100) -> float:
    """Bisection for a sign change bracketed by [lo, hi]; fn(lo) and fn(hi)
    must have opposite signs. Returns the midpoint after iters halvings."""
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def theta_giant(mu: float) -> float:
    """Asymptotic giant-component fraction of G(n, mu/n).

    The unique positive root of exp(-mu*x) = 1 - x when mu > 1; exactly 0
    for mu <= 1.
    """
    if mu <= 1.0:
        return 0.0

    def phi(x: float) -> float:
        # expm1 keeps the sign right near x = 0 where exp() would round to 1
        return math.expm1(-mu * x) + x

    return _bisect(phi, 1e-16, 1.0)


@dataclass(frozen=True)
class CriticalPoints:
    """The three transition points lambda_s <= lambda_c <= lambda_S."""

    q: float
    lambda_s: float
    lambda_c: float
    lambda_S: float


def critical_points(q: float) -> CriticalPoints:
    if not 1 <= q < math.inf:
        raise ValueError(f"q must be finite and >= 1, got {q!r}")
    if q <= 2:
        # all three transition points coincide (continuous transition)
        return CriticalPoints(q=q, lambda_s=float(q), lambda_c=float(q), lambda_S=float(q))

    lam_c = 2.0 * (q - 1.0) * math.log(q - 1.0) / (q - 2.0)

    def h(z: float) -> float:
        return z + q * z / math.expm1(z)

    # golden-section minimization; unimodality on the bracket is validated
    # by a grid scan in the test suite
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1e-9, 50.0
    a = hi - inv_phi * (hi - lo)
    b = lo + inv_phi * (hi - lo)
    fa, fb = h(a), h(b)
    for _ in range(140):
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = h(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = h(b)
    lam_s = h(0.5 * (lo + hi))
    return CriticalPoints(q=q, lambda_s=lam_s, lambda_c=lam_c, lambda_S=float(q))


def theta_r(lam: float, q: float) -> float:
    """Largest root in (0, 1] of exp(-lam*x) = 1 - q*x/(1 + (q-1)*x).

    Returns 0.0 in the degenerate regime (q <= 2 or lam <= lambda_s) where
    no ordered-phase root exists.
    """
    if q <= 2 or lam <= critical_points(q).lambda_s:
        return 0.0

    def psi(x: float) -> float:
        return math.expm1(-lam * x) + q * x / (1.0 + (q - 1.0) * x)

    # psi(1) = exp(-lam) > 0; scan down for the first sign change
    step = 1e-3
    x = 1.0
    while x - step > 0.0:
        if psi(x - step) <= 0.0:
            return _bisect(psi, x - step, x)
        x -= step
    return 0.0


def theta_min(lam: float, q: float) -> float:
    """Activation-criticality threshold max{0, (q - lam)/(lam*(q-1))}."""
    return max(0.0, (q - lam) / (lam * (q - 1.0)))


def sw_drift(z: float, lam: float, q: float) -> float:
    """One-step Swendsen-Wang drift of a color class at fraction z.

    F(z) = z*theta_{lam*z} + (1 - z*theta_{lam*z})/q for z > 1/lam and
    exactly 1/q on the subcritical branch z <= 1/lam.
    """
    if z <= 1.0 / lam:
        return 1.0 / q
    t = z * theta_giant(lam * z)
    return t + (1.0 - t) / q


def cm_drift(theta: float, lam: float, q: float) -> float:
    """One-step Chayes-Machta drift of the giant fraction.

    f(theta) = a * theta_giant(lam * a) with a = (1 + (q-1)*theta)/q the
    expected active fraction; 0 whenever the activated set is subcritical.
    """
    a = (1.0 + (q - 1.0) * theta) / q
    return a * theta_giant(lam * a)


def _g(theta: float, lam: float, q: float) -> float:
    return cm_drift(theta, lam, q) - theta


def a_fixed_point(lam: float, q: int) -> float:
    """The ordered fixed point a_lambda of the SW drift: the largest root in
    (1/q, 1) of log((q-1)a/(1-a)) = lam*(a - (1-a)/(q-1)).

    Requires integer q >= 3 and lam > lambda_s(q).
    """
    q = integer_q(q, 3, "a_fixed_point")
    if lam <= critical_points(q).lambda_s:
        raise RegimeError(f"no ordered fixed point at lam={lam!r} <= lambda_s({q})")

    def psi(a: float) -> float:
        return math.log((q - 1.0) * a / (1.0 - a)) - lam * (a - (1.0 - a) / (q - 1.0))

    # psi -> +inf as a -> 1-, so scan down from just below 1 for the first
    # sign change; that brackets the largest root
    hi = 1.0 - 1e-12
    while psi(hi) < 0.0:  # extremely large lam pushes the root toward 1
        hi = 1.0 - (1.0 - hi) / 16.0
    step = 1e-3
    x = hi
    while x - step > 1.0 / q:
        if psi(x - step) <= 0.0:
            return _bisect(psi, x - step, x)
        x -= step
    raise RegimeError(f"no ordered fixed point found for lam={lam!r}, q={q}")


def theta_star(lam: float, q: float) -> float:
    """Smaller root of g(theta) = cm_drift(theta) - theta on (Theta_min, Theta_r).

    Defined for q > 2 and lambda_s < lam < lambda_S; raises RegimeError
    outside. Postcondition (grid-checked): g > 0 strictly between the roots.
    """
    if q <= 2:
        raise RegimeError(f"theta_star needs q > 2, got {q!r}")
    cp = critical_points(q)
    if not (cp.lambda_s < lam < cp.lambda_S):
        raise RegimeError(f"lam={lam!r} outside (lambda_s, lambda_S) = "
                          f"({cp.lambda_s!r}, {cp.lambda_S!r})")
    t_r = theta_r(lam, q)
    t_min = theta_min(lam, q)
    lo = t_min
    grid = 2000
    h = (t_r - t_min) / grid
    star = None
    for i in range(1, grid):
        x = t_min + i * h
        if _g(x, lam, q) > 0.0:
            star = _bisect(lambda t: _g(t, lam, q), lo, x)
            break
        lo = x
    if star is None:
        raise RegimeError(f"drift never positive on (Theta_min, Theta_r) at "
                          f"lam={lam!r}, q={q!r}")
    # positivity between the roots, sampled away from the endpoints
    inner = [star + (t_r - star) * k / 200.0 for k in range(2, 199)]
    for x in inner:
        if _g(x, lam, q) <= 0.0:
            raise AssertionError(f"drift not positive at theta={x!r} between "
                                 f"Theta_star and Theta_r (lam={lam!r}, q={q!r})")
    return star


@dataclass(frozen=True)
class DriftFixedPoints:
    """Bundle of the drift landmarks at (lam, q).

    a_lambda/b_lambda are None for non-integer q (they live on the Potts
    side); theta_star is None outside (lambda_s, lambda_S).
    """

    lam: float
    q: float
    theta_lambda: float
    theta_r: float
    theta_min: float
    theta_star: float | None
    a_lambda: float | None
    b_lambda: float | None


def drift_fixed_points(lam: float, q: float) -> DriftFixedPoints:
    cp = critical_points(q)
    t_star = None
    if q > 2 and cp.lambda_s < lam < cp.lambda_S:
        t_star = theta_star(lam, q)
    a_lam = b_lam = None
    if float(q).is_integer() and q >= 3 and lam > cp.lambda_s:
        a_lam = a_fixed_point(lam, int(q))
        b_lam = (1.0 - a_lam) / (q - 1.0)
    return DriftFixedPoints(
        lam=lam,
        q=q,
        theta_lambda=theta_giant(lam),
        theta_r=theta_r(lam, q),
        theta_min=theta_min(lam, q),
        theta_star=t_star,
        a_lambda=a_lam,
        b_lambda=b_lam,
    )
