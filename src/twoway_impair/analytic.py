"""Closed-form and quadrature-based performance metrics.

Exact outage probability of the two-way AF link with relay hardware
impairments, its high-power floor, the symbol error rate as a weighted
integral of the outage CDF, the closed-form SER floor for symmetric channel
gains, and inversion utilities that bound the tolerable impairment severity
for a given outage or SER target.

Numerical strategy for the exact outage expression: exp(-E) * arg*K1(arg) / D
is assembled in log space from three relatively accurate terms of one sign
and complemented by expm1, so the outage keeps its relative precision from
the tiniest thresholds up to the saturation threshold x -> 1/c, where the
raw exponential underflows while the true probability tends to 1.

Both the outage and the SER are computed for a whole transmit-power sweep at
once (outage_sweep, ser_sweep): one numpy kernel evaluates the closed form
for every sweep point, and the SER integral runs one tanh-sinh rule over all
points together, halving its step for the points still over the fixed
relative tolerance SER_REL_TOL.  outage_probability and ser are one-point
sweeps.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from . import specfun
from .model import (MODULATIONS, Direction, Modulation, OutageQuery, SystemConfig, _check_positive,
                    _check_threshold, _own_powers, _sweep_powers, derived_constants, link_params)

__all__ = [
    "Modulation",
    "MODULATIONS",
    "OutageQuery",
    "QuadratureError",
    "InfeasibleTargetError",
    "outage_probability",
    "outage_sweep",
    "outage_asymptotic",
    "ser",
    "ser_sweep",
    "ser_asymptotic",
    "ser_floor_quadrature",
    "invert_impairment_for_op",
    "invert_impairment_for_ser",
]


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to converge; carries the achieved error estimate."""

    def __init__(self, message: str, achieved_error: float):
        super().__init__(f"{message} (achieved error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error


class InfeasibleTargetError(ValueError):
    """Requested performance target is outside the achievable range."""


def _closed_form(config: SystemConfig, direction: Direction, powers):
    """(c, delta, coefficient rows) of the exact outage expression at each sweep point.

    The five rows weight x/s and x(1+cx)/s^2 in the exponent,
    (x+delta*x^2)/s^2 and x^2/s^3 in the squared half Bessel argument, and
    cx/s in the denominator factor, with s = 1 - cx.  delta = 1 +
    (kappa_hat_r^2 - kappa_r^2) comes from a_i*b_i = E*(c + delta), E being
    the n_lin row times omega1*omega2; it is exactly 1 when the relaying gain
    uses the true receive EVM.
    """
    p_i, p_ri, n_i, om_i, om_ri = link_params(config, direction, powers)
    delta = 1.0 + (config.gain_kappa_r**2 - config.kappa_r**2)
    om12 = config.omega1 * config.omega2
    try:
        with np.errstate(over="raise", divide="raise"):
            dc = derived_constants(config, direction, powers)
            ratio = p_i / p_ri
            rows = np.array([
                dc.a_i / om_ri + dc.b_i / om_i,
                (dc.b_i / om_ri) * ratio,
                n_i * config.n3 / (om12 * p_ri * powers[2]),
                dc.b_i * dc.b_i * p_i / (om12 * p_ri),
                ratio * om_i / om_ri,
            ])
    except FloatingPointError:
        raise ValueError("the sweep powers overflow the outage coefficients; "
                         "narrow the p1 range or the coupling multipliers") from None
    return dc.c, delta, rows


def _outage(x, c: float, delta: float, rows: np.ndarray) -> np.ndarray:
    """Exact outage probability at thresholds x for coefficient rows (see _closed_form).

    x broadcasts against each row.  0 at x = 0, 1 from the ceiling 1/c on;
    below it 1 - e^(-E) * arg*K1(arg) / (1 + F), with the floor term F =
    (cx/s)*d_lin, from log terms that cannot cancel (see module docstring).
    """
    x = np.asarray(x, dtype=float)
    e_lin, e_quad, n_lin, n_cub, d_lin = rows
    ceiling = 1.0 / c if c > 0 else math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cx = c * x
        s = 1.0 - cx
        ss = s * s
        exponent = (x / s) * e_lin + (x * (1.0 + cx) / ss) * e_quad
        num = ((x + delta * x * x) / ss) * n_lin + (x * x / (ss * s)) * n_cub
        floor = (cx / s) * d_lin
        arg = 2.0 * np.sqrt(num * (1.0 + floor))
        live = (x > 0.0) & (x < ceiling) & np.isfinite(arg) & np.isfinite(exponent)
        log_survival = -exponent + specfun.log_zk1(np.where(live, arg, 0.0)) - np.log1p(floor)
        prob = np.where(live, -np.expm1(log_survival), np.where(x > 0.0, 1.0, 0.0))
    if np.any(prob < -1e-12):
        raise ArithmeticError(f"outage probability clamp exceeded tolerance: {float(prob.min())!r}")
    return np.maximum(prob, 0.0)


def outage_sweep(config: SystemConfig, query: OutageQuery, powers) -> np.ndarray:
    """Exact outage probability at every point of a transmit-power sweep, in one call.

    `powers=(p1, p2, p3)` are equal-length arrays of linear powers; noises,
    channel gains and impairments come from `config`.  Point k equals
    outage_probability of the config with powers (p1[k], p2[k], p3[k]).
    """
    c, delta, rows = _closed_form(config, query.direction, _sweep_powers(powers))
    return _outage(query.x, c, delta, rows)


def outage_probability(config: SystemConfig, query: OutageQuery) -> float:
    """Exact outage probability Pr{SNDR_i <= x} over Rayleigh fading.

    Equals 1 identically once x reaches the SNDR ceiling 1/c (c > 0, the
    ceiling coefficient of model.derived_constants); below it the value is
    relatively accurate however small it is.  A one-point outage_sweep.
    """
    return float(outage_sweep(config, query, _own_powers(config))[0])


def outage_asymptotic(omega_i: float, omega_ri: float, c: float, x):
    """High-power outage floor, elementwise in x.

    omega_i c x / (omega_ri + c x (omega_i - omega_ri)) below the ceiling,
    1 at or above it, and 0 under ideal hardware where the outage vanishes
    asymptotically.
    """
    x = _check_threshold(x) + 0.0  # -0.0 + 0.0 is +0.0: no floor of -0
    _check_positive(omega_i=omega_i, omega_ri=omega_ri)
    if c == 0.0:
        return np.zeros(x.shape)[()]
    _check_positive(c=c)
    cx = c * x
    floor = np.ones(cx.shape)
    below = cx < 1.0
    floor[below] = omega_i * cx[below] / (omega_ri + cx[below] * (omega_i - omega_ri))
    return floor[()]


# Stopping rule of the SER quadrature (see _tanh_sinh).
SER_REL_TOL = 1e-9
# Step halvings past h = 1/32 before a point still over its tolerance raises.
_MAX_HALVINGS = 6
# The rule takes its nodes at t = k*h for |t| <= _T_MAX; the two ends it
# leaves out hold under 3e-23 of the range.
_T_MAX = 3.5


def _tanh_sinh_nodes(h: float, odd: bool = False):
    """Nodes and weights of the tanh-sinh rule on [0, 1] at step h (all k, or odd k only).

    Node 1/(1 + e^(-pi sinh t)) and weight h*pi*cosh(t)*e/(1+e)^2 at t = k*h,
    with e = e^(-pi |sinh t|), so that nodes near 0 keep their full relative
    precision.
    """
    k = np.arange(-int(_T_MAX / h), int(_T_MAX / h) + 1)
    t = k[k % 2 == 1] * h if odd else k * h
    e = np.exp(-math.pi * np.abs(np.sinh(t)))
    node = np.where(t < 0.0, e, 1.0) / (1.0 + e)
    return node, h * math.pi * np.cosh(t) * e / (1.0 + e) ** 2


def _tanh_sinh(integrand, n: int, b: float) -> np.ndarray:
    """Tanh-sinh quadrature (Takahasi & Mori 1974) of n integrands over [0, b], all at once.

    integrand(u, row) evaluates the integrands row[k] at the nodes u, one
    row of values each.  The rule packs its nodes double-exponentially close
    to both ends of the range.  One call at h = 1/32 gives every value; the
    rule at h = 1/16, on every other of its nodes, gives the error estimate
    |I(1/32) - I(1/16)|.  A point is done once that change is at most
    SER_REL_TOL*|I| (so an integral of exactly 0 is done at once); until then
    each halving of h evaluates only the new nodes, and only for the points
    still open.  A point still open after _MAX_HALVINGS halvings raises
    QuadratureError with its last change.
    """
    rows = np.arange(n)
    h = 1.0 / 32.0
    node, weight = _tanh_sinh_nodes(h)
    values = np.broadcast_to(integrand(b * node, rows), (n, node.size))
    total = b * (values @ weight)
    change = np.abs(total - 2.0 * b * (values[:, ::2] @ weight[::2]))
    for halving in range(_MAX_HALVINGS + 1):
        rows = rows[change[rows] > SER_REL_TOL * np.abs(total[rows])]
        if not rows.size:
            return total
        if halving == _MAX_HALVINGS:
            raise QuadratureError(
                f"SER quadrature still over its tolerance after {_MAX_HALVINGS} step halvings "
                f"at sweep point {rows[0]}",
                achieved_error=float(change[rows[0]]),
            )
        h *= 0.5
        node, weight = _tanh_sinh_nodes(h, odd=True)
        refined = 0.5 * total[rows] + b * (integrand(b * node, rows) @ weight)
        change[rows] = np.abs(refined - total[rows])
        total[rows] = refined


def _ser_from_cdf(cdf, n: int, c: float, mod: Modulation) -> np.ndarray:
    """SER = alpha*sqrt(beta)/(2 sqrt(pi)) * int_0^inf e^{-beta x} x^{-1/2} cdf(x) dx, n points at once.

    cdf(x, row) evaluates the CDFs of points row[k] at x, one row each.  The
    substitution x = u^2 removes the inverse-square-root singularity; the
    region beyond the ceiling, where the CDF is identically 1, integrates to
    the exact tail (alpha/2) * erfc(sqrt(beta/c)), so the quadrature range
    [0, b] ends at the kink u = 1/sqrt(c), or earlier at sqrt(max(50/beta,
    50)), past which e^{-beta u^2} leaves nothing to integrate.  The two hard
    parts of the integrand sit at the ends of that range: the CDF's x*ln(x)
    term at 0 (z*K1(z) = 1 + (z^2/2)(ln(z/2) + gamma - 1/2) + O(z^4 ln z),
    DLMF 10.31.1, with z^2 proportional to x), and at high power the thin
    layer below the ceiling where the CDF climbs to 1; the tanh-sinh rule
    crowds its nodes into both.  SER_REL_TOL applies to the quadrature part
    at every power, the CDF being relatively accurate down to x = 0.
    """
    alpha, beta = mod.alpha, mod.beta
    scale = alpha * math.sqrt(beta) / math.sqrt(math.pi)
    b = math.sqrt(max(50.0 / beta, 50.0))
    tail = 0.0
    if c > 0:
        if beta / c < math.inf:  # beyond an overflowing ceiling the tail is exactly 0
            tail = 0.5 * alpha * specfun.erfc(math.sqrt(beta / c))
        b = min(math.sqrt(1.0 / c), b)

    def integrand(u, row):
        x = u * u
        return scale * np.exp(-beta * x) * cdf(x, row)

    return _tanh_sinh(integrand, n, b) + tail


def ser_sweep(config: SystemConfig, direction: Direction, mod: Modulation, powers) -> np.ndarray:
    """Symbol error rate at every point of a transmit-power sweep, in one quadrature.

    `powers` as in outage_sweep; point k equals ser of the config with the
    powers of point k.
    """
    c, delta, rows = _closed_form(config, direction, _sweep_powers(powers))
    return _ser_from_cdf(lambda x, row: _outage(x, c, delta, rows[:, row, None]),
                         rows.shape[1], c, mod)


def ser(config: SystemConfig, direction: Direction, mod: Modulation) -> float:
    """Symbol error rate by numerical integration of the exact outage CDF; a one-point ser_sweep."""
    return float(ser_sweep(config, direction, mod, _own_powers(config))[0])


def _small_c_limit(mod: Modulation, gain_ratio: float, c: float):
    """The SER floor's small-c limit gain_ratio*alpha*c/(4*beta) where it is the floor to rounding, else None.

    gain_ratio is omega_i/omega_ri.  Relative to the floor, the limit's first
    correction is -(3/2)(c/beta)(gain_ratio - 1), from the (cx)^2 term of the
    outage floor against the e^{-beta x} x^{3/2} moment; for equal gains the
    rest is O(sqrt(beta/c) e^{-beta/c}).  Both are below the unit roundoff
    2^-53 once (c/beta)(1 + (3/2)|gain_ratio - 1|) is.
    """
    q = c / mod.beta
    if q * (1.0 + 1.5 * abs(gain_ratio - 1.0)) > 2.0**-53:
        return None
    return mod.alpha * (gain_ratio * q) / 4.0


def ser_asymptotic(mod: Modulation, c: float) -> float:
    """High-power SER floor for identical average channel gains.

    (alpha c / (2 beta sqrt(pi))) * gamma(3/2, beta/c) + (alpha/2) * erfc(sqrt(beta/c)).
    Strictly positive for any c > 0: impairments leave an irreducible error
    floor that no transmit power can cross.  Finite at every positive double
    c: the small-c limit serves where c/beta is tiny, and where beta/c is
    below 2^-106 the gamma term, at most sqrt(beta/(pi c))/3 of alpha, is
    below rounding and is dropped.
    """
    _check_positive(c=c)  # under ideal hardware the floor is 0
    limit = _small_c_limit(mod, 1.0, c)
    if limit is not None:
        return limit
    ratio = mod.beta / c
    value = 0.5 * specfun.erfc(math.sqrt(ratio))
    if ratio > 2.0**-106:
        value += (c / (2.0 * mod.beta * math.sqrt(math.pi))) * specfun.lower_incomplete_gamma(1.5, ratio)
    return mod.alpha * value


def ser_floor_quadrature(mod: Modulation, omega_i: float, omega_ri: float, c: float) -> float:
    """High-power SER floor for arbitrary channel gains by quadrature.

    Applies the CDF-integral SER formula to the asymptotic outage floor.
    Extends the closed-form floor, which is only stated for omega_i ==
    omega_ri, and reduces to it in that case.  Where c/beta is so small that
    the small-c limit (omega_i/omega_ri) * alpha*c/(4*beta) is the floor to
    rounding, it is that limit, as in ser_asymptotic.
    """
    _check_positive(omega_i=omega_i, omega_ri=omega_ri, c=c)
    limit = _small_c_limit(mod, omega_i / omega_ri, c)
    if limit is not None:
        return limit
    value = _ser_from_cdf(lambda x, row: outage_asymptotic(omega_i, omega_ri, c, x), 1, c, mod)
    return float(value[0])


def invert_impairment_for_op(target_op: float, x: float, omega_i: float, omega_ri: float) -> float:
    """Largest impairment severity c whose outage floor stays at target_op.

    The floor is a Moebius function of c*x, so the inverse is closed form:
    c = target * omega_ri / (x * (omega_i - target * (omega_i - omega_ri))).
    """
    if not 0.0 < target_op < 1.0:
        raise InfeasibleTargetError("target outage probability must lie in (0, 1)")
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"threshold x must be finite and strictly positive, got {x!r}")
    _check_positive(omega_i=omega_i, omega_ri=omega_ri)
    denom = x * (omega_i - target_op * (omega_i - omega_ri))
    if denom <= 0:
        raise InfeasibleTargetError("no finite impairment bound for these parameters")
    c = target_op * omega_ri / denom
    if not math.isfinite(c):
        raise InfeasibleTargetError(f"the impairment bound overflows at threshold x = {x!r}; raise x")
    check = outage_asymptotic(omega_i, omega_ri, c, x)
    if abs(check - target_op) > 1e-12 * max(target_op, 1.0):
        raise ArithmeticError(
            f"inversion self-check failed: forward value {check!r} vs target {target_op!r}"
        )
    return c


def _positive_double(k: int) -> float:
    """The k-th positive double: their bit patterns count up from ulp(0.0) (k = 1) to float max."""
    return struct.unpack("<d", struct.pack("<q", k))[0]


def invert_impairment_for_ser(target_ser: float, mod: Modulation) -> float:
    """Largest impairment severity c whose SER floor does not exceed target_ser.

    One bisection over the positive doubles, from ulp(0.0) up to float max,
    by their bit patterns, which count up in the same order: it keeps
    ser_asymptotic(lo) <= target < ser_asymptotic(hi) and stops once lo and
    hi are adjacent doubles, so the returned lo is exact to the double.
    Raises InfeasibleTargetError when no positive double meets the target.
    """
    lo, hi = 1, 0x7FEFFFFFFFFFFFFF  # ulp(0.0) and float max
    low, high = ser_asymptotic(mod, _positive_double(lo)), ser_asymptotic(mod, _positive_double(hi))
    if not (target_ser > 0.0 and low <= target_ser < high):
        raise InfeasibleTargetError(
            f"no positive severity meets target SER {target_ser!r}: it must be > 0, at least "
            f"{low!r} (the floor at ulp(0.0)) and below {high!r} (the floor at float max)"
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ser_asymptotic(mod, _positive_double(mid)) <= target_ser:
            lo = mid
        else:
            hi = mid
    return _positive_double(lo)
