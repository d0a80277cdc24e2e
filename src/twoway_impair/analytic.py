"""Closed-form and quadrature-based performance metrics.

Exact outage probability of the two-way AF link with relay hardware
impairments, its high-power floor, the symbol error rate as a weighted
integral of the outage CDF, the closed-form SER floor for symmetric channel
gains, and inversion utilities that bound the tolerable impairment severity
for a given outage or SER target.

Numerical strategy for the exact outage expression: the product
exp(-E) * (arg/D) * K1(arg) is assembled in log space through the
exponentially scaled Bessel function, so the result stays accurate all the
way to the saturation threshold x -> 1/c where the raw exponential
underflows while the true probability tends to 1.

Both the outage and the SER are computed for a whole transmit-power sweep at
once (outage_sweep, ser_sweep): one numpy kernel evaluates the closed form
for every sweep point, and the SER integral runs an adaptive G10/K21
Gauss-Kronrod rule over all points together, to the fixed tolerances
SER_REL_TOL and SER_ABS_TOL.  outage_probability and ser are one-point
sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .model import Direction, SystemConfig, derived_constants, link_params

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


@dataclass(frozen=True)
class Modulation:
    """Constants (alpha, beta) of the conditional error rate alpha*Q(sqrt(2*beta*snr))."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"modulation constant {name} must be finite and positive, got {value!r}")


MODULATIONS = {
    "bpsk": Modulation(alpha=1.0, beta=1.0),
}


@dataclass(frozen=True)
class OutageQuery:
    """Outage threshold (linear SNDR) and detection direction."""

    x: float
    direction: Direction

    def __post_init__(self):
        if not self.x >= 0:
            raise ValueError("outage threshold must be nonnegative")


def _sweep_powers(powers):
    """The (p1, p2, p3) arrays of a power sweep, checked: equal length, finite, positive."""
    p1, p2, p3 = (np.atleast_1d(np.asarray(p, dtype=float)) for p in powers)
    if not (p1.ndim == 1 and p1.shape == p2.shape == p3.shape and p1.size):
        raise ValueError("a power sweep needs three nonempty 1-D arrays of equal length")
    for name, p in (("p1", p1), ("p2", p2), ("p3", p3)):
        if not np.all(np.isfinite(p) & (p > 0.0)):
            raise ValueError(f"{name} must be finite and strictly positive at every sweep point")
    return p1, p2, p3


def _own_powers(config: SystemConfig):
    """A one-point sweep at the config's own powers."""
    return np.array([config.p1]), np.array([config.p2]), np.array([config.p3])


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
    below it the Rayleigh average reduces to an exponential factor times
    arg*K1(arg), evaluated in log space.
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
        dfac = 1.0 + (cx / s) * d_lin
        arg = 2.0 * np.sqrt(num * dfac)
        live = (x > 0.0) & (x < ceiling) & np.isfinite(arg) & np.isfinite(exponent)
        arg = np.where(live, arg, 1.0)
        # arg * K1(arg) <= 1, written via the scaled Bessel so the log is exact;
        # where num underflows, arg is 0 and arg * K1(arg) takes its limit 1
        zk1 = np.where(arg > 0.0, arg * specfun.bessel_k1_scaled(np.where(arg > 0.0, arg, 1.0)), 1.0)
        log_term = np.log(zk1 / dfac)
        prob = np.where(live, -np.expm1(-exponent - arg + log_term), np.where(x > 0.0, 1.0, 0.0))
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
    ceiling coefficient of model.derived_constants).  Below
    the ceiling the Rayleigh average reduces to an exponential factor times
    arg*K1(arg), evaluated in log space; any [0, 1] clamp applied against
    floating rounding is smaller than 1e-12.  A one-point outage_sweep.
    """
    return float(outage_sweep(config, query, _own_powers(config))[0])


def outage_asymptotic(omega_i: float, omega_ri: float, c: float, x):
    """High-power outage floor, elementwise in x.

    omega_i c x / (omega_ri + c x (omega_i - omega_ri)) below the ceiling,
    1 at or above it, and 0 under ideal hardware where the outage vanishes
    asymptotically.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise ValueError("outage threshold must be nonnegative")
    if not (omega_i > 0 and omega_ri > 0):
        raise ValueError("average channel gains must be positive")
    if c == 0.0:
        return np.zeros(x.shape)[()]
    if c < 0:
        raise ValueError("c must be nonnegative")
    cx = c * x
    floor = np.ones(cx.shape)
    below = cx < 1.0
    floor[below] = omega_i * cx[below] / (omega_ri + cx[below] * (omega_i - omega_ri))
    return floor[()]


# Gauss-Kronrod pair on [-1, 1] (QUADPACK qk21; Piessens et al. 1983): the 11
# nonnegative Kronrod abscissae in decreasing order and their weights, then
# the weights of the 10-point Gauss rule at the odd-indexed abscissae.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208643474262, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _symmetric(half) -> np.ndarray:
    """Values at the 21 nodes from those at the 11 nonnegative ones (decreasing order)."""
    half = np.asarray(half)
    return np.concatenate([half[:-1], half[::-1]])


_GK_NODES = _symmetric(_XGK) * np.repeat([-1.0, 1.0], [10, 11])
_GAUSS_HALF = np.zeros(11)
_GAUSS_HALF[1::2] = _WG
# Columns: Kronrod weights, Gauss weights (zero at the Kronrod-only nodes).
_GK_WEIGHTS = np.stack([_symmetric(_WGK), _symmetric(_GAUSS_HALF)], axis=1)


def _gk21_panels(integrand, row, a, b):
    """K21 value and |K21 - G10| on the panels [a, b] of the integrands `row`."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = integrand(center[:, None] + half[:, None] * _GK_NODES, row) @ _GK_WEIGHTS
    kronrod = half * values[:, 0]
    return kronrod, np.abs(kronrod - half * values[:, 1])


def _gk21(integrand, n: int, edges: np.ndarray) -> np.ndarray:
    """Adaptive G10/K21 quadrature of n integrands over [edges[0], edges[-1]], all at once.

    integrand(u, row) evaluates integrand row[k] at the nodes u[k, :].  Every
    point starts from the panels between consecutive `edges`, and each round
    evaluates every new panel of every point in one call.  A point is done
    once the summed embedded error |K21 - G10| of its panels is at most
    max(SER_ABS_TOL, SER_REL_TOL*|I|); until then each of its panels whose
    error exceeds its share of that tolerance, in proportion to its width, is
    bisected.  A point that would need more than SER_MAX_PANELS panels (its
    initial panels included) raises QuadratureError with the error estimate
    reached.
    """
    length = edges[-1] - edges[0]
    row = np.repeat(np.arange(n), len(edges) - 1)
    a = np.tile(edges[:-1], n)
    b = np.tile(edges[1:], n)
    value, error = _gk21_panels(integrand, row, a, b)
    while True:
        total = np.bincount(row, value, n)
        total_error = np.bincount(row, error, n)
        tol = np.maximum(SER_ABS_TOL, SER_REL_TOL * np.abs(total))
        split = (total_error > tol)[row] & (error * length > tol[row] * (b - a))
        if not split.any():
            return total
        panels = np.bincount(row, minlength=n) + np.bincount(row[split], minlength=n)
        if np.any(panels > SER_MAX_PANELS):
            k = int(np.argmax(panels > SER_MAX_PANELS))
            raise QuadratureError(
                f"SER quadrature needs more than {SER_MAX_PANELS} subintervals at sweep point {k}",
                achieved_error=float(total_error[k]),
            )
        keep = ~split
        mid = 0.5 * (a[split] + b[split])
        new_row = np.concatenate([row[split], row[split]])
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_value, new_error = _gk21_panels(integrand, new_row, new_a, new_b)
        row = np.concatenate([row[keep], new_row])
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        value = np.concatenate([value[keep], new_value])
        error = np.concatenate([error[keep], new_error])


# Stopping rule of the SER quadrature (see _gk21).
SER_REL_TOL = 1e-9
SER_ABS_TOL = 1e-12
SER_MAX_PANELS = 200
# Initial panels of the SER integral below the ceiling: edges at
# ceiling*(1 - g^-k), k = 0..K-1, then the ceiling; the last of the K panels
# spans g^-(K-1) of the range.
_CEILING_GRADING = 4.0
_CEILING_PANELS = 10
# The first initial panel [0, e1] is split at e1*g^-k, k = K..1, so the
# innermost panel spans g^-K of it.
_ORIGIN_GRADING = 2.0
_ORIGIN_PANELS = 8


def _ser_from_cdf(cdf, n: int, c: float, mod: Modulation) -> np.ndarray:
    """SER = alpha*sqrt(beta)/(2 sqrt(pi)) * int_0^inf e^{-beta x} x^{-1/2} cdf(x) dx, n points at once.

    cdf(x, row) evaluates the CDF of points row[k] at x[k, :].  The
    substitution x = u^2 removes the inverse-square-root singularity; the
    region beyond the ceiling, where the CDF is identically 1, integrates to
    the exact tail (alpha/2) * erfc(sqrt(beta/c)), so no quadrature panel
    straddles the kink at x = 1/c.  The initial panels are graded at both
    ends of the range, so that a sweep usually needs no bisection at all.
    The tolerances SER_REL_TOL and SER_ABS_TOL apply to the quadrature part
    of the SER.
    """
    alpha, beta = mod.alpha, mod.beta
    scale = alpha * math.sqrt(beta) / math.sqrt(math.pi)
    u_cap = math.sqrt(max(50.0 / beta, 50.0))
    tail = 0.0
    edges = np.array([0.0, u_cap])
    if c > 0:
        tail = 0.5 * alpha * specfun.erfc(math.sqrt(beta / c))
        ceiling = math.sqrt(1.0 / c)
        if ceiling < u_cap:
            # At high power the exact CDF climbs to 1 in a layer below the
            # ceiling whose width shrinks like p^(-1/2); a single panel's
            # nodes can miss it, so the first panels are graded towards it.
            edges = np.append(ceiling * (1.0 - _CEILING_GRADING ** -np.arange(_CEILING_PANELS)), ceiling)
    # Near x = 0 the CDF has an x*ln(x) term (z*K1(z) = 1 + (z^2/2)(ln(z/2) +
    # gamma - 1/2) + O(z^4 ln z), DLMF 10.31.1, with z^2 proportional to x),
    # which is u^2*ln(u) in u and converges slowly on a panel that touches 0;
    # bisection would halve that panel once per round, so the first panel is
    # graded towards 0 up front.
    origin = edges[1] * _ORIGIN_GRADING ** -np.arange(_ORIGIN_PANELS, 0, -1)
    edges = np.concatenate([edges[:1], origin, edges[1:]])

    def integrand(u, row):
        x = u * u
        return scale * np.exp(-beta * x) * cdf(x, row)

    return _gk21(integrand, n, edges) + tail


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


def ser_asymptotic(mod: Modulation, c: float) -> float:
    """High-power SER floor for identical average channel gains.

    (alpha c / (2 beta sqrt(pi))) * gamma(3/2, beta/c) + (alpha/2) * erfc(sqrt(beta/c)).
    Strictly positive for any c > 0: impairments leave an irreducible error
    floor that no transmit power can cross.
    """
    if not c > 0:
        raise ValueError("SER floor is 0 under ideal hardware; requires c > 0")
    ratio = mod.beta / c
    if math.isinf(ratio):
        # the limit of the floor as beta/c grows: gamma(3/2, inf) = sqrt(pi)/2, erfc(inf) = 0
        return mod.alpha * c / (4.0 * mod.beta)
    value = (mod.alpha * c / (2.0 * mod.beta * math.sqrt(math.pi))) * specfun.lower_incomplete_gamma(1.5, ratio)
    return value + 0.5 * mod.alpha * specfun.erfc(math.sqrt(ratio))


def ser_floor_quadrature(mod: Modulation, omega_i: float, omega_ri: float, c: float) -> float:
    """High-power SER floor for arbitrary channel gains by quadrature.

    Applies the CDF-integral SER formula to the asymptotic outage floor.
    Extends the closed-form floor, which is only stated for omega_i ==
    omega_ri, and reduces to it in that case.
    """
    if not c > 0:
        raise ValueError("SER floor is 0 under ideal hardware; requires c > 0")
    value = _ser_from_cdf(lambda x, row: outage_asymptotic(omega_i, omega_ri, c, x), 1, c, mod)
    return float(value[0])


def invert_impairment_for_op(
    target_op: float,
    x: float,
    omega_i: float,
    omega_ri: float,
) -> float:
    """Largest impairment severity c whose outage floor stays at target_op.

    The floor is a Moebius function of c*x, so the inverse is closed form:
    c = target * omega_ri / (x * (omega_i - target * (omega_i - omega_ri))).
    """
    if not 0.0 < target_op < 1.0:
        raise InfeasibleTargetError("target outage probability must lie in (0, 1)")
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"threshold x must be finite and strictly positive, got {x!r}")
    for name, value in (("omega_i", omega_i), ("omega_ri", omega_ri)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"average channel gain {name} must be finite and positive, got {value!r}")
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


def invert_impairment_for_ser(target_ser: float, mod: Modulation) -> float:
    """Impairment severity c whose SER floor equals target_ser (bisection).

    The floor increases strictly with c and spans (0, alpha/2), so a
    geometric bracket around the small-c approximation alpha*c/(4*beta)
    always exists; bisection stops once the bracket is below 1e-12 relative.
    """
    if not 0.0 < target_ser < 0.5 * mod.alpha:
        raise InfeasibleTargetError(
            f"target SER must lie in (0, alpha/2) = (0, {0.5 * mod.alpha!r})"
        )
    guess = max(4.0 * mod.beta * target_ser / mod.alpha, 1e-300)
    lo = hi = guess
    for _ in range(2000):
        if ser_asymptotic(mod, lo) <= target_ser:
            break
        lo *= 0.25
    else:
        raise ArithmeticError("failed to bracket the SER floor from below")
    for _ in range(2000):
        if ser_asymptotic(mod, hi) >= target_ser:
            break
        hi *= 4.0
    else:
        raise ArithmeticError("failed to bracket the SER floor from above")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-13 * mid:
            break
        if ser_asymptotic(mod, mid) < target_ser:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
