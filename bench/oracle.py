"""Reference values for the benchmark, computed apart from the package.

Everything here starts from the system model's explicit-gain SNDR at
terminal T_i,

    SNDR = rho_i rho_ri p_ri / ( rho_i (n3 + kr^2 S) + (rho_i kt^2 p3 + n_i) / G^2 ),
    S = rho_i p_i + rho_ri p_ri,   1/G^2 = ((1 + khat^2) S + n3) / p3,

where kr is the relay's true receive EVM and khat the value its gain uses, so
a relay that misjudges its own receive EVM is covered from the start.  No
code of the package (`model`, `analytic`, `specfun`) is imported.

Outage.  With the own-channel gain u = rho_i fixed, the SNDR's denominator is
linear in the partner gain v = rho_ri, so SNDR <= x is a linear condition on
v: it always holds when u <= u0 = x n_i (1 + khat^2) / (p3 (1 - x B)), with
B = kr^2 + kt^2 (1 + khat^2), and otherwise reads v <= x D0(u) / a(u).  The
survival probability is therefore a 1-D integral of an exponential survival
term over u, which becomes, with t = u - u0 and t = t* e^y,

    Pr{SNDR > x} = exp(-u0/om_i - b) (t*/om_i) * int exp(y - 2 z cosh y) dy.

The y-integrand is smooth, strictly log-concave and decays at least
exponentially on both sides of its peak, so a trapezoid rule on a grid scaled
to the peak converges geometrically; it is evaluated in log space.

SER.  alpha sqrt(beta)/(2 sqrt(pi)) int_0^inf e^{-beta x} x^{-1/2} F(x) dx over
the oracle CDF F, with x = u^2 and composite Gauss-Legendre in u; the region
beyond the ceiling 1/B, where F = 1, is integrated exactly.  The same nodes
give the second moment of alpha Q(sqrt(2 beta SNDR)), which sets the CLT band
for Monte-Carlo SER rows.

Floors are the paper's closed forms, evaluated through scipy.special.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

# Trapezoid grid for the y-integral, in units of the peak's curvature width.
_S_STEP = 0.3
_S_NODES = np.arange(-40.0, 10.0 + 1e-12, _S_STEP)

# Composite Gauss-Legendre rule for the SER integral in u = sqrt(x): uniform
# panels, with the end ones split geometrically towards u = 0, where the CDF
# behaves like u^2 log u, and towards the ceiling, where at high power the CDF
# climbs to 1 in a thin layer.
_GL_PANELS = 12
_GL_GRADING = 12
_GL_ORDER = 10
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_ORDER)

# Past beta*u^2 = 60 the SER integrand is below e^-60 of its scale.
_U_CAP_EXPONENT = 60.0


@dataclass(frozen=True)
class Link:
    """The powers-free part of a configuration, as written to a config file."""

    n1: float
    n2: float
    n3: float
    omega1: float
    omega2: float
    kappa_t: float
    kappa_r: float
    kappa_r_assumed: float | None = None

    @property
    def kappa_hat(self) -> float:
        return self.kappa_r if self.kappa_r_assumed is None else self.kappa_r_assumed

    @property
    def ceiling_coeff(self) -> float:
        """B, with SNDR < 1/B for every channel draw (B = c for a matched relay)."""
        kt2, kr2, kh2 = self.kappa_t**2, self.kappa_r**2, self.kappa_hat**2
        return kr2 + kt2 * (1.0 + kh2)

    def roles(self, direction: int):
        """(n_i, omega_i, omega_ri) seen from the receiving terminal."""
        if direction == 1:
            return self.n1, self.omega1, self.omega2
        return self.n2, self.omega2, self.omega1


def default_powers(p1_dbw):
    """p1, p2, p3 in watts under the CLI's default coupling p2 = p1, p3 = p1/2."""
    p1 = 10.0 ** (np.asarray(p1_dbw, dtype=float) / 10.0)
    return p1, p1, 0.5 * p1


def _log_j(z):
    """log of int exp(y - 2 z cosh y) dy over the real line (which is log 2K1(2z))."""
    y_peak = np.arcsinh(0.5 / z)
    root = np.sqrt(4.0 * z * z + 1.0)           # 2 z cosh(y_peak)
    g_peak = y_peak - root
    width = root ** -0.5                          # 1/sqrt(-g''(y_peak))
    d = width[:, None] * _S_NODES[None, :]
    y = y_peak[:, None] + d
    # cosh(y) - cosh(y_peak) without cancellation
    dcosh = 2.0 * np.sinh(y_peak[:, None] + 0.5 * d) * np.sinh(0.5 * d)
    vals = np.exp(d - 2.0 * z[:, None] * dcosh)
    return g_peak + np.log(width * _S_STEP * vals.sum(axis=1))


def log_survival(link: Link, direction: int, x, p1, p2, p3) -> np.ndarray:
    """log Pr{SNDR_i > x}; broadcasts over x and the powers (-inf at and above the ceiling)."""
    x, p1, p2, p3 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, p1, p2, p3)))
    shape = x.shape
    x, p1, p2, p3 = (v.ravel() for v in (x, p1, p2, p3))
    p_i, p_ri = (p1, p2) if direction == 1 else (p2, p1)
    n_i, om_i, om_ri = link.roles(direction)
    kt2, kh2 = link.kappa_t**2, link.kappa_hat**2
    b_coeff = link.ceiling_coeff
    gain = 1.0 + kh2

    out = np.full(x.shape, -np.inf)
    out[x == 0.0] = 0.0
    live = (x > 0.0) & (1.0 - x * b_coeff > 0.0)
    if live.any():
        x, p_i, p_ri, p3 = x[live], p_i[live], p_ri[live], p3[live]
        s = 1.0 - x * b_coeff
        u0 = x * n_i * gain / (p3 * s)
        # D0(u) = e2 u^2 + e1 u + e0, re-centred at u0
        e2 = p_i * b_coeff
        e1 = link.n3 * (1.0 + kt2) + n_i * p_i * gain / p3
        e0 = n_i * link.n3 / p3
        d0 = (e2 * u0 + e1) * u0 + e0
        d1 = 2.0 * e2 * u0 + e1
        scale = x / (p_ri * s * om_ri)
        a_coef, b_coef, g_coef = scale * d0, scale * d1, scale * e2
        lam = 1.0 / om_i + g_coef
        t_peak = np.sqrt(a_coef / lam)
        z = np.sqrt(a_coef * lam)
        out[live] = np.minimum(-u0 / om_i - b_coef + np.log(t_peak / om_i) + _log_j(z), 0.0)
    return out.reshape(shape)


def outage(link: Link, direction: int, x, p1, p2, p3) -> np.ndarray:
    """Pr{SNDR_i <= x}; broadcasts over x and the powers."""
    return -np.expm1(log_survival(link, direction, x, p1, p2, p3))


def outage_floor(link: Link, direction: int, x: float) -> float:
    """High-power outage floor om_i B x / (om_ri + B x (om_i - om_ri)); 0 for ideal hardware."""
    _, om_i, om_ri = link.roles(direction)
    b_coeff = link.ceiling_coeff
    if b_coeff == 0.0:
        return 0.0
    bx = b_coeff * x
    if bx >= 1.0:
        return 1.0
    return om_i * bx / (om_ri + bx * (om_i - om_ri))


def _gl_nodes(upper: float):
    uniform = np.linspace(0.0, upper, _GL_PANELS + 1)
    graded = uniform[1] * 0.5 ** np.arange(_GL_GRADING, 0, -1)
    edges = np.concatenate(([0.0], graded, uniform[1:-1], upper - graded[::-1], [upper]))
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    w = (half[:, None] * _GL_W[None, :]).ravel()
    return u, w


def _ser_moments(cdf, b_coeff: float, alpha: float, beta: float):
    """(E[h], E[h^2]) of h = (alpha/2) erfc(sqrt(beta SNDR)) for an SNDR with CDF `cdf`."""
    u_cap = math.sqrt(_U_CAP_EXPONENT / beta)
    if b_coeff > 0.0:
        upper = min(1.0 / math.sqrt(b_coeff), u_cap)
        h_ceiling = 0.5 * alpha * special.erfc(math.sqrt(beta / b_coeff))
    else:
        upper, h_ceiling = u_cap, 0.0
    u, w = _gl_nodes(upper)
    x = u * u
    dens = alpha * math.sqrt(beta / math.pi) * np.exp(-beta * x) * cdf(x)
    h = 0.5 * alpha * special.erfc(np.sqrt(beta * x))
    first = float(np.dot(w, dens)) + h_ceiling
    second = float(np.dot(w, 2.0 * h * dens)) + h_ceiling * h_ceiling
    return first, second


def ser(link: Link, direction: int, p1: float, p2: float, p3: float,
        alpha: float = 1.0, beta: float = 1.0):
    """(SER, second moment of the conditional error rate) at one power point."""
    return _ser_moments(lambda x: outage(link, direction, x, p1, p2, p3),
                        link.ceiling_coeff, alpha, beta)


def ser_floor(link: Link, direction: int, alpha: float = 1.0, beta: float = 1.0) -> float:
    """High-power SER floor; None under ideal hardware, where it is 0."""
    _, om_i, om_ri = link.roles(direction)
    b_coeff = link.ceiling_coeff
    if b_coeff == 0.0:
        return None
    if om_i == om_ri:
        r = beta / b_coeff
        lower_gamma = special.gammainc(1.5, r) * special.gamma(1.5)
        return (alpha * b_coeff / (2.0 * beta * math.sqrt(math.pi)) * lower_gamma
                + 0.5 * alpha * special.erfc(math.sqrt(r)))
    def floor_cdf(x):
        bx = np.minimum(b_coeff * x, 1.0)
        return om_i * bx / (om_ri + bx * (om_i - om_ri))

    return _ser_moments(floor_cdf, b_coeff, alpha, beta)[0]


def wilson_contains(successes: int, trials: int, p: float, z: float = 4.0) -> bool:
    """True when p lies in the Wilson score interval of successes/trials at z."""
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
    return center - margin <= p <= center + margin
