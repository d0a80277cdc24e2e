"""Special functions used by the closed-form performance expressions.

The first-order modified Bessel function of the second kind K1 (plain,
exponentially scaled, and as log(z*K1(z))), the complementary error function,
the lower incomplete gamma function of order 3/2 (the only order the SER floor
needs) and the Gaussian Q-function, in double precision, pure, and accurate to
1e-12 relative: at least one order tighter than any quadrature tolerance that
consumes them.

The K1 kernels work elementwise on a number or a numpy array, so a whole power
sweep, or every quadrature node of one, costs one call.  They follow the
classical two-branch scheme: on z <= 2 the ascending series (DLMF 10.31.1),
with a fixed number of terms, summed by Horner and written once as
z*K1(z) - 1; on z > 2 a Chebyshev fit of exp(z)*K1(z)*sqrt(z) in the
variable 4/z - 1, summed by Clenshaw's recurrence, with coefficients
recomputed from a high-precision reference (tools/gen_k1_coeffs.py).  Each
recurrence is plain arithmetic that runs unchanged on a float or on an array
of any shape; bessel_k1_scaled and log_zk1 are each one np.piecewise over
the two recurrences, and bessel_k1 is exp(-z) times bessel_k1_scaled.  erfc,
the Q-function and the incomplete gamma function take single numbers; they
serve the closed-form floors and the quadrature's exact tail.
"""

from __future__ import annotations

import math

import numpy as np

_EULER_GAMMA = 0.5772156649015328606065120900824024

# Chebyshev coefficients of f(t) = exp(z)*K1(z)*sqrt(z), t = 4/z - 1, z in
# [2, inf), cut where they fall below 1e-15; the sum stays within 1e-15
# relative of exp(z)*K1(z) on (2, 700].  Regenerate with tools/gen_k1_coeffs.py.
_K1E_CHEB = (
    2.7206261904844426694,
    0.10392373657681723844,
    -0.0028578168596227793868,
    0.00019521551847135163111,
    -0.0000193619797416608296,
    2.4064849478372171171e-6,
    -3.5019606030878125421e-7,
    5.7410841254500492923e-8,
    -1.0345762465678097027e-8,
    2.0150497551970346161e-9,
    -4.1903547593419255842e-10,
    9.2183151876053141258e-11,
    -2.1299678384277910216e-11,
    5.1396396734823435404e-12,
    -1.2891739609498229352e-12,
    3.3484196660522431201e-13,
    -8.9767051820101460692e-14,
    2.4771544242195986813e-14,
    -7.0198370892147688513e-15,
    2.0387031662398608799e-15,
)

# Horner coefficients (highest power of q first) of the two series sums of
# z*K1(z) on z <= 2: the first tuple is sum q^k/(k!(k+1)!), the second weights
# each term by psi(k+1) + psi(k+2).  With q <= 1 the first omitted term
# (k = 14) is below 1e-22 of the sums.
_K1_SERIES_TERMS = 14
_K1_SERIES = (
    tuple(1.0 / (math.factorial(k) * math.factorial(k + 1)) for k in reversed(range(_K1_SERIES_TERMS))),
    tuple((2.0 * (sum(1.0 / j for j in range(1, k + 1)) - _EULER_GAMMA) + 1.0 / (k + 1))
          / (math.factorial(k) * math.factorial(k + 1)) for k in reversed(range(_K1_SERIES_TERMS))),
)


def _zk1_minus_one(z):
    """z*K1(z) - 1 on 0 < z <= 2, from the ascending series (DLMF 10.31.1 with n=1).

    z*K1(z) = 1 + q*(2 ln(z/2) S0 - S1) with q = z^2/4, S0 = sum q^k/(k!(k+1)!)
    and S1 the same sum with each term weighted by psi(k+1) + psi(k+2); the 1
    is taken out exactly, so the result keeps its relative precision as z ->
    0.  The sums are polynomials in q <= 1, evaluated together by Horner.
    z/2 is clamped at the smallest subnormal, the one z whose half rounds to
    0, so that z gives -0.0 as its neighbours do.
    """
    q = 0.25 * z * z
    s0 = s1 = 0.0
    for c0, c1 in zip(*_K1_SERIES):
        s0, s1 = s0 * q + c0, s1 * q + c1
    return q * (2.0 * np.log(np.maximum(0.5 * z, 5e-324)) * s0 - s1)


def _k1e_chebyshev(z):
    """exp(z)*K1(z) on z > 2: Clenshaw sum of the Chebyshev fit in t = 4/z - 1."""
    t = 4.0 / z - 1.0
    t2 = 2.0 * t
    b1 = b2 = 0.0
    for c in reversed(_K1E_CHEB[1:]):
        b1, b2 = t2 * b1 - b2 + c, b1
    return (t * b1 - b2 + 0.5 * _K1E_CHEB[0]) / np.sqrt(z)


def bessel_k1_scaled(z):
    """Exponentially scaled Bessel function exp(z) * K1(z), elementwise.

    Stays representable for arbitrarily large z (value ~ sqrt(pi/(2z)), 0 at
    z = inf); use this form whenever exp terms elsewhere cancel the e^{-z}
    decay.  Near 0 it is ~1/z, which overflows to inf (with numpy's overflow
    warning) for z below ~5.6e-309, the smallest subnormal included.  Accepts
    a number or an array; raises unless every z > 0.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(z > 0.0):
        raise ValueError(f"bessel_k1_scaled requires z > 0, got {float(z[~(z > 0.0)].flat[0])!r}")
    return np.piecewise(z, [z <= 2.0, z > 2.0],
                        [lambda zs: np.exp(zs) * ((1.0 + _zk1_minus_one(zs)) / zs), _k1e_chebyshev])[()]


def bessel_k1(z):
    """Modified Bessel function of the second kind, order one, elementwise.

    exp(-z) times bessel_k1_scaled(z): returns 0 once exp(-z) underflows
    (z > ~746); raises for z <= 0 where K1 diverges.  Accepts a number or an
    array.
    """
    scaled = bessel_k1_scaled(z)
    return np.exp(-np.asarray(z, dtype=float)) * scaled


def log_zk1(z):
    """log(z*K1(z)) of a number or array, elementwise for z >= 0.

    Keeps its relative precision as z -> 0, where it vanishes like (z^2/2) ln z:
    log1p of z*K1(z) - 1 on 0 < z <= 2, log(z*exp(z)*K1(z)) - z above.  It is
    0 at z = 0, -0.0 at the smallest subnormal as at its neighbours, and -inf
    at z = inf, where z*exp(z)*K1(z) would be inf * 0.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(z >= 0.0):
        raise ValueError(f"log_zk1 requires z >= 0, got {float(z[~(z >= 0.0)].flat[0])!r}")
    return np.piecewise(z, [(z > 0.0) & (z <= 2.0), (z > 2.0) & (z < np.inf), z == np.inf],
                        [lambda zs: np.log1p(_zk1_minus_one(zs)),
                         lambda zl: np.log(zl * _k1e_chebyshev(zl)) - zl, -np.inf])[()]


def erfc(x: float) -> float:
    """Complementary error function on finite reals.

    Thin wrapper over the C library kernel; it underflows gracefully to 0
    (values turn subnormal beyond |x| ~ 26.5, exactly 0 past ~27.2).
    """
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"erfc requires finite x, got {x!r}")
    return math.erfc(x)


def gaussian_q(x: float) -> float:
    """Gaussian Q-function, the standard normal tail Q(x) = 0.5*erfc(x/sqrt(2))."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"gaussian_q requires finite x, got {x!r}")
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def lower_incomplete_gamma(p: float, x: float) -> float:
    """Lower incomplete gamma function gamma(3/2, x) = int_0^x t^(1/2) e^(-t) dt.

    Serves p = 3/2 only, the order of the SER floor; any other p raises.
    The power series x^p e^(-x) sum_n x^n / (p (p+1) ... (p+n)) runs on
    x < 5/2 = p + 1, where every term is smaller than the one before it;
    from there on the closed form (sqrt(pi)/2) erf(sqrt(x)) - sqrt(x) e^(-x)
    has no cancellation.  Both are within ~1e-15 relative for every x >= 0.
    """
    if p != 1.5:
        raise ValueError(f"lower_incomplete_gamma serves p = 1.5 only, got p={p!r}")
    if not x >= 0.0:
        raise ValueError(f"lower_incomplete_gamma requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if x == math.inf:  # root * e^(-x) would be inf * 0
        return 0.5 * math.sqrt(math.pi)
    if x < 2.5:
        term = total = 1.0 / p
        n = 0
        while term >= 1e-17 * total:
            n += 1
            term *= x / (p + n)
            total += term
        return total * math.exp(p * math.log(x) - x)
    root = math.sqrt(x)
    return 0.5 * math.sqrt(math.pi) * math.erf(root) - root * math.exp(-x)
