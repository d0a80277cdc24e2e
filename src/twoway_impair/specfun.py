"""Special functions used by the closed-form performance expressions.

Provides the first-order modified Bessel function of the second kind K1 (plain
and exponentially scaled), the complementary error function, the lower
incomplete gamma function of order 3/2 (the only order the SER floor needs),
and the Gaussian Q-function.  Everything here is double precision and pure;
target accuracy is 1e-12 relative, i.e. at least one order tighter than any
quadrature tolerance that consumes these kernels.

The K1 kernels take a number or a numpy array and work elementwise, so a
whole power sweep, or every quadrature node of one, costs one call.  They
follow the classical two-branch scheme: the ascending series (DLMF 10.31.2),
with a fixed number of terms, on z <= 2 and a Chebyshev fit of
exp(z)*K1(z)*sqrt(z) in the variable 4/z - 1, summed by Clenshaw's
recurrence, on z > 2.  The Chebyshev coefficients were recomputed from a
high-precision reference (see tools/gen_k1_coeffs.py) rather than copied from
the literature.  erfc, the Q-function and the incomplete gamma function take
single numbers; they serve the closed-form floors and the quadrature's exact
tail.
"""

from __future__ import annotations

import math

import numpy as np

_EULER_GAMMA = 0.5772156649015328606065120900824024

# Chebyshev coefficients of f(t) = exp(z)*K1(z)*sqrt(z), t = 4/z - 1, z in
# [2, inf).  Max relative error of the truncated series is below 1e-19.
# Regenerate with tools/gen_k1_coeffs.py.
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
    -6.0570472706430178228e-16,
    1.8380935752430454256e-16,
    -5.6894628491936483743e-17,
    1.7940510478863572914e-17,
    -5.7567444820733024503e-18,
    1.8778651901623267401e-18,
    -6.2216452873526091852e-19,
    2.0919125269831136552e-19,
)

# Horner coefficients (highest power of q first) of the two series sums of
# K1 on z <= 2: row 0 is sum q^k/(k!(k+1)!), row 1 weights each term by
# psi(k+1) + psi(k+2).  With q <= 1 the first omitted term (k = 14) is below
# 1e-22 of the sums.
_K1_SERIES_TERMS = 14
_K1_SERIES = np.array([
    [1.0 / (math.factorial(k) * math.factorial(k + 1)) for k in range(_K1_SERIES_TERMS)],
    [(2.0 * (sum(1.0 / j for j in range(1, k + 1)) - _EULER_GAMMA) + 1.0 / (k + 1))
     / (math.factorial(k) * math.factorial(k + 1)) for k in range(_K1_SERIES_TERMS)],
])[:, ::-1].copy()


def _k1_series(z: np.ndarray) -> np.ndarray:
    """Ascending series for K1(z), 0 < z <= 2 (DLMF 10.31.2 with n=1).

    K1(z) = 1/z + ln(z/2)*I1(z) - (z/4) * sum_k (psi(k+1)+psi(k+2)) q^k / (k!(k+1)!)
    with q = z^2/4 and I1(z) = (z/2) * sum_k q^k / (k!(k+1)!).  Both sums are
    polynomials in q <= 1 with fixed coefficients, evaluated together by
    Horner's rule.
    """
    q = 0.25 * z * z
    sums = np.empty((2, z.size))
    sums[:] = _K1_SERIES[:, :1]
    for column in _K1_SERIES.T[1:]:
        sums *= q
        sums += column[:, None]
    i1 = 0.5 * z * sums[0]
    return 1.0 / z + np.log(0.5 * z) * i1 - 0.25 * z * sums[1]


def _k1e_chebyshev(z: np.ndarray) -> np.ndarray:
    """exp(z)*K1(z) on z > 2: Clenshaw sum of the Chebyshev fit in t = 4/z - 1.

    The recurrence b0 = 2t*b1 - b2 + c runs in three rotating buffers, so the
    loop allocates nothing.
    """
    t = 4.0 / z - 1.0
    t2 = 2.0 * t
    b0 = np.empty_like(t)
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    for c in reversed(_K1E_CHEB[1:]):
        np.multiply(t2, b1, out=b0)
        b0 -= b2
        b0 += c
        b0, b1, b2 = b2, b0, b1
    return (t * b1 - b2 + 0.5 * _K1E_CHEB[0]) / np.sqrt(z)


def _k1(z, scaled: bool, name: str):
    """K1 (or exp(z)*K1 when `scaled`) of a number or array; the shape of z is kept."""
    z = np.asarray(z, dtype=float)
    if not np.all(z > 0.0):
        bad = z[~(z > 0.0)].flat[0]
        raise ValueError(f"{name} requires z > 0, got {float(bad)!r}")
    flat = z.ravel()
    out = np.empty(flat.shape)
    small = flat <= 2.0
    if small.any():
        zs = flat[small]
        out[small] = np.exp(zs) * _k1_series(zs) if scaled else _k1_series(zs)
    if not small.all():
        large = ~small
        zl = flat[large]
        out[large] = _k1e_chebyshev(zl) if scaled else np.exp(-zl) * _k1e_chebyshev(zl)
    return out.reshape(z.shape)[()]


def bessel_k1_scaled(z):
    """Exponentially scaled Bessel function exp(z) * K1(z), elementwise.

    Stays representable for arbitrarily large z (value ~ sqrt(pi/(2z)));
    use this form whenever exp terms elsewhere cancel the e^{-z} decay.
    Accepts a number or an array; raises unless every z > 0.
    """
    return _k1(z, True, "bessel_k1_scaled")


def bessel_k1(z):
    """Modified Bessel function of the second kind, order one, elementwise.

    Returns 0 once exp(-z) underflows (z > ~746); raises for z <= 0 where
    K1 diverges.  Accepts a number or an array.
    """
    return _k1(z, False, "bessel_k1")


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
    The power series runs on x < 5/2; from there on the closed form
    (sqrt(pi)/2) erf(sqrt(x)) - sqrt(x) e^(-x) has no cancellation.  Both
    are within ~1e-15 relative for every x >= 0.
    """
    if p != 1.5:
        raise ValueError(f"lower_incomplete_gamma serves p = 1.5 only, got p={p!r}")
    if not x >= 0.0:
        raise ValueError(f"lower_incomplete_gamma requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if x < 2.5:
        return _gamma_series(p, x)
    root = math.sqrt(x)
    return 0.5 * math.sqrt(math.pi) * math.erf(root) - root * math.exp(-x)


def _gamma_series(p: float, x: float) -> float:
    """gamma(p,x) = x^p e^{-x} sum_{n>=0} x^n / (p (p+1) ... (p+n)); x < p+1."""
    term = 1.0 / p
    total = term
    n = 0
    while True:
        n += 1
        term *= x / (p + n)
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
        if n > 500:
            raise ArithmeticError(f"incomplete gamma series stalled at p={p}, x={x}")
    return total * math.exp(p * math.log(x) - x)
