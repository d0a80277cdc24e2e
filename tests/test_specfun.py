"""Special-function kernel accuracy, identities, and domain handling."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from twoway_impair import specfun

# Frozen 20-digit reference values (high-precision oracle, mpmath at 40 digits).
K1_AT_1 = 0.60190723019723457474
K1_AT_10 = 1.8648773453825584597e-05
K1E_AT_1 = 1.6361534862632582465
ERFC_AT_1 = 0.15729920705028513066
Q_AT_1 = 0.15865525393145705141
LGAMMA32_AT_1 = 0.3789446916409847038
GAMMA_32 = 0.88622692545275801365  # Gamma(3/2) = sqrt(pi)/2


def rel_err(got, want):
    return abs(got - want) / abs(want)


def test_k1_frozen_points():
    assert rel_err(specfun.bessel_k1(1.0), K1_AT_1) < 1e-13
    assert rel_err(specfun.bessel_k1(10.0), K1_AT_10) < 1e-13
    assert rel_err(specfun.bessel_k1_scaled(1.0), K1E_AT_1) < 1e-13


def test_k1_small_argument_limit():
    # z*K1(z) -> 1 as z -> 0
    assert rel_err(specfun.bessel_k1(1e-8), 1e8) < 1e-6


def test_k1_scaled_asymptotic_leading_term():
    # K1(z) ~ sqrt(pi/(2z)) e^{-z}, so scaled*sqrt(2z/pi) -> 1
    value = specfun.bessel_k1_scaled(1e6) * math.sqrt(2e6 / math.pi)
    assert abs(value - 1.0) < 1e-6


def test_k1_scaled_definitional_consistency():
    z = 5.0
    got = specfun.bessel_k1_scaled(z)
    want = math.exp(z) * specfun.bessel_k1(z)
    assert rel_err(got, want) < 1e-13


def test_k1_scaled_identity_on_log_grid():
    for z in np.logspace(-6, math.log10(700.0), 240):
        z = float(z)
        scaled = specfun.bessel_k1_scaled(z)
        plain = specfun.bessel_k1(z)
        assert abs(scaled - math.exp(z) * plain) / scaled <= 1e-12


def test_k1_strictly_decreasing():
    grid = np.logspace(-6, 2.5, 300)
    values = [specfun.bessel_k1(float(z)) for z in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_k1_underflow_saturates_to_zero():
    assert specfun.bessel_k1(800.0) == 0.0
    assert specfun.bessel_k1_scaled(1e6) > 0.0


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-12, math.nan, [1.0, 0.0], [[2.5], [math.nan]]])
def test_k1_domain_errors(bad):
    with pytest.raises(ValueError):
        specfun.bessel_k1(bad)
    with pytest.raises(ValueError):
        specfun.bessel_k1_scaled(bad)


# Arguments on both sides of the branch point z = 2, from 1e-8 to 700, in
# one array: the two branches are filled in by one call.
K1_ARRAY_ARGS = np.concatenate([
    np.logspace(-8.0, math.log10(700.0), 157),
    np.nextafter(2.0, [0.0, 4.0]),
    [2.0, 1.999, 2.001, 1.0, 3.0],
])


def test_k1_array_matches_mpmath_across_branches():
    import mpmath as mp

    mp.mp.dps = 30
    plain = specfun.bessel_k1(K1_ARRAY_ARGS)
    scaled = specfun.bessel_k1_scaled(K1_ARRAY_ARGS)
    assert plain.shape == scaled.shape == K1_ARRAY_ARGS.shape
    for z, got_plain, got_scaled in zip(K1_ARRAY_ARGS, plain, scaled):
        ref = mp.besselk(1, mp.mpf(float(z)))
        assert abs(got_plain / float(ref) - 1.0) <= 1e-10
        assert abs(got_scaled / float(mp.exp(mp.mpf(float(z))) * ref) - 1.0) <= 1e-10


def test_k1_scalar_and_array_calls_are_bit_identical():
    for kernel in (specfun.bessel_k1, specfun.bessel_k1_scaled):
        batch = kernel(K1_ARRAY_ARGS)
        assert all(kernel(float(z)) == value for z, value in zip(K1_ARRAY_ARGS, batch))
        grid = K1_ARRAY_ARGS[:150].reshape(10, 15)
        assert np.array_equal(kernel(grid), batch[:150].reshape(10, 15))
    assert np.ndim(specfun.bessel_k1_scaled(1.5)) == 0


def test_log_zk1_matches_mpmath_down_to_tiny_arguments(mp_zk1_minus_one):
    # log(z*K1(z)) vanishes like (z^2/2) ln z, so log(z*K1(z)) formed from K1
    # itself has only an absolute accuracy of 1e-16; below z ~ 1e-154 the
    # true value is under the smallest normal number
    import mpmath as mp

    args = np.concatenate([np.logspace(-300.0, math.log10(700.0), 121), np.nextafter(2.0, [0.0, 4.0])])
    values = specfun.log_zk1(args)
    for z, got in zip(args, values):
        with mp.workdps(40):
            want = float(mp.log1p(mp_zk1_minus_one(float(z))))
        assert abs(got - want) <= 1e-15 * abs(want) + np.finfo(float).tiny, z
        assert specfun.log_zk1(float(z)) == got
    assert specfun.log_zk1(0.0) == 0.0
    with pytest.raises(ValueError):
        specfun.log_zk1([1.0, -1e-300])
    with pytest.raises(ValueError):
        specfun.log_zk1(math.nan)


# The ends of the doubles: 0, the smallest subnormal (whose half rounds to 0)
# and its neighbour, the branch point, a large argument and inf.
K1_END_ARGS = np.array([0.0, 5e-324, 1e-323, 2.0, 700.0, math.inf])


def test_k1_entries_take_their_neighbours_values_at_the_ends_of_the_doubles():
    assert specfun.log_zk1(math.inf) == -math.inf
    assert specfun.log_zk1(5e-324) == 0.0
    # e^z K1(z) ~ 1/z overflows below z ~ 5.6e-309
    with np.errstate(over="ignore"):
        assert specfun.bessel_k1_scaled(5e-324) == math.inf
        assert specfun.bessel_k1(5e-324) == math.inf
        for kernel, args in ((specfun.log_zk1, K1_END_ARGS), (specfun.bessel_k1_scaled, K1_END_ARGS[1:]),
                             (specfun.bessel_k1, K1_END_ARGS[1:])):
            batch = kernel(args)
            assert not np.isnan(batch).any()
            assert batch.tobytes() == np.array([kernel(float(z)) for z in args]).tobytes()


def _k1e_chebyshev_reference(z):
    """The Clenshaw sum written independently of the kernel, started from an array of zeros."""
    t = 4.0 / z - 1.0
    t2 = 2.0 * t
    b1 = np.zeros_like(t)
    b2 = 0.0
    for c in reversed(specfun._K1E_CHEB[1:]):
        b1, b2 = t2 * b1 - b2 + c, b1
    return (t * b1 - b2 + 0.5 * specfun._K1E_CHEB[0]) / np.sqrt(z)


def test_k1_in_place_clenshaw_is_bit_identical_to_reference():
    rng = np.random.default_rng(27)
    z = np.concatenate([[np.nextafter(2.0, 3.0), 700.0], 2.0 + rng.random(4000) * 698.0,
                        np.exp(rng.uniform(np.log(2.0), np.log(700.0), 4000))])
    assert np.array_equal(specfun._k1e_chebyshev(z), _k1e_chebyshev_reference(z))
    assert np.array_equal(specfun.bessel_k1_scaled(z), _k1e_chebyshev_reference(z))
    for value in z[::400]:
        assert specfun.bessel_k1_scaled(float(value)) == _k1e_chebyshev_reference(np.array([value]))[0]


def test_erfc_basics():
    assert specfun.erfc(0.0) == 1.0
    assert rel_err(specfun.erfc(1.0), ERFC_AT_1) < 1e-13
    # reflection identity
    assert abs(specfun.erfc(-0.7) - (2.0 - specfun.erfc(0.7))) < 1e-14


def test_erfc_strictly_decreasing():
    # below x ~ -5.9 the complement drops under half an ulp of 2.0
    grid = np.linspace(-5.0, 25.0, 300)
    values = [specfun.erfc(float(x)) for x in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_erfc_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            specfun.erfc(bad)
        with pytest.raises(ValueError):
            specfun.gaussian_q(bad)


def test_gaussian_q_basics():
    assert specfun.gaussian_q(0.0) == 0.5
    assert rel_err(specfun.gaussian_q(1.0), Q_AT_1) < 1e-13
    assert abs(specfun.gaussian_q(2.3) + specfun.gaussian_q(-2.3) - 1.0) < 1e-14


def test_gaussian_q_strictly_decreasing():
    grid = np.linspace(-8.0, 30.0, 400)
    values = [specfun.gaussian_q(float(x)) for x in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_lower_incomplete_gamma_points():
    assert specfun.lower_incomplete_gamma(1.5, 0.0) == 0.0
    assert rel_err(specfun.lower_incomplete_gamma(1.5, 1.0), LGAMMA32_AT_1) < 1e-13
    # complete-gamma limit
    assert rel_err(specfun.lower_incomplete_gamma(1.5, 200.0), GAMMA_32) < 1e-14
    # the SER floor evaluates gamma(3/2, beta/c), so a near-ideal relay
    # (c ~ 1e-18) or a tiny inversion target puts x far beyond 1e17; the
    # reference is Gamma(3/2) minus the upper function, which mpmath gives in
    # a fraction of the time of the lower one and which agrees with it to 1e-41
    import mpmath as mp

    with mp.workdps(40):
        grid = [m * 10.0**e for e in range(301) for m in (1.0, 2.5, 7.3)]
        for x in (x for x in grid if x >= 2.5):
            want = mp.gamma(1.5) - mp.gammainc(1.5, x)
            assert abs(specfun.lower_incomplete_gamma(1.5, x) / want - 1) <= 1e-15, x


def test_lower_incomplete_gamma_at_infinity_is_the_complete_gamma():
    # the docstring promises every x >= 0; sqrt(x) e^(-x) is inf * 0 there
    assert specfun.lower_incomplete_gamma(1.5, math.inf) == 0.5 * math.sqrt(math.pi)
    assert specfun.lower_incomplete_gamma(1.5, 1e300) == specfun.lower_incomplete_gamma(1.5, math.inf)


def test_lower_incomplete_gamma_domain_errors():
    with pytest.raises(ValueError):
        specfun.lower_incomplete_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        specfun.lower_incomplete_gamma(-1.0, 1.0)
    with pytest.raises(ValueError):
        specfun.lower_incomplete_gamma(1.5, -1e-9)
    with pytest.raises(ValueError, match="2.5"):
        specfun.lower_incomplete_gamma(2.5, 1.0)


def test_gamma_recurrence_against_erf_form():
    # gamma(3/2, x) = (sqrt(pi)/2) erf(sqrt(x)) - sqrt(x) e^{-x}
    rng = np.random.default_rng(20240115)
    for x in rng.uniform(0.0, 30.0, 50):
        x = float(x)
        want = 0.5 * math.sqrt(math.pi) * (1.0 - specfun.erfc(math.sqrt(x))) - math.sqrt(x) * math.exp(-x)
        got = specfun.lower_incomplete_gamma(1.5, x)
        if want == 0.0:
            assert got == 0.0
        else:
            assert rel_err(got, want) <= 1e-10


def test_exponential_sqrt_tail_matches_erfc():
    # int_{1/c}^inf e^{-beta x} x^{-1/2} dx = sqrt(pi/beta) erfc(sqrt(beta/c)),
    # the identity behind the analytic SER tail segment
    rng = np.random.default_rng(7)
    for _ in range(20):
        beta = float(rng.uniform(0.5, 4.0))
        c = float(rng.uniform(0.3, 3.0))
        lo = 1.0 / c
        numeric, _ = quad(lambda t: math.exp(-beta * t) / math.sqrt(t), lo, np.inf,
                          epsabs=1e-300, epsrel=1e-12, limit=300)
        closed = math.sqrt(math.pi / beta) * specfun.erfc(math.sqrt(beta / c))
        assert rel_err(numeric, closed) <= 1e-9
