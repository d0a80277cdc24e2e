"""Outage probability, SER quadrature, asymptotic floors, and inversions."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from twoway_impair import analytic, model
from twoway_impair.analytic import (
    MODULATIONS,
    InfeasibleTargetError,
    Modulation,
    OutageQuery,
    QuadratureError,
    invert_impairment_for_op,
    invert_impairment_for_ser,
    outage_asymptotic,
    outage_probability,
    outage_sweep,
    ser,
    ser_asymptotic,
    ser_floor_quadrature,
    ser_sweep,
)
from twoway_impair.model import Direction, ImpairmentPair, SystemConfig
from twoway_impair.montecarlo import McConfig, mc_outage, mc_ser_expectation, mc_ser_signal_level

D1 = Direction(1)
D2 = Direction(2)
BPSK = MODULATIONS["bpsk"]

# Exact high-power outage floor for omega = (2, 1), kappa = (0.1, 0.1), x = 31
# (= 1.2462/1.6231, frozen from a 40-digit evaluation).
FIG2_FLOOR = 0.76779003142135419876
# SER floor for c = 0.0201 and c = 0.04 with BPSK (frozen, same oracle).
SER_FLOOR_0201 = 0.005025
SER_FLOOR_04 = 0.0099999999999698119727


def fig2_config(p1, kappa=0.1):
    return SystemConfig(p1=p1, p2=p1, p3=p1 / 2, n1=1, n2=1, n3=1, omega1=2.0, omega2=1.0,
                        relay_impairments=ImpairmentPair(kappa, kappa))


def fig3_config(p1, kappa_t=0.1, kappa_r=0.1):
    return SystemConfig(p1=p1, p2=p1, p3=p1 / 2, n1=1, n2=1, n3=1, omega1=1.0, omega2=1.0,
                        relay_impairments=ImpairmentPair(kappa_t, kappa_r))


def random_config(rng, kappa_max=0.25, mismatched=False):
    """A random link; `mismatched` also draws the relay's assumed receive EVM."""
    kt, kr = rng.uniform(0.0, kappa_max, 2)
    return SystemConfig(
        p1=10 ** rng.uniform(0, 4), p2=10 ** rng.uniform(0, 4), p3=10 ** rng.uniform(0, 4),
        n1=10 ** rng.uniform(-0.3, 0.3), n2=10 ** rng.uniform(-0.3, 0.3),
        n3=10 ** rng.uniform(-0.3, 0.3),
        omega1=10 ** rng.uniform(-0.6, 0.6), omega2=10 ** rng.uniform(-0.6, 0.6),
        relay_impairments=ImpairmentPair(kt, kr),
        assumed_kappa_r=float(rng.uniform(0.0, kappa_max)) if mismatched else None,
    )


def outage_by_conditioning(config, x, direction):
    """Independent route to the exact outage: numerically integrate the
    conditional non-outage probability over the own-channel gain."""
    dc = model.derived_constants(config, direction)
    c = dc.c
    if c > 0 and x >= 1.0 / c:
        return 1.0
    if x == 0.0:
        return 0.0
    p_i, p_ri, n_i, om_i, om_ri = model.link_params(config, direction)
    s = 1.0 - c * x
    ratio = p_i / p_ri
    const = n_i * config.n3 / (p_ri * config.p3)
    lo = x * dc.b_i / s

    def integrand(u):
        threshold = x * (c * ratio * u * u + (dc.a_i + ratio * dc.b_i) * u + const)
        threshold /= s * u - x * dc.b_i
        return math.exp(-threshold / om_ri) * math.exp(-u / om_i) / om_i

    survive, _ = quad(integrand, lo, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    return 1.0 - survive


def test_outage_zero_threshold():
    assert outage_probability(fig2_config(100.0), OutageQuery(0.0, D1)) == 0.0


def test_outage_is_relatively_accurate_down_to_tiny_thresholds(mp_outage):
    # Unit ideal links at 1e-300 and 1e-120, where arg*K1(arg) is 1 minus a
    # tiny quantity, and link.cfg at 80 dBW, where the floor term of the
    # denominator factor is nearly all of the outage at x = 1e-20.
    unit = SystemConfig(p1=1.0, p2=1.0, p3=1.0, n1=1, n2=1, n3=1, omega1=1.0, omega2=1.0,
                        relay_impairments=ImpairmentPair(0.0, 0.0))
    for cfg, x, value in ((unit, 1e-300, 6.936e-298), (unit, 1e-120, 2.79e-118),
                          (fig2_config(1e8), 1e-20, 4.02e-22)):
        ref = mp_outage(cfg, D1)(x)
        assert ref == pytest.approx(value, rel=1e-3)
        assert abs(outage_probability(cfg, OutageQuery(x, D1)) - ref) <= 1e-12 * ref, (x, ref)
    # and anywhere in the box, from x = 1e-300 up to the ceiling
    rng = np.random.default_rng(298)
    for trial in range(40):
        cfg = random_config(rng, mismatched=trial % 2 == 1)
        direction = D1 if trial % 4 < 2 else D2
        top = min(1.0 / model.derived_constants(cfg, direction).c, 1e4)
        x = float(10.0 ** rng.uniform(-300.0, math.log10(top)))
        ref = mp_outage(cfg, direction)(x)
        assert abs(outage_probability(cfg, OutageQuery(x, direction)) - ref) <= 1e-12 * ref, (trial, x, ref)


def test_outage_saturation_region():
    cfg = fig2_config(1e4, kappa=0.2)  # c = 0.0816, ceiling ~ 12.25
    assert outage_probability(cfg, OutageQuery(31.0, D1)) == 1.0
    c = cfg.relay_impairments.c()
    assert outage_probability(cfg, OutageQuery(1.0 / c, D1)) == 1.0


def test_outage_is_valid_cdf():
    cfg = fig2_config(1e3)
    grid = np.linspace(0.0, 60.0, 120)
    values = [outage_probability(cfg, OutageQuery(float(x), D1)) for x in grid]
    assert values[0] == 0.0
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert outage_probability(cfg, OutageQuery(1.0 / 0.0201, D1)) == 1.0


def test_outage_matches_conditional_integral():
    # the second seed draws relays whose gain assumes another receive EVM
    for seed, mismatched in ((2718, False), (2719, True)):
        rng = np.random.default_rng(seed)
        for trial in range(8):
            cfg = random_config(rng, mismatched=mismatched)
            direction = D1 if trial % 2 == 0 else D2
            x = float(10 ** rng.uniform(-1.0, 1.3))
            closed = outage_probability(cfg, OutageQuery(x, direction))
            oracle = outage_by_conditioning(cfg, x, direction)
            assert abs(closed - oracle) < 1e-9


def test_outage_matches_monte_carlo_fig2():
    cfg = fig2_config(1e6)
    closed = outage_probability(cfg, OutageQuery(31.0, D1))
    est = mc_outage(cfg, OutageQuery(31.0, D1), McConfig(seed=404, n_samples=10**6))
    sigma = math.sqrt(closed * (1.0 - closed) / 10**6)
    assert abs(est.mean - closed) <= 3.0 * sigma


def test_outage_sweep_is_bit_identical_to_pointwise_calls():
    rng = np.random.default_rng(3141)
    for trial in range(6):
        base = random_config(rng)
        direction = D1 if trial % 2 == 0 else D2
        p1 = 10.0 ** rng.uniform(-1.0, 8.0, 25)
        powers = (p1, p1 * 10.0 ** rng.uniform(-1.0, 1.0, 25), p1 * 10.0 ** rng.uniform(-1.0, 1.0, 25))
        x = float(10 ** rng.uniform(-1.0, 1.3))
        swept = outage_sweep(base, OutageQuery(x, direction), powers)
        for k in range(25):
            cfg = SystemConfig(p1=powers[0][k], p2=powers[1][k], p3=powers[2][k],
                               n1=base.n1, n2=base.n2, n3=base.n3,
                               omega1=base.omega1, omega2=base.omega2,
                               relay_impairments=base.relay_impairments)
            assert swept[k] == outage_probability(cfg, OutageQuery(x, direction))


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
def test_sweeps_reject_bad_powers(bad):
    p1 = np.array([1.0, 10.0, bad])
    with pytest.raises(ValueError):
        outage_sweep(fig2_config(1.0), OutageQuery(1.0, D1), (p1, p1, p1))
    with pytest.raises(ValueError):
        ser_sweep(fig2_config(1.0), D1, BPSK, (np.ones(3), np.ones(3), p1))


def test_mismatched_gain_matches_monte_carlo():
    # relays that under- (0.1) or over-estimate (0.4) their receive EVM of 0.2:
    # closed-form outage and SER quadrature against sampling, within 3 sigma
    n = 10**6
    n_signal = 4 * 10**5
    for assumed in (0.1, 0.4):
        cfg = SystemConfig(p1=100, p2=100, p3=50, n1=1, n2=1, n3=1, omega1=2, omega2=1,
                           relay_impairments=ImpairmentPair(0.1, 0.2), assumed_kappa_r=assumed)
        for direction, x in ((D1, 3.0), (D2, 10.0)):
            closed = outage_probability(cfg, OutageQuery(x, direction))
            est = mc_outage(cfg, OutageQuery(x, direction), McConfig(seed=61, n_samples=n))
            assert 0.05 < closed < 0.95
            assert abs(est.mean - closed) <= 3.0 * math.sqrt(closed * (1.0 - closed) / n)
        s_quad = ser(cfg, D1, BPSK)
        est = mc_ser_expectation(cfg, D1, BPSK, McConfig(seed=62, n_samples=n))
        stderr = (est.ci_high - est.ci_low) / 2.0 / 1.959963984540054
        assert abs(s_quad - est.mean) <= 3.0 * stderr
        # the signal chain normalizes its gain by the assumed EVM on its own
        est = mc_ser_signal_level(cfg, D1, McConfig(seed=63, n_samples=n_signal))
        assert abs(est.mean - s_quad) <= 3.0 * math.sqrt(s_quad * (1.0 - s_quad) / n_signal)


def test_outage_rejects_negative_threshold():
    with pytest.raises(ValueError):
        OutageQuery(-1.0, D1)
    with pytest.raises(ValueError, match="number >= 0, got nan"):
        OutageQuery(math.nan, D1)
    with pytest.raises(ValueError, match="number >= 0"):
        outage_asymptotic(2.0, 1.0, 0.02, math.nan)


def test_outage_high_power_convergence():
    floor = outage_asymptotic(2.0, 1.0, 0.0201, 31.0)
    value = outage_probability(fig2_config(1e8), OutageQuery(31.0, D1))
    assert abs(value - floor) <= 1e-3


def test_outage_continuous_at_ideal_hardware():
    base = dict(p1=1e3, p2=1e3, p3=500.0, n1=1, n2=1, n3=1, omega1=2.0, omega2=1.0)
    ideal = SystemConfig(relay_impairments=ImpairmentPair(0.0, 0.0), **base)
    near = SystemConfig(relay_impairments=ImpairmentPair(1e-6, 1e-6), **base)
    for x in np.linspace(0.0, 100.0, 50):
        a = outage_probability(ideal, OutageQuery(float(x), D1))
        b = outage_probability(near, OutageQuery(float(x), D1))
        assert abs(a - b) <= 1e-4


def test_outage_asymptotic_values():
    assert abs(outage_asymptotic(1.0, 1.0, 0.02, 10.0) - 0.2) < 1e-15
    got = outage_asymptotic(2.0, 1.0, 0.0201, 31.0)
    assert abs(got - FIG2_FLOOR) < 1e-15
    assert outage_asymptotic(2.0, 1.0, 0.0, 31.0) == 0.0
    assert outage_asymptotic(2.0, 1.0, 0.0816, 31.0) == 1.0


def test_outage_asymptotic_scalar_and_array_calls_are_bit_identical():
    c = 0.0201
    ceiling = 1.0 / c
    x = np.concatenate([[0.0, 1.0, 0.5 * ceiling, ceiling, 2.0 * ceiling, 1e300, math.inf],
                        np.nextafter(ceiling, [0.0, math.inf]), ceiling * (1.0 + np.arange(-3, 4) * 2e-16)])
    assert (c * x < 1.0).any() and (c * x >= 1.0).any()
    for omega_i, omega_ri in ((2.0, 1.0), (1.0, 1.0), (1.0, 3.0)):
        floors = outage_asymptotic(omega_i, omega_ri, c, x)
        assert floors.shape == x.shape
        assert floors.tobytes() == np.array([outage_asymptotic(omega_i, omega_ri, c, float(v)) for v in x]).tobytes()
        assert np.all(floors[c * x >= 1.0] == 1.0)
    assert outage_asymptotic(2.0, 1.0, 0.0, math.inf) == 0.0
    assert outage_asymptotic(2.0, 1.0, 0.0, x).tobytes() == np.zeros(x.shape).tobytes()


def test_outage_is_certain_where_the_closed_form_is_not_finite():
    # num underflows to 0 while the floor term overflows: the Bessel
    # argument is 0*inf = NaN, and only the non-finite screen gives 1
    nan_arg = SystemConfig(p1=1e300, p2=1.0, p3=5e299, n1=1.0, n2=1.0, n3=1.0, omega1=1e4, omega2=1e-4,
                           relay_impairments=ImpairmentPair(1e100, 0.0), assumed_kappa_r=0.0)
    assert outage_probability(nan_arg, OutageQuery(9e-201, D1)) == 1.0
    # an ideal relay at a tiny power: the exponent overflows
    ideal = SystemConfig(p1=1e-10, p2=1e3, p3=500.0, n1=1.0, n2=1.0, n3=1.0, omega1=2.0, omega2=1.0)
    assert outage_probability(ideal, OutageQuery(1e300, D1)) == 1.0


def test_ser_heavy_impairment_approaches_guessing():
    # ceiling 1/c -> 0: the detector cannot beat a coin flip
    assert abs(ser_asymptotic(BPSK, 1e8) - 0.5) < 1e-3
    cfg = fig3_config(100.0, 10.0, 10.0)  # c = 10200, ceiling ~ 1e-4
    assert abs(ser(cfg, D1, BPSK) - 0.5) < 1e-2


def test_ser_matches_monte_carlo_ideal():
    cfg = fig3_config(1e6, 0.0, 0.0)
    s_quad = ser(cfg, D1, BPSK)
    est = mc_ser_expectation(cfg, D1, BPSK, McConfig(seed=2, n_samples=10**7))
    stderr = (est.ci_high - est.ci_low) / 2.0 / 1.959963984540054
    assert abs(s_quad - est.mean) <= 3.0 * stderr


def test_ser_converges_to_floor():
    value = ser(fig3_config(1e10), D1, BPSK)
    assert abs(value - SER_FLOOR_0201) <= 5e-4


def test_ser_bounds_and_monotonicity():
    values = [ser(fig3_config(p), D1, BPSK) for p in (10.0, 100.0, 1e3, 1e4, 1e6)]
    assert all(0.0 < v <= 0.5 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))
    by_kappa = [ser(fig3_config(1e3, k, k), D1, BPSK) for k in (0.0, 0.05, 0.1, 0.15, 0.2)]
    assert all(a <= b for a, b in zip(by_kappa, by_kappa[1:]))


def test_ser_asymptotic_frozen_values():
    assert abs(ser_asymptotic(BPSK, 0.0201) / SER_FLOOR_0201 - 1.0) < 1e-12
    assert abs(ser_asymptotic(BPSK, 0.04) / SER_FLOOR_04 - 1.0) < 1e-10
    ratio = ser_asymptotic(BPSK, 0.04) / ser_asymptotic(BPSK, 0.0201)
    assert 1.97 <= ratio <= 2.01
    assert ser_asymptotic(BPSK, 1e-12) < 1e-12
    with pytest.raises(ValueError):
        ser_asymptotic(BPSK, 0.0)


def test_ser_floor_quadrature_reduces_to_closed_form():
    closed = ser_asymptotic(BPSK, 0.0201)
    numeric = ser_floor_quadrature(BPSK, 1.0, 1.0, 0.0201)
    assert abs(numeric / closed - 1.0) < 1e-9
    # asymmetric gains: still a probability, bracketed by the symmetric floors
    asym = ser_floor_quadrature(BPSK, 2.0, 1.0, 0.0201)
    assert 0.0 < asym < 0.5
    with pytest.raises(ValueError):
        ser_floor_quadrature(BPSK, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("degree", range(33))
def test_gauss_kronrod_pair_integrates_polynomials(degree):
    # The SER rule's embedded pair, which replaced the G10/K21 pair under this
    # name: int_0^1 u^d du by the tanh-sinh rule at h = 1/32, by the h = 1/16
    # rule on every other node (the error estimate), and by one halving that
    # adds only the odd nodes at h = 1/64, composed as _tanh_sinh does.
    exact = 1.0 / (degree + 1)
    node, weight = analytic._tanh_sinh_nodes(1.0 / 32.0)
    fine = node**degree @ weight
    coarse = 2.0 * (node[::2] ** degree @ weight[::2])
    odd_node, odd_weight = analytic._tanh_sinh_nodes(1.0 / 64.0, odd=True)
    halved = 0.5 * fine + odd_node**degree @ odd_weight
    assert odd_node.size == node.size - 1  # only the nodes between the old ones
    assert abs(fine - exact) <= 1e-15
    assert abs(coarse - exact) <= 1e-15
    assert abs(halved - exact) <= 1e-15


def ser_reference(config, direction, mod=BPSK, cdf=None):
    """SER by QUADPACK at 1e-12 over the scalar outage CDF, with breakpoints
    graded geometrically from the end of the range towards u = 0, where at
    low power the CDF climbs to 1 within u ~ 1e-3, and towards the ceiling,
    where it climbs to 1 in a thin layer at high power.  The range, and with
    it the grading, scales like 1/sqrt(beta) for beta < 1: there the CDF's
    climb sits deep inside it.  `cdf(x)` stands in for the package's
    outage_probability."""
    if cdf is None:
        def cdf(x):
            return outage_probability(config, OutageQuery(x, direction))
    c = config.relay_impairments.c()
    upper = math.sqrt(50.0 / min(mod.beta, 1.0))
    tail = 0.0
    points = [upper * 10.0 ** -k for k in range(13, 0, -1)]
    if c > 0 and math.sqrt(1.0 / c) < upper:
        upper = math.sqrt(1.0 / c)
        tail = 0.5 * mod.alpha * math.erfc(math.sqrt(mod.beta / c))
        points += [upper * (1.0 - 2.0 ** -k) for k in range(1, 45)]

    def integrand(u):
        return math.exp(-mod.beta * u * u) * cdf(u * u)

    value, _ = quad(integrand, 0.0, upper, epsabs=1e-300, epsrel=1e-12, limit=4000, points=points)
    return mod.alpha * math.sqrt(mod.beta / math.pi) * value + tail


def test_ser_meets_its_tolerance_against_independent_reference():
    rng = np.random.default_rng(1983)
    rel_tol = analytic.SER_REL_TOL
    assert rel_tol == 1e-9
    cases = []
    for trial in range(24):
        # the last third sits at high power with severe impairments, where
        # the CDF climbs to 1 in a thin layer below the ceiling
        dbw = rng.uniform(0.0, 80.0) if trial < 16 else rng.uniform(60.0, 80.0)
        kt, kr = rng.uniform(0.0, 0.2, 2) if trial < 16 else rng.uniform(0.15, 0.2, 2)
        p1 = 10.0 ** (dbw / 10.0)
        cfg = SystemConfig(
            p1=p1, p2=p1 * 10 ** rng.uniform(-0.3, 0.3), p3=p1 * 10 ** rng.uniform(-0.6, 0.0),
            n1=10 ** rng.uniform(-0.3, 0.3), n2=10 ** rng.uniform(-0.3, 0.3),
            n3=10 ** rng.uniform(-0.3, 0.3),
            omega1=10 ** rng.uniform(-0.3, 0.3), omega2=10 ** rng.uniform(-0.6, 0.6),
            relay_impairments=ImpairmentPair(float(kt), float(kr)),
        )
        cases.append((cfg, D1 if trial % 2 == 0 else D2))
    # Here that layer falls between the nodes of a Gauss-Kronrod panel over
    # the whole range: such a rule misses it by 3.9 times the tolerance.
    p1 = 10.0 ** 5.6
    cases.append((SystemConfig(p1=p1, p2=p1, p3=p1 / 2, n1=1.31, n2=0.58, n3=0.58,
                               omega1=1.8, omega2=1.66,
                               relay_impairments=ImpairmentPair(0.2, 0.2)), D1))
    # Low power on near-ideal hardware: most of the integral sits near x = 0,
    # where the CDF's x*ln(x) term is largest.
    for trial in range(8):
        p1 = 10.0 ** rng.uniform(0.0, 1.0)
        kt, kr = (0.0, 0.0) if trial < 4 else rng.uniform(0.0, 0.05, 2)
        cases.append((SystemConfig(p1=p1, p2=p1 * 10 ** rng.uniform(-0.3, 0.3), p3=p1 / 2,
                                   n1=10 ** rng.uniform(-0.3, 0.3), n2=10 ** rng.uniform(-0.3, 0.3),
                                   n3=10 ** rng.uniform(-0.3, 0.3),
                                   omega1=10 ** rng.uniform(-0.3, 0.3), omega2=10 ** rng.uniform(-0.6, 0.6),
                                   relay_impairments=ImpairmentPair(float(kt), float(kr))),
                      D1 if trial % 2 == 0 else D2))
    # The README's link.cfg at -60 ... -40 dBW: the CDF reaches 1 by u ~ 1e-3,
    # and a rule whose nodes near 0 all sit past that point reads an SER of 0.5.
    for dbw in (-60.0, -55.0, -50.0, -45.0, -40.0):
        cases += [(fig2_config(10.0 ** (dbw / 10.0)), direction) for direction in (D1, D2)]
    for trial, (cfg, direction) in enumerate(cases):
        ref = ser_reference(cfg, direction)
        got = ser(cfg, direction, BPSK)
        assert abs(got - ref) <= rel_tol * ref, (trial, got, ref)
    # At beta = 1e-8 on ideal hardware the CDF climbs over u ~ 0.1 ... 10,
    # deep inside the range [0, sqrt(5e9)].
    wide = Modulation(alpha=1.0, beta=1e-8)
    for direction in (D1, D2):
        ref = ser_reference(fig3_config(1.0, 0.0, 0.0), direction, wide)
        got = ser(fig3_config(1.0, 0.0, 0.0), direction, wide)
        assert abs(got - ref) <= rel_tol * ref, (direction, got, ref)


def test_ser_is_relatively_accurate_at_high_power_on_ideal_relays(mp_outage):
    # The SER falls like 1/SNR here.  The reference integrates an mpmath
    # CDF: ser_reference over the package's own CDF would inherit its error.
    for dbw in (100.0, 120.0, 140.0, 160.0):
        for kappa in (0.0, 1e-6):
            cfg = fig2_config(10.0 ** (dbw / 10.0), kappa)
            for direction in (D1, D2):
                ref = ser_reference(cfg, direction, cdf=mp_outage(cfg, direction))
                got = ser(cfg, direction, BPSK)
                assert abs(got - ref) <= analytic.SER_REL_TOL * ref, (dbw, kappa, direction, got, ref)


def test_ser_sweep_matches_pointwise_calls():
    base = fig2_config(1.0, kappa=0.15)
    p1 = 10.0 ** (np.linspace(0.0, 80.0, 9) / 10.0)
    swept = ser_sweep(base, D2, BPSK, (p1, p1, p1 / 2))
    for k, p in enumerate(p1):
        assert abs(swept[k] / ser(fig2_config(p, kappa=0.15), D2, BPSK) - 1.0) <= 1e-12


def count_cdf_evaluations(monkeypatch, name):
    """Count the calls of the CDF `name` of analytic: one per quadrature round."""
    calls = []
    cdf = getattr(analytic, name)

    def counted(*args):
        calls.append(1)
        return cdf(*args)

    monkeypatch.setattr(analytic, name, counted)
    return calls


def family_links():
    """The README's relay family: ideal hardware and EVM 0.05-0.2 in even and
    uneven splits (same c), for equal and unequal average gains."""
    for omega2 in (1.0, 2.0):
        yield ImpairmentPair(0.0, 0.0), omega2
        for level in (0.05, 0.1, 0.15, 0.2):
            big = 1.25 * level
            small = math.sqrt((2.0 * level**2 + level**4 - big * big) / (1.0 + big * big))
            for kt, kr in ((level, level), (big, small), (small, big)):
                yield ImpairmentPair(kt, kr), omega2


def test_ser_sweeps_finish_in_at_most_two_rounds(monkeypatch):
    # in fact in one CDF evaluation, at low, medium and high power alike
    calls = count_cdf_evaluations(monkeypatch, "_outage")
    for low, high in ((0.0, 80.0), (-40.0, 0.0), (80.0, 160.0)):
        p1 = 10.0 ** (np.linspace(low, high, 21) / 10.0)
        for pair, omega2 in family_links():
            cfg = SystemConfig(p1=1.0, p2=1.0, p3=0.5, n1=1, n2=1, n3=1, omega1=1.0, omega2=omega2,
                               relay_impairments=pair)
            for direction in (D1, D2):
                calls.clear()
                ser_sweep(cfg, direction, BPSK, (p1, p1, p1 / 2))
                assert len(calls) == 1, (low, high, pair, omega2, direction, len(calls))


def test_ser_floor_quadrature_finishes_in_at_most_two_rounds(monkeypatch):
    # in fact in one CDF evaluation
    calls = count_cdf_evaluations(monkeypatch, "outage_asymptotic")
    for c in (0.0201, 0.04, 0.0825, 0.5):
        for omega_i, omega_ri in ((2.0, 1.0), (1.0, 2.0), (1.0, 4.0)):
            calls.clear()
            ser_floor_quadrature(BPSK, omega_i, omega_ri, c)
            assert len(calls) == 1, (c, omega_i, omega_ri, len(calls))


# At beta = 1e8 the integrand lives within u ~ 1e-4 of 0, where one call at
# h = 1/32 falls short of the tolerance and the rule halves its step.
STEEP = Modulation(alpha=1.0, beta=1e8)


# QUADPACK flags roundoff on these 1e-7 ... 1e-10 integrals at 1e-12
# relative; mpmath agrees with its values to well within SER_REL_TOL.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_ser_halvings_reach_the_tolerance(monkeypatch):
    calls = count_cdf_evaluations(monkeypatch, "_outage")
    for p1 in (1.0, 100.0):
        for kappa in (0.0, 0.1):
            cfg = fig3_config(p1, kappa, kappa)
            calls.clear()
            got = ser(cfg, D1, STEEP)
            ref = ser_reference(cfg, D1, STEEP)
            assert len(calls) > 1, (p1, kappa)
            assert abs(got - ref) <= analytic.SER_REL_TOL * ref, (p1, kappa, got, ref)


def test_quadrature_failure_raises_with_estimate(monkeypatch):
    monkeypatch.setattr(analytic, "SER_REL_TOL", 1e-13)
    monkeypatch.setattr(analytic, "_MAX_HALVINGS", 0)
    with pytest.raises(QuadratureError) as info:
        ser(fig3_config(100.0), D1, STEEP)
    assert info.value.achieved_error > 0.0


def test_a_point_whose_integral_is_zero_stops():
    # its change, 0, meets the purely relative tolerance at once
    values = analytic._tanh_sinh(lambda u, row: np.zeros((row.size, u.size)), 3, 1.0)
    assert np.array_equal(values, np.zeros(3))


def test_modulation_validation():
    with pytest.raises(ValueError):
        Modulation(alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        Modulation(alpha=1.0, beta=-2.0)
    assert BPSK.alpha == 1.0 and BPSK.beta == 1.0


def test_invert_op_symmetric_case():
    c = invert_impairment_for_op(0.201, 10.0, 1.0, 1.0)
    assert abs(c - 0.0201) < 1e-15
    assert abs(outage_asymptotic(1.0, 1.0, c, 10.0) - 0.201) < 1e-12


def test_invert_op_fig2_anchor():
    c = invert_impairment_for_op(FIG2_FLOOR, 31.0, 2.0, 1.0)
    assert abs(c / 0.0201 - 1.0) < 1e-6


def test_invert_op_rejects_out_of_range():
    for bad in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(InfeasibleTargetError):
            invert_impairment_for_op(bad, 10.0, 1.0, 1.0)
    # a threshold so small that the bound c overflows to inf
    with pytest.raises(InfeasibleTargetError, match="x = 1e-320"):
        invert_impairment_for_op(0.5, 1e-320, 1.0, 1.0)


def test_invert_ser_round_trips():
    c = invert_impairment_for_ser(SER_FLOOR_0201, BPSK)
    assert abs(c / 0.0201 - 1.0) < 1e-6
    c2 = invert_impairment_for_ser(0.01, BPSK)
    assert abs(c2 / 0.04 - 1.0) < 1e-4
    # monotone sandwich around the solution
    assert ser_asymptotic(BPSK, c / 2.0) < SER_FLOOR_0201 < ser_asymptotic(BPSK, 2.0 * c)
    # targets far below any realistic floor put beta/c up to 1e300, where the
    # incomplete gamma function of the floor must still converge, and past
    # it, where beta/c overflows and the floor takes its limit alpha*c/(4*beta)
    for target in (1e-20, 1e-40, 1e-150, 1e-300, 1e-310):
        c = invert_impairment_for_ser(target, BPSK)
        assert abs(ser_asymptotic(BPSK, c) / target - 1.0) <= 1e-9, target
        assert model.equal_split_kappa(c) > 0.0, target
    for bad in (0.0, 0.5, 0.7):
        with pytest.raises(InfeasibleTargetError):
            invert_impairment_for_ser(bad, BPSK)


def test_inversions_round_trip_randomized():
    rng = np.random.default_rng(808)
    for _ in range(10):
        target = float(rng.uniform(0.01, 0.95))
        x = float(10 ** rng.uniform(-0.5, 1.5))
        om_i = float(10 ** rng.uniform(-0.5, 0.5))
        om_ri = float(10 ** rng.uniform(-0.5, 0.5))
        c = invert_impairment_for_op(target, x, om_i, om_ri)
        assert abs(outage_asymptotic(om_i, om_ri, c, x) / target - 1.0) <= 1e-9
    for _ in range(10):
        target = float(rng.uniform(1e-3, 0.45))
        c = invert_impairment_for_ser(target, BPSK)
        assert abs(ser_asymptotic(BPSK, c) / target - 1.0) <= 1e-9


def test_invert_ser_returns_the_largest_severity_within_the_target():
    # the bisection ends on adjacent doubles, so the floor at the returned c
    # meets the target and the floor one double above it does not
    rng = np.random.default_rng(1718)
    solved = infeasible = 0
    for _ in range(600):
        mod = Modulation(float(10 ** rng.uniform(-1.0, 1.0)), float(10 ** rng.uniform(-12.0, 12.0)))
        top = math.nextafter(0.5 * mod.alpha, 0.0)
        target = top if rng.random() < 0.1 else min(float(10 ** rng.uniform(-320.0, 0.0)), top)
        try:
            c = invert_impairment_for_ser(target, mod)
        except InfeasibleTargetError:
            infeasible += 1
            low, high = ser_asymptotic(mod, math.ulp(0.0)), ser_asymptotic(mod, sys.float_info.max)
            assert not low <= target < high, (mod, target)
            continue
        solved += 1
        assert ser_asymptotic(mod, c) <= target < ser_asymptotic(mod, math.nextafter(c, math.inf)), (mod, target)
    assert solved >= 500 and infeasible >= 1, (solved, infeasible)


def test_ser_floor_is_finite_at_every_positive_double():
    rng = np.random.default_rng(99)
    bits = np.concatenate([[1, 0x7FEFFFFFFFFFFFFF], rng.integers(1, 0x7FEFFFFFFFFFFFFF, 2000)])
    for mod in (BPSK, Modulation(1.0, 1e-12), Modulation(1.0, 1e12), Modulation(4.0, 1e-12)):
        for c in bits.astype(np.int64).view(np.float64).tolist():
            assert 0.0 <= ser_asymptotic(mod, c) <= 0.5 * mod.alpha, (mod, c)


def test_one_small_c_rule_serves_both_ser_floors():
    # where c/beta is tiny both floors are the limit (omega_i/omega_ri)*alpha*c/(4*beta),
    # exact to rounding; the quadrature used to run there and miss it by up to 5e-11
    for mod in (Modulation(1.0, 1e-8), BPSK, Modulation(0.75, 3.0)):
        for c in (2.35e-315, 4.85552188e-315, 1e-300 * mod.beta, 1e-200 * mod.beta, 1e-17 * mod.beta):
            for omega_i, omega_ri in ((1.0, 2.0), (3.0, 1.0), (1.0, 1.0)):
                exact = Fraction(omega_i) / Fraction(omega_ri) * Fraction(mod.alpha) * Fraction(c) / (
                    4 * Fraction(mod.beta))
                if exact < Fraction(sys.float_info.min):
                    continue  # a subnormal floor has no relative precision to check
                got = ser_floor_quadrature(mod, omega_i, omega_ri, c)
                assert abs(Fraction(got) / exact - 1) <= 2.0**-52, (mod, c, omega_i, omega_ri)
            assert ser_floor_quadrature(mod, 1.0, 1.0, c) == ser_asymptotic(mod, c)


def test_the_quadrature_floor_meets_its_limit_where_the_rule_switches():
    # the rule takes the limit once (c/beta)(1 + (3/2)|r - 1|) <= 2^-53; just
    # above that the quadrature runs and must agree with the limit
    for mod in (BPSK, Modulation(2.0, 0.5)):
        for ratio in (0.01, 0.5, 2.0, 100.0):
            switch = 2.0**-53 / (1.0 + 1.5 * abs(ratio - 1.0)) * mod.beta
            below, above = switch * (1.0 - 1e-9), switch * (1.0 + 1e-9)
            per_c = [ser_floor_quadrature(mod, ratio, 1.0, c) / c for c in (below, above)]
            assert per_c[0] == ratio * mod.alpha / (4.0 * mod.beta)
            assert abs(per_c[1] / per_c[0] - 1.0) <= analytic.SER_REL_TOL, (mod, ratio, per_c)


@pytest.mark.parametrize("call, text", [
    (lambda: outage_asymptotic(1.0, 1.0, math.nan, 1.0), "c must be finite and positive, got nan"),
    (lambda: outage_asymptotic(math.inf, 1.0, 0.1, 1.0), "omega_i must be finite and positive, got inf"),
    (lambda: ser_floor_quadrature(BPSK, math.inf, 1.0, 0.1), "omega_i must be finite and positive, got inf"),
    (lambda: ser_floor_quadrature(BPSK, 2.0, 1.0, math.nan), "c must be finite and positive, got nan"),
], ids=["outage-nan-c", "outage-inf-gain", "ser-inf-gain", "ser-nan-c"])
def test_floors_reject_bad_input_naming_it(call, text):
    with pytest.raises(ValueError, match=re.escape(text)):
        call()
