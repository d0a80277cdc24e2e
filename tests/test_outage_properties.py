"""CDF properties of the exact outage over the parameter box, mismatched relays included."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from twoway_impair.analytic import (
    MODULATIONS,
    SER_REL_TOL,
    OutageQuery,
    outage_asymptotic,
    outage_probability,
    outage_sweep,
    ser_asymptotic,
    ser_floor_quadrature,
    ser_sweep,
)
from twoway_impair.model import (
    Direction,
    ImpairmentPair,
    SystemConfig,
    derived_constants,
    link_params,
)

# Deterministic examples, so the suite gives the same verdict on every run.
PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)

evm = st.floats(0.0, 0.3)
log_power = st.floats(-1.0, 6.0)
log_noise = st.floats(-0.3, 0.3)
log_gain = st.floats(-0.6, 0.6)


@st.composite
def links(draw, assumed=st.one_of(st.none(), evm)):
    """A link anywhere in the box; the relay's assumed receive EVM is drawn too."""
    return SystemConfig(
        p1=10 ** draw(log_power), p2=10 ** draw(log_power), p3=10 ** draw(log_power),
        n1=10 ** draw(log_noise), n2=10 ** draw(log_noise), n3=10 ** draw(log_noise),
        omega1=10 ** draw(log_gain), omega2=10 ** draw(log_gain),
        relay_impairments=ImpairmentPair(draw(evm), draw(evm)),
        assumed_kappa_r=draw(assumed),
    )


directions = st.sampled_from([Direction(1), Direction(2)])
BPSK = MODULATIONS["bpsk"]


def ceiling_coefficient(config):
    """B = kappa_r^2 + kappa_t^2 (1 + kappa_hat_r^2), written out here."""
    kh = config.kappa_r if config.assumed_kappa_r is None else config.assumed_kappa_r
    return config.kappa_r**2 + config.kappa_t**2 * (1.0 + kh**2)


def outage(config, x, direction):
    return outage_probability(config, OutageQuery(x, direction))


def outage_by_explicit_gain(sndr_from_gain, config, x, direction):
    """Outage as a conditional integral over the own-channel gain u, with the
    partner-gain threshold read off the explicit-gain SNDR `sndr_from_gain`
    (the conftest reference) alone.

    For fixed u, u/SNDR = alpha(u) + beta(u)/v in the partner gain v, and
    alpha is affine in u; two evaluations give each, so nothing here uses
    the coefficients of derived_constants.
    """
    _, _, _, om_i, om_ri = link_params(config, direction)

    def roles(u, v):
        return (u, v) if direction.i == 1 else (v, u)

    def fit(u):
        f1, f2 = (u / sndr_from_gain(config, direction, *roles(u, v)) for v in (1.0, 2.0))
        beta = 2.0 * (f1 - f2)
        return f1 - beta, beta

    slope = fit(2.0)[0] - fit(1.0)[0]
    alpha0 = fit(1.0)[0] - slope
    if x * slope >= 1.0:
        return 1.0
    lo = x * alpha0 / (1.0 - x * slope)

    def survive(u):
        alpha, beta = fit(u)
        if u <= x * alpha:
            return 0.0
        return math.exp(-x * beta / ((u - x * alpha) * om_ri) - u / om_i) / om_i

    value, _ = quad(survive, lo, np.inf, epsabs=1e-14, epsrel=1e-12, limit=400)
    return 1.0 - value


@PROPERTY
@given(links(), directions, st.floats(0.0, 1.5))
def test_outage_is_a_cdf_that_reaches_one_at_the_ceiling(config, direction, span):
    b = ceiling_coefficient(config)
    top = span / b if b > 0 else 100.0 * span
    values = [outage(config, float(x), direction) for x in np.linspace(0.0, top, 25)]
    assert values[0] == 0.0
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(later >= earlier for earlier, later in zip(values, values[1:]))
    if b > 0:
        assert derived_constants(config, direction).c == pytest.approx(b, rel=1e-15)
        assert outage(config, 1.0 / b, direction) == 1.0
        assert outage(config, (1.0 + span) / b, direction) == 1.0


@PROPERTY
@given(links(), directions)
def test_outage_is_monotone_from_the_smallest_thresholds_to_the_ceiling(config, direction):
    # every value is relatively accurate, so no slack is needed even where
    # the outage is near 1e-300
    b = ceiling_coefficient(config)
    grid = np.logspace(-300.0, math.log10(1.0 / b if b > 0 else 1e4), 121)
    values = [outage(config, float(x), direction) for x in grid]
    assert values[0] > 0.0
    assert all(later >= earlier for earlier, later in zip(values, values[1:]))


@PROPERTY
@given(links(assumed=st.none()), directions, st.floats(0.0, 0.9), st.floats(-1.0, 1.0))
def test_outage_is_continuous_as_the_assumed_evm_meets_the_true_one(config, direction, frac, side):
    kr = config.kappa_r
    x = frac / ceiling_coefficient(config) if ceiling_coefficient(config) > 0 else 100.0 * frac
    matched = outage(config, x, direction)
    # naming the true value explicitly is the same relay, bit for bit
    assert outage(replace(config, assumed_kappa_r=kr), x, direction) == matched
    near = replace(config, assumed_kappa_r=max(kr + side * 1e-9, 0.0))
    assert abs(outage(near, x, direction) - matched) <= 1e-6


@PROPERTY
@given(links(), directions, st.floats(0.0, 100.0))
def test_outage_is_continuous_as_the_hardware_becomes_ideal(config, direction, x):
    scaled = replace(
        config,
        relay_impairments=ImpairmentPair(1e-6 * config.kappa_t, 1e-6 * config.kappa_r),
        assumed_kappa_r=None if config.assumed_kappa_r is None else 1e-6 * config.assumed_kappa_r,
    )
    ideal = replace(config, relay_impairments=ImpairmentPair(0.0, 0.0), assumed_kappa_r=None)
    assert abs(outage(scaled, x, direction) - outage(ideal, x, direction)) <= 1e-6


@PROPERTY
@given(links(assumed=evm), directions, st.floats(0.0, 0.98))
def test_outage_matches_explicit_gain_integral_at_mismatched_points(explicit_gain_sndr, config, direction, frac):
    b = ceiling_coefficient(config)
    x = frac / b if b > 0 else 100.0 * frac
    explicit = outage_by_explicit_gain(explicit_gain_sndr, config, x, direction)
    assert abs(outage(config, x, direction) - explicit) < 1e-9


# Two separately rounded forms, the exact outage and its floor, each accurate
# to about 4e-16 relative, may cross by that much where the curve has met the
# floor; a counterexample beyond this slack is a finding, not a reason to widen it.
SWEEP_SLACK = 1e-15
P1_SWEEP = 10.0 ** (np.linspace(-20.0, 160.0, 37) / 10.0)
log_unit = st.floats(-1.0, 1.0)
log_multiplier = st.floats(-2.0, 2.0)


@PROPERTY
@given(st.floats(1e-3, 0.4), st.floats(0.0, 0.4), st.one_of(st.none(), st.floats(0.0, 0.4)),
       st.lists(log_unit, min_size=5, max_size=5), log_multiplier, log_multiplier, directions,
       st.floats(0.01, 0.99))
def test_outage_falls_to_the_floor_of_any_coupling(kt, kr, assumed, logs, log_m2, log_m3, direction, frac):
    # along p1 with p2 = m2*p1 and p3 = m3*p1 the outage does not increase,
    # stays at or above the floor at r*omega_i (r = p_i/p_ri) and ends on it
    n1, n2, n3, omega1, omega2 = (10.0**v for v in logs)
    m2, m3 = 10.0**log_m2, 10.0**log_m3
    config = SystemConfig(p1=1.0, p2=m2, p3=m3, n1=n1, n2=n2, n3=n3, omega1=omega1, omega2=omega2,
                          relay_impairments=ImpairmentPair(kt, kr), assumed_kappa_r=assumed)
    c = derived_constants(config, direction).c
    x = frac / c
    powers = (P1_SWEEP, m2 * P1_SWEEP, m3 * P1_SWEEP)
    p_i, p_ri, _, om_i, om_ri = link_params(config, direction, powers)
    floor = float(outage_asymptotic(p_i[0] / p_ri[0] * om_i, om_ri, c, x))
    values = outage_sweep(config, OutageQuery(x, direction), powers)
    assert all(later <= earlier * (1.0 + SWEEP_SLACK) for earlier, later in zip(values, values[1:]))
    assert all(value >= floor * (1.0 - SWEEP_SLACK) for value in values)
    assert abs(values[-1] - floor) <= 1e-6


# Two quadratures, the SER and the unequal-gain floor, each within SER_REL_TOL.
SER_SLACK = SER_REL_TOL
# How far above its floor the SER may still be at 160 dBW, relative.
SER_END_GAP = 1e-6


@PROPERTY
@given(st.floats(1e-3, 0.4), st.floats(0.0, 0.4), st.one_of(st.none(), st.floats(0.0, 0.4)),
       st.lists(log_unit, min_size=5, max_size=5), log_multiplier, log_multiplier, directions)
def test_ser_falls_to_the_floor_of_any_coupling(kt, kr, assumed, logs, log_m2, log_m3, direction):
    # the SER half of the coupling property: along p1 with p2 = m2*p1 and
    # p3 = m3*p1 the SER does not increase, stays at or above the SER floor at
    # r*omega_i and ends on it
    n1, n2, n3, omega1, omega2 = (10.0**v for v in logs)
    m2, m3 = 10.0**log_m2, 10.0**log_m3
    config = SystemConfig(p1=1.0, p2=m2, p3=m3, n1=n1, n2=n2, n3=n3, omega1=omega1, omega2=omega2,
                          relay_impairments=ImpairmentPair(kt, kr), assumed_kappa_r=assumed)
    c = derived_constants(config, direction).c
    powers = (P1_SWEEP, m2 * P1_SWEEP, m3 * P1_SWEEP)
    p_i, p_ri, _, om_i, om_ri = link_params(config, direction, powers)
    om_i *= p_i[0] / p_ri[0]
    floor = ser_asymptotic(BPSK, c) if om_i == om_ri else ser_floor_quadrature(BPSK, om_i, om_ri, c)
    values = ser_sweep(config, direction, BPSK, powers)
    assert all(later <= earlier * (1.0 + SER_SLACK) for earlier, later in zip(values, values[1:]))
    assert all(value >= floor * (1.0 - SER_SLACK) for value in values)
    assert values[-1] <= floor * (1.0 + SER_END_GAP + SER_SLACK)
