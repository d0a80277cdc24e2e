"""SNDR math: derived constants, relaying gain, the SNDR against its explicit-gain reference, limits."""

import math
import re

import numpy as np
import pytest

from twoway_impair.model import (
    Direction,
    HighPowerRegime,
    ImpairmentPair,
    SystemConfig,
    derived_constants,
    equal_split_kappa,
    link_params,
    optimal_split,
    relaying_gain,
    relaying_gain_asymptotic,
    sndr,
    sndr_asymptotic,
    sndr_ceiling,
)

D1 = Direction(1)
D2 = Direction(2)


def unit_config(kappa_t=0.0, kappa_r=0.0, **overrides):
    params = dict(p1=1.0, p2=1.0, p3=1.0, n1=1.0, n2=1.0, n3=1.0, omega1=1.0, omega2=1.0)
    params.update(overrides)
    return SystemConfig(relay_impairments=ImpairmentPair(kappa_t, kappa_r), **params)


def random_config(rng, kappa_max=0.3, mismatched=False):
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


def test_impairment_pair_validation_and_aggregate():
    for bad in ((-0.1, 0.0), (math.nan, 0.1), (0.1, math.inf)):
        with pytest.raises(ValueError):
            ImpairmentPair(*bad)
    pair = ImpairmentPair(0.3, 0.4)
    assert abs(pair.aggregate() - 0.5) < 1e-15


def test_system_config_rejects_nonpositive():
    with pytest.raises(ValueError):
        unit_config(p1=0.0)
    with pytest.raises(ValueError):
        unit_config(n3=-1.0)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            SystemConfig(p1=1, p2=1, p3=1, n1=1, n2=1, n3=1, omega1=1, omega2=1,
                         assumed_kappa_r=bad)
    for name in ("p1", "n2", "omega1"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                unit_config(**{name: bad})


def test_direction_indexing():
    assert D1.r_i == 2
    assert D2.r_i == 1
    with pytest.raises(ValueError):
        Direction(3)


def test_derived_constants_ideal_hardware():
    cfg = unit_config(p2=4.0, p3=8.0, n1=0.5, n3=2.0)
    dc = derived_constants(cfg, D1)
    assert dc.c == 0.0
    assert dc.a_i == cfg.n3 / cfg.p2
    assert dc.b_i == cfg.n1 / cfg.p3


@pytest.mark.parametrize("kt,kr,c", [(0.1, 0.1, 0.0201), (0.0, 0.2, 0.04), (0.2, 0.2, 0.0816)])
def test_distortion_severity_values(kt, kr, c):
    assert abs(ImpairmentPair(kt, kr).c() - c) < 1e-15


def test_relaying_gain_trivial_points():
    cfg = unit_config()
    assert relaying_gain(cfg, 0.0, 0.0) == math.sqrt(cfg.p3 / cfg.n3)
    assert abs(relaying_gain(cfg, 1.0, 1.0) - math.sqrt(1.0 / 3.0)) < 1e-15


def test_relaying_gain_uses_assumed_kappa():
    mismatched = SystemConfig(p1=1, p2=1, p3=1, n1=1, n2=1, n3=1, omega1=1, omega2=1,
                              relay_impairments=ImpairmentPair(0.0, 0.2),
                              assumed_kappa_r=0.0)
    assert abs(relaying_gain(mismatched, 1.0, 1.0) - math.sqrt(1.0 / 3.0)) < 1e-15
    # ceiling coefficient B = kr^2 + kt^2 (1 + khat^2)
    assert derived_constants(mismatched, D1).c == 0.2**2
    both = SystemConfig(p1=1, p2=1, p3=1, n1=1, n2=1, n3=1, omega1=1, omega2=1,
                        relay_impairments=ImpairmentPair(0.1, 0.2), assumed_kappa_r=0.05)
    for direction in (D1, D2):
        assert abs(derived_constants(both, direction).c - 0.050025) < 1e-15


def test_sndr_zero_when_either_channel_vanishes(explicit_gain_sndr):
    cfg = unit_config(0.1, 0.1)
    assert sndr(cfg, D1, 0.0, 1.3) == 0.0
    assert sndr(cfg, D1, 1.3, 0.0) == 0.0
    assert explicit_gain_sndr(cfg, D2, 0.0, 0.0) == 0.0


def test_sndr_ideal_unit_case_both_routes(explicit_gain_sndr):
    cfg = unit_config()
    assert abs(sndr(cfg, D1, 1.0, 1.0) - 0.25) < 1e-15
    assert abs(explicit_gain_sndr(cfg, D1, 1.0, 1.0) - 0.25) < 1e-12


def test_dual_route_agreement_randomized(explicit_gain_sndr):
    # closed form (gain substituted) vs explicit-gain evaluation, for relays
    # whose gain uses the true receive EVM and for relays that assume another
    for seed, mismatched in ((314, False), (315, True)):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            cfg = random_config(rng, mismatched=mismatched)
            rho1 = rng.exponential(cfg.omega1, 2000)
            rho2 = rng.exponential(cfg.omega2, 2000)
            for direction in (D1, D2):
                a = sndr(cfg, direction, rho1, rho2)
                b = explicit_gain_sndr(cfg, direction, rho1, rho2)
                assert np.max(np.abs(a / b - 1.0)) <= 1e-12


def test_sndr_below_ceiling():
    rng = np.random.default_rng(99)
    for _ in range(20):
        cfg = random_config(rng)
        c = cfg.relay_impairments.c()
        if c == 0.0:
            continue
        rho1 = rng.exponential(cfg.omega1, 5000)
        rho2 = rng.exponential(cfg.omega2, 5000)
        ceiling = sndr_ceiling(c)
        assert np.all(sndr(cfg, D1, rho1, rho2) < ceiling)
        assert np.all(sndr_asymptotic(D1, rho1, rho2, c) < ceiling)


def test_sndr_nonincreasing_in_each_kappa():
    rho1, rho2 = 1.7, 0.6
    base = dict(p1=100.0, p2=80.0, p3=50.0, n1=1.0, n2=1.0, n3=1.0, omega1=1.0, omega2=1.0)
    grid = np.linspace(0.0, 0.3, 16)
    for fixed in (0.0, 0.15):
        over_kt = [sndr(SystemConfig(relay_impairments=ImpairmentPair(float(k), fixed), **base),
                        D1, rho1, rho2) for k in grid]
        over_kr = [sndr(SystemConfig(relay_impairments=ImpairmentPair(fixed, float(k)), **base),
                        D1, rho1, rho2) for k in grid]
        assert all(a >= b for a, b in zip(over_kt, over_kt[1:]))
        assert all(a >= b for a, b in zip(over_kr, over_kr[1:]))


def test_direction_symmetry_is_exact():
    rng = np.random.default_rng(5)
    for _ in range(30):
        cfg = random_config(rng)
        swapped = SystemConfig(
            p1=cfg.p2, p2=cfg.p1, p3=cfg.p3,
            n1=cfg.n2, n2=cfg.n1, n3=cfg.n3,
            omega1=cfg.omega2, omega2=cfg.omega1,
            relay_impairments=cfg.relay_impairments,
        )
        rho1, rho2 = float(rng.exponential(1.0)), float(rng.exponential(1.0))
        assert sndr(cfg, D1, rho1, rho2) == sndr(swapped, D2, rho2, rho1)


def test_ideal_hardware_denominator_has_no_c_terms():
    cfg = unit_config(p1=40.0, p2=10.0, p3=5.0, n1=2.0, n2=1.0, n3=0.5)
    dc = derived_constants(cfg, D1)
    rho1, rho2 = 0.9, 2.1
    expected = rho1 * rho2 / (
        rho2 * dc.b_i
        + rho1 * (dc.a_i + (cfg.p1 / cfg.p2) * dc.b_i)
        + cfg.n1 * cfg.n3 / (cfg.p2 * cfg.p3)
    )
    assert sndr(cfg, D1, rho1, rho2) == expected


def test_sndr_asymptotic_symmetry_and_limits():
    c = 0.0201
    assert abs(sndr_asymptotic(D1, 0.37, 0.37, c) - 1.0 / (2.0 * c)) < 1e-15
    assert abs(sndr_asymptotic(D2, 0.37, 0.37, c) - 1.0 / (2.0 * c)) < 1e-15
    # partner channel dominating pushes the value to the ceiling
    value = sndr_asymptotic(D1, 1e-12, 1.0, c)
    assert abs(value - sndr_ceiling(c)) / sndr_ceiling(c) < 1e-11
    with pytest.raises(ValueError):
        sndr_asymptotic(D1, 1.0, 1.0, 0.0)


def test_sndr_converges_to_asymptotic_at_high_power():
    rng = np.random.default_rng(17)
    c = ImpairmentPair(0.1, 0.1).c()
    p1 = 1e10
    cfg = SystemConfig(p1=p1, p2=p1, p3=p1 / 2, n1=1, n2=1, n3=1, omega1=2.0, omega2=1.0,
                       relay_impairments=ImpairmentPair(0.1, 0.1))
    rho1 = rng.exponential(2.0, 10**4)
    rho2 = rng.exponential(1.0, 10**4)
    exact = sndr(cfg, D1, rho1, rho2)
    limit = sndr_asymptotic(D1, rho1, rho2, c)
    assert np.max(np.abs(exact - limit) / limit) <= 1e-3


def test_sndr_ceiling_values():
    assert abs(sndr_ceiling(0.0201) - 49.751243781094527) < 1e-12
    assert sndr_ceiling(0.0816) < 31.0  # x = 2^5 - 1 is unreachable: always in outage
    assert abs(sndr_ceiling(1.0 / 7.0) - 7.0) < 1e-12
    with pytest.raises(ValueError):
        sndr_ceiling(0.0)


def test_relaying_gain_asymptotic():
    assert abs(relaying_gain_asymptotic(HighPowerRegime(1.0), 0.5, 0.5, 0.0) - 1.0) < 1e-15
    g1 = relaying_gain_asymptotic(HighPowerRegime(1.0), 0.8, 0.4, 0.1)
    g2 = relaying_gain_asymptotic(HighPowerRegime(2.0), 0.8, 0.4, 0.1)
    assert abs(g2 - g1 / math.sqrt(2.0)) < 1e-15
    # tau-invariance of G * sqrt(tau)
    values = [relaying_gain_asymptotic(HighPowerRegime(t), 0.8, 0.4, 0.1) * math.sqrt(t)
              for t in (0.5, 1.0, 2.0, 8.0)]
    assert max(values) - min(values) < 1e-15
    with pytest.raises(ValueError):
        HighPowerRegime(0.0)


def test_relaying_gain_converges_to_asymptotic():
    rng = np.random.default_rng(23)
    tau = 2.0
    p1 = 1e10
    cfg = SystemConfig(p1=p1, p2=p1, p3=p1 / tau, n1=1, n2=1, n3=1, omega1=1.0, omega2=1.0,
                       relay_impairments=ImpairmentPair(0.1, 0.1))
    rho1 = rng.exponential(1.0, 10**4)
    rho2 = rng.exponential(1.0, 10**4)
    exact = relaying_gain(cfg, rho1, rho2)
    limit = relaying_gain_asymptotic(HighPowerRegime(tau), rho1, rho2, 0.1)
    assert np.max(np.abs(exact - limit) / limit) <= 1e-3


def test_optimal_split_minimizes_severity():
    pair = optimal_split(0.2)
    assert pair == ImpairmentPair(0.1, 0.1)
    assert abs(pair.c() - 0.0201) < 1e-15
    budget = 0.2
    grid = np.linspace(0.0, budget, 21)
    severities = [ImpairmentPair(float(kt), budget - float(kt)).c() for kt in grid]
    assert int(np.argmin(severities)) == 10  # the midpoint
    assert ImpairmentPair(0.1, 0.1).c() < ImpairmentPair(0.0, 0.2).c()
    with pytest.raises(ValueError):
        optimal_split(0.0)


def test_equal_split_kappa_round_trip():
    for c in (0.0201, 0.0816, 0.5):
        kappa = equal_split_kappa(c)
        assert abs(ImpairmentPair(kappa, kappa).c() - c) < 1e-14
    assert equal_split_kappa(0.0) == 0.0
    # sqrt(sqrt(1 + c) - 1) cancels for small c and is 0 below c ~ 1e-16
    import mpmath as mp

    with mp.workdps(340):
        for c in [m * 10.0**e for e in range(-300, 7) for m in (1.0, 2.5, 7.3)]:
            want = mp.sqrt(mp.sqrt(1 + mp.mpf(c)) - 1)
            assert abs(equal_split_kappa(c) / want - 1) <= 2.3e-16, c


def test_link_params_role_selection():
    cfg = unit_config(p1=10.0, p2=20.0, n1=3.0, n2=4.0, omega1=0.5, omega2=2.0)
    assert link_params(cfg, D1) == (10.0, 20.0, 3.0, 0.5, 2.0)
    assert link_params(cfg, D2) == (20.0, 10.0, 4.0, 2.0, 0.5)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call, message", [
    (lambda: sndr_ceiling(INF), "c must be finite and positive, got inf"),
    (lambda: sndr_ceiling(NAN), "c must be finite and positive, got nan"),
    (lambda: sndr_asymptotic(D1, 1.0, 1.0, NAN), "c must be finite and positive, got nan"),
    (lambda: sndr_asymptotic(D1, 1.0, 1.0, INF), "c must be finite and positive, got inf"),
    (lambda: equal_split_kappa(NAN), "c must be finite and nonnegative, got nan"),
    (lambda: equal_split_kappa(INF), "c must be finite and nonnegative, got inf"),
    (lambda: equal_split_kappa(-1e-300), "c must be finite and nonnegative, got -1e-300"),
    (lambda: relaying_gain_asymptotic(HighPowerRegime(1.0), 0.5, 0.5, NAN),
     "kappa_r must be finite and nonnegative, got nan"),
    (lambda: ImpairmentPair(-0.1, 0.0), "kappa_t must be finite and nonnegative, got -0.1"),
    (lambda: ImpairmentPair(0.1, INF), "kappa_r must be finite and nonnegative, got inf"),
    (lambda: unit_config(assumed_kappa_r=NAN), "assumed_kappa_r must be finite and nonnegative, got nan"),
])
def test_non_finite_or_negative_input_is_rejected_by_name_and_value(call, message):
    # one check per kind of number: a severity or EVM of inf or nan is no number
    # the model can use, and it must not come back as 0.0, NaN or a claim of ideal hardware
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
