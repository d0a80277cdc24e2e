"""Sampling correctness, reproducibility, and agreement with the closed forms."""

import hashlib
import math
import re
import threading
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import erfc

from twoway_impair.analytic import (MODULATIONS, Modulation, OutageQuery, outage_asymptotic, outage_probability,
                                    ser)
from twoway_impair.model import Direction, ImpairmentPair, SystemConfig, relaying_gain, sndr
from twoway_impair.montecarlo import (
    BLOCK,
    McConfig,
    chunk_rng,
    mc_outage,
    mc_outage_asymptotic,
    mc_outage_sweep,
    mc_ser_expectation,
    mc_ser_expectation_sweep,
    mc_ser_signal_level,
    mc_ser_signal_level_sweep,
    sample_channel_gains,
    simulate_signal_chain,
    wilson_interval,
)

D1 = Direction(1)
BPSK = MODULATIONS["bpsk"]

# First exponential draws for seed=1, block 0, omega=(2, 1): pinned so any
# change to the stream layout or generator choice is caught loudly.
GOLDEN_RHO1 = (0.7531194193285271, 4.753523280080154, 0.6890443262451814)
GOLDEN_RHO2 = (0.03621581302003513, 1.1365105348426199, 0.24654832287273315)


def fig_config(p1, kappa_t=0.1, kappa_r=0.1, omega1=2.0, omega2=1.0, assumed=None):
    return SystemConfig(p1=p1, p2=p1, p3=p1 / 2, n1=1, n2=1, n3=1,
                        omega1=omega1, omega2=omega2,
                        relay_impairments=ImpairmentPair(kappa_t, kappa_r),
                        assumed_kappa_r=assumed)


def test_golden_first_draws():
    rho1, rho2 = sample_channel_gains(chunk_rng(1, 0), 2.0, 1.0, 3)
    assert tuple(rho1) == GOLDEN_RHO1
    assert tuple(rho2) == GOLDEN_RHO2


def test_seed_replay_is_identical():
    a = sample_channel_gains(chunk_rng(77, 3), 1.5, 0.5, 1000)
    b = sample_channel_gains(chunk_rng(77, 3), 1.5, 0.5, 1000)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_exponential_moments():
    rho1, _ = sample_channel_gains(chunk_rng(11, 0), 2.0, 1.0, 10**6)
    assert 1.99 <= float(np.mean(rho1)) <= 2.01


def test_exponential_distribution_ks():
    rho1, _ = sample_channel_gains(chunk_rng(123, 0), 2.0, 1.0, 10**5)
    s = np.sort(rho1)
    cdf = 1.0 - np.exp(-s / 2.0)
    n = len(s)
    d_plus = float(np.max(np.arange(1, n + 1) / n - cdf))
    d_minus = float(np.max(cdf - np.arange(0, n) / n))
    assert max(d_plus, d_minus) <= 1.6276 / math.sqrt(n)  # 99% KS band


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(seed=-1)
    with pytest.raises(ValueError):
        McConfig(seed=0, n_samples=0)
    with pytest.raises(ValueError):
        McConfig(seed=0, confidence=1.0)


def test_mc_config_rejects_a_seed_or_sample_count_that_is_not_an_integer():
    # a float seed would run the stream of its integer part under its own name
    with pytest.raises(ValueError, match=re.escape("seed must be an integer in [0, 2**64), got 1.7")):
        McConfig(seed=1.7)
    with pytest.raises(ValueError, match="n_samples must be a positive integer, got 5000.5"):
        McConfig(seed=1, n_samples=5000.5)


def test_determinism_across_runs():
    cfg = fig_config(1e3)
    mc = McConfig(seed=9, n_samples=50000)
    results = []
    for _ in range(2):
        o = mc_outage(cfg, OutageQuery(31.0, D1), mc)
        s = mc_ser_expectation(cfg, D1, BPSK, mc)
        e = mc_ser_signal_level(cfg, D1, mc)
        results.append((o.mean, o.ci_low, o.ci_high, s.mean, s.ci_low, e.mean))
    assert results[0] == results[1]


def _refuse_thread(self):
    raise AssertionError("a Monte-Carlo run started a thread")


def test_block_scheduling_is_bit_identical(monkeypatch):
    # 3*BLOCK + 17 samples: three full blocks and a partial one, run on the calling
    # thread and tallied in block order, bit for bit as the block-by-block reference
    monkeypatch.setattr(threading.Thread, "start", _refuse_thread)
    cfg = fig_config(1e3)
    mc = McConfig(seed=9, n_samples=3 * BLOCK + 17)
    n = mc.n_samples
    count, _, _ = _reference_tally("outage", cfg, D1, mc, 31.0, BPSK)
    assert mc_outage(cfg, OutageQuery(31.0, D1), mc).mean == count / n
    _, total, _ = _reference_tally("expectation", cfg, D1, mc, 31.0, BPSK)
    assert mc_ser_expectation(cfg, D1, BPSK, mc).mean == total / n
    count, _, _ = _reference_tally("signal", cfg, D1, mc, 31.0, BPSK)
    assert mc_ser_signal_level(cfg, D1, mc).mean == count / n


def test_longer_run_extends_shorter_one():
    # one more sample opens block 1 and leaves block 0 as it was
    cfg = fig_config(1e3)
    counts = [round(mc_outage(cfg, OutageQuery(31.0, D1), McConfig(seed=9, n_samples=n)).mean * n)
              for n in (BLOCK, BLOCK + 1)]
    assert counts[1] - counts[0] in (0, 1)


def test_golden_two_block_tallies():
    # pinned so any change to the block size or stream layout is caught loudly
    n = BLOCK + 904
    mc = McConfig(seed=9, n_samples=n)
    assert mc_outage(fig_config(1e3), OutageQuery(31.0, D1), mc).mean * n == 4670
    assert mc_ser_signal_level(fig_config(10.0), D1, mc).mean * n == 535


@pytest.mark.parametrize("assumed, direction, digest", [
    (None, 1, "e15c2c7d3ed5c2c0a05a382788470eae4c11a9e942677e263b879ad99da2921f"),
    (None, 2, "ca4d72b901b4405c88a2b4eeb57a82015cfe68a1e22a0b9e153235063d2c60a2"),
    (0.3, 1, "5652bc15ce62cd15c2b5fb4efd20c93b8964b8f8239794bdb1c5e90eb0fd5fa4"),
    (0.3, 2, "36a68b9641fab5504a27e2d840d85fbb3b297d188844553a03412867c9ec0a27"),
], ids=["matched-1", "matched-2", "mismatched-1", "mismatched-2"])
def test_golden_signal_chain_arrays(assumed, direction, digest):
    # pinned so a last-bit move in the chain's arithmetic is caught, even one
    # that leaves every tally in place
    sim = simulate_signal_chain(chunk_rng(9, 1), fig_config(10.0, assumed=assumed), Direction(direction), BLOCK)
    h = hashlib.sha256()
    for name in ("h1", "h2", "s1", "s2", "eta_3r", "y_i", "gain"):
        h.update(getattr(sim, name).tobytes())
    assert h.hexdigest() == digest


SWEEP_POWERS = {
    1: (np.array([50.0]), np.array([25.0]), np.array([50.0 / 3])),
    3: (np.array([3.0, 300.0, 3e4]), np.array([1.5, 150.0, 1.5e4]), np.array([1.0, 100.0, 1e4])),
}
SWEEP_ROUTES = ("outage", "expectation", "signal")


def _point_config(base, powers, k):
    return replace(base, p1=float(powers[0][k]), p2=float(powers[1][k]), p3=float(powers[2][k]))


def _reference_tally(route, config, direction, mc, x, mod):
    """Block-by-block tally at one config, from chunk_rng and the per-point model."""
    tally = [0, 0.0, 0.0]
    for block in range(-(-mc.n_samples // BLOCK)):
        rng = chunk_rng(mc.seed, block)
        count = min(BLOCK, mc.n_samples - block * BLOCK)
        if route == "signal":
            sim = simulate_signal_chain(rng, config, direction, count)
            stat = np.real(sim.y_i * np.conj(sim.gain * sim.h1 * sim.h2))
            s_ri = sim.s1 if direction.r_i == 1 else sim.s2
            tally[0] += int(np.count_nonzero((stat > 0) != (s_ri > 0)))
            continue
        rho1, rho2 = sample_channel_gains(rng, config.omega1, config.omega2, count)
        values = sndr(config, direction, rho1, rho2)
        if route == "outage":
            tally[0] += int(np.count_nonzero(values <= x))
        else:
            per_sample = mod.alpha * 0.5 * erfc(np.sqrt(mod.beta * values))
            tally[1] += float(per_sample.sum())
            tally[2] += float(np.square(per_sample).sum())
    return tally


@pytest.mark.parametrize("route", SWEEP_ROUTES)
@pytest.mark.parametrize("n_points", sorted(SWEEP_POWERS))
@pytest.mark.parametrize("assumed", (None, 0.3))
@pytest.mark.parametrize("direction", (Direction(1), Direction(2)))
def test_sweep_points_equal_per_point_reference(route, n_points, assumed, direction):
    # every point of a sweep, drawn once per block, is tallied as if alone
    base = fig_config(1.0, 0.1, 0.2, assumed=assumed)
    powers = SWEEP_POWERS[n_points]
    mc = McConfig(seed=17, n_samples=2 * BLOCK + 17)
    n = mc.n_samples
    x, mod = 2.0, Modulation(alpha=2.0, beta=0.5)
    if route == "outage":
        estimates = mc_outage_sweep(base, OutageQuery(x, direction), powers, mc)
    elif route == "expectation":
        estimates = mc_ser_expectation_sweep(base, direction, mod, powers, mc)
    else:
        estimates = mc_ser_signal_level_sweep(base, direction, powers, mc)
    assert len(estimates) == n_points
    for k, est in enumerate(estimates):
        config = _point_config(base, powers, k)
        count, total, total_sq = _reference_tally(route, config, direction, mc, x, mod)
        if route == "expectation":
            mean = total / n
            variance = max(0.0, (total_sq - total * total / n) / (n - 1))
            margin = NormalDist().inv_cdf(0.975) * np.sqrt(variance / n)
            assert (est.mean, est.ci_low, est.ci_high) == (mean, max(0.0, mean - margin), min(2.0, mean + margin))
        else:
            assert est.mean == count / n
            assert (est.ci_low, est.ci_high) == wilson_interval(count, n)
        assert (est.n_samples, est.seed) == (n, 17)


@pytest.mark.parametrize("route", SWEEP_ROUTES)
def test_sweep_rows_do_not_depend_on_lanes(route, monkeypatch):
    # 19 points with a partial last block, run on the calling thread: every row
    # is the estimate its point gets when run alone
    monkeypatch.setattr(threading.Thread, "start", _refuse_thread)
    p1 = np.geomspace(1.0, 1e6, 19)
    powers = (p1, 2.0 * p1, p1 / 2)
    base = fig_config(1.0, assumed=0.05)
    mc = McConfig(seed=5, n_samples=BLOCK + 5)
    query = OutageQuery(5.0, D1)
    if route == "outage":
        rows = mc_outage_sweep(base, query, powers, mc)
        alone = [mc_outage(_point_config(base, powers, k), query, mc) for k in range(19)]
    elif route == "expectation":
        rows = mc_ser_expectation_sweep(base, D1, BPSK, powers, mc)
        alone = [mc_ser_expectation(_point_config(base, powers, k), D1, BPSK, mc) for k in range(19)]
    else:
        rows = mc_ser_signal_level_sweep(base, D1, powers, mc)
        alone = [mc_ser_signal_level(_point_config(base, powers, k), D1, mc) for k in range(19)]
    assert rows == alone


def test_sweeps_start_no_thread(monkeypatch):
    # the blocks run on the calling thread: 19 points, three full blocks and a partial one
    monkeypatch.setattr(threading.Thread, "start", _refuse_thread)
    p1 = np.geomspace(1.0, 1e6, 19)
    powers = (p1, 2.0 * p1, p1 / 2)
    base = fig_config(1.0, assumed=0.05)
    mc = McConfig(seed=5, n_samples=3 * BLOCK + 17)
    for estimates in (mc_outage_sweep(base, OutageQuery(5.0, D1), powers, mc),
                      mc_ser_expectation_sweep(base, D1, BPSK, powers, mc),
                      mc_ser_signal_level_sweep(base, D1, powers, mc)):
        assert len(estimates) == 19
        assert all(est.n_samples == mc.n_samples for est in estimates)


def test_sweeps_reject_bad_powers():
    for powers in ((np.array([1.0, -1.0]), np.ones(2), np.ones(2)),
                   (np.ones(2), np.ones(3), np.ones(2)),
                   (np.array([np.inf]), np.ones(1), np.ones(1))):
        with pytest.raises(ValueError):
            mc_outage_sweep(fig_config(1.0), OutageQuery(1.0, D1), powers, McConfig(seed=1, n_samples=10))


def test_mc_outage_zero_threshold():
    est = mc_outage(fig_config(100.0), OutageQuery(0.0, D1), McConfig(seed=3, n_samples=10**5))
    assert est.mean == 0.0


def test_mc_outage_saturation_region():
    cfg = fig_config(1e8)  # c = 0.0201, ceiling ~ 49.75
    est = mc_outage(cfg, OutageQuery(50.0, D1), McConfig(seed=3, n_samples=10**5))
    assert est.mean >= 0.999


def test_mc_outage_brackets_closed_form():
    cfg = fig_config(1e4)
    closed = outage_probability(cfg, OutageQuery(31.0, D1))
    est = mc_outage(cfg, OutageQuery(31.0, D1), McConfig(seed=21, n_samples=10**6))
    sigma = math.sqrt(closed * (1.0 - closed) / est.n_samples)
    assert abs(est.mean - closed) <= 3.0 * sigma


def test_mc_outage_calibration():
    # nominal 95% CI should cover the true value in >= 90 of 100 seeded runs
    cfg = fig_config(1e4)
    truth = outage_probability(cfg, OutageQuery(31.0, D1))
    covered = 0
    for seed in range(100):
        est = mc_outage(cfg, OutageQuery(31.0, D1), McConfig(seed=seed, n_samples=20000))
        covered += est.ci_low <= truth <= est.ci_high
    assert covered >= 90


def test_mc_ser_expectation_guessing_limit():
    cfg = fig_config(100.0, 0.0, 0.0, omega1=1e-12, omega2=1e-12)
    est = mc_ser_expectation(cfg, D1, BPSK, McConfig(seed=0, n_samples=10**5))
    assert abs(est.mean - 0.5) < 1e-6


def test_mc_ser_expectation_matches_quadrature():
    cfg = fig_config(100.0, 0.0, 0.0, omega1=1.0, omega2=1.0)
    s_quad = ser(cfg, D1, BPSK)
    est = mc_ser_expectation(cfg, D1, BPSK, McConfig(seed=6, n_samples=10**6))
    stderr = (est.ci_high - est.ci_low) / 2.0 / 1.959963984540054
    assert abs(est.mean - s_quad) <= 3.0 * stderr


def test_mc_ser_expectation_reaches_floor():
    cfg = fig_config(1e10, omega1=1.0, omega2=1.0)
    est = mc_ser_expectation(cfg, D1, BPSK, McConfig(seed=8, n_samples=10**6))
    stderr = (est.ci_high - est.ci_low) / 2.0 / 1.959963984540054
    assert abs(est.mean - 0.005025) <= 3.0 * stderr


def test_signal_level_noise_free_limit():
    cfg = SystemConfig(p1=1e4, p2=1e4, p3=5e3, n1=1e-12, n2=1e-12, n3=1e-12,
                       omega1=1.0, omega2=1.0, relay_impairments=ImpairmentPair(0.0, 0.0))
    est = mc_ser_signal_level(cfg, D1, McConfig(seed=4, n_samples=10**5))
    assert est.mean <= 1e-4


def test_signal_level_agrees_with_expectation_route():
    cfg = fig_config(100.0, omega1=1.0, omega2=1.0)
    a = mc_ser_signal_level(cfg, D1, McConfig(seed=31, n_samples=4 * 10**5))
    b = mc_ser_expectation(cfg, D1, BPSK, McConfig(seed=32, n_samples=4 * 10**5))
    se_a = (a.ci_high - a.ci_low) / 2.0 / 1.959963984540054
    se_b = (b.ci_high - b.ci_low) / 2.0 / 1.959963984540054
    assert abs(a.mean - b.mean) <= 3.0 * math.hypot(se_a, se_b)


def test_gain_mismatch_power_budget():
    # the mismatch mechanism: a wrong assumed receive EVM mis-normalizes the
    # relay output power (under-estimate overshoots the budget, over-estimate
    # undershoots)
    rng = chunk_rng(0, 0)
    rho1, rho2 = sample_channel_gains(rng, 1.0, 1.0, 10**5)
    for assumed, side in ((0.0, 1.0), (0.8, -1.0)):
        cfg = fig_config(1e4, 0.0, 0.2, omega1=1.0, omega2=1.0, assumed=assumed)
        g = relaying_gain(cfg, rho1, rho2)
        tx_power = g**2 * ((rho1 * cfg.p1 + rho2 * cfg.p2) * (1.0 + 0.2**2) + cfg.n3)
        assert side * (float(np.mean(tx_power)) - cfg.p3) > 0.01 * cfg.p3


def test_gain_mismatch_overestimate_degrades_ser():
    # paired seeds: assuming a worse receive EVM than real shrinks the relay
    # gain and strictly costs errors at moderate power
    mc = McConfig(seed=99, n_samples=10**6)
    matched = mc_ser_signal_level(fig_config(10.0, 0.0, 0.2, omega1=1.0, omega2=1.0), D1, mc)
    over = mc_ser_signal_level(fig_config(10.0, 0.0, 0.2, omega1=1.0, omega2=1.0, assumed=0.8), D1, mc)
    assert over.mean > matched.mean


def test_distortion_variance_tracks_incident_power():
    # |eta_3r|^2 over its conditional variance has mean 1 in every band of
    # incident power, here the lowest and the highest quarter of the draws
    cfg = fig_config(100.0, 0.1, 0.2, omega1=1.0, omega2=1.0)
    sim = simulate_signal_chain(chunk_rng(5, 0), cfg, D1, 10**5)
    rho1, rho2 = np.abs(sim.h1) ** 2, np.abs(sim.h2) ** 2
    incident = rho1 * cfg.p1 + rho2 * cfg.p2
    ratio = np.abs(sim.eta_3r) ** 2 / (cfg.kappa_r**2 * incident)
    low, high = np.quantile(incident, (0.25, 0.75))
    for band in (incident <= low, incident >= high):
        assert abs(float(np.mean(ratio[band])) - 1.0) <= 0.02
    assert np.array_equal(sim.gain, relaying_gain(cfg, rho1, rho2))


def test_mc_outage_asymptotic_symmetric_half():
    # omega1 = omega2 and c*x = 0.5: the floor is exactly 0.5
    est = mc_outage_asymptotic(1.0, 1.0, D1, 0.05, 10.0, McConfig(seed=12, n_samples=10**6))
    sigma = math.sqrt(0.25 / est.n_samples)
    assert abs(est.mean - 0.5) <= 3.0 * sigma


def test_mc_outage_asymptotic_fig2_anchor():
    floor = 0.76779003142135419876
    est = mc_outage_asymptotic(2.0, 1.0, D1, 0.0201, 31.0, McConfig(seed=13, n_samples=10**6))
    sigma = math.sqrt(floor * (1.0 - floor) / est.n_samples)
    assert abs(est.mean - floor) <= 3.0 * sigma


def test_mc_outage_asymptotic_above_ceiling_is_certain():
    est = mc_outage_asymptotic(2.0, 1.0, D1, 0.0816, 31.0, McConfig(seed=14, n_samples=10**5))
    assert est.mean == 1.0


def test_mc_outage_asymptotic_takes_the_thresholds_of_the_analytic_floor():
    # x = 0 and x = inf are legal thresholds of both floors, and both name a NaN one
    mc = McConfig(seed=1, n_samples=1000)
    for x, floor in ((0.0, 0.0), (math.inf, 1.0)):
        assert mc_outage_asymptotic(2.0, 1.0, D1, 0.1, x, mc).mean == outage_asymptotic(2.0, 1.0, 0.1, x) == floor
    with pytest.raises(ValueError, match="threshold must be a number >= 0, got nan"):
        outage_asymptotic(2.0, 1.0, 0.1, math.nan)
    with pytest.raises(ValueError, match="threshold must be a number >= 0, got nan"):
        mc_outage_asymptotic(2.0, 1.0, D1, 0.1, math.nan, mc)


@pytest.mark.parametrize("omega1, text", [
    (math.nan, "omega1 must be finite and positive, got nan"),
    (-1.0, "omega1 must be finite and positive, got -1.0"),
], ids=["nan-gain", "negative-gain"])
def test_mc_outage_asymptotic_rejects_bad_input_naming_it(omega1, text):
    with pytest.raises(ValueError, match=re.escape(text)):
        mc_outage_asymptotic(omega1, 1.0, D1, 0.1, 1.0, McConfig(seed=1, n_samples=1000))


def test_wilson_interval_properties():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.1
    lo, hi = wilson_interval(100, 100)
    assert 0.9 < lo < 1.0 and hi == 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    assert wilson_interval(np.int64(1), np.uint32(3)) == wilson_interval(1, 3)


@pytest.mark.parametrize("successes, trials, text", [
    (5, 3, "successes must lie in [0, trials = 3], got 5"),
    (-1, 3, "successes must lie in [0, trials = 3], got -1"),
    (4, 3, "successes must lie in [0, trials = 3], got 4"),
    (1.5, 3, "successes must be an integer, got 1.5"),
    (1, 2.5, "trials must be a positive integer, got 2.5"),
], ids=["above", "negative", "one-above", "fractional-successes", "fractional-trials"])
def test_wilson_rejects_successes_outside_the_trials(successes, trials, text):
    with pytest.raises(ValueError, match=re.escape(text)):
        wilson_interval(successes, trials)


def test_wilson_bounds_are_exact_at_the_ends():
    # the rounded formula gave an upper bound of 1 - 2^-53 at 20000 of 20000
    for trials in (1, 2, 3, 100, BLOCK + 1, 20000, 10**6):
        for confidence in (0.95, 0.9973002039367398):
            assert wilson_interval(0, trials, confidence)[0] == 0.0
            assert wilson_interval(trials, trials, confidence)[1] == 1.0
            lo, hi = wilson_interval(1, trials + 1, confidence)
            assert 0.0 < lo < hi < 1.0


def test_estimate_invariants():
    est = mc_outage(fig_config(1e3), OutageQuery(31.0, D1), McConfig(seed=2, n_samples=10**4))
    assert 0.0 <= est.ci_low <= est.mean <= est.ci_high <= 1.0
    assert est.n_samples == 10**4 and est.seed == 2
