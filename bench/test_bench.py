"""Tests of the benchmark's own parts: the oracle, the checks, the run loop.

    python3 -m pytest bench
"""

import contextlib
import io
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from twoway_impair import analytic, cli, model, montecarlo, specfun  # noqa: E402
from twoway_impair.analytic import MODULATIONS, OutageQuery  # noqa: E402
from twoway_impair.model import Direction, ImpairmentPair, SystemConfig  # noqa: E402
from twoway_impair.montecarlo import McConfig, mc_outage  # noqa: E402


def random_link(rng, mismatched=False):
    kt, kr = rng.uniform(0.0, 0.25, 2)
    return oracle.Link(
        *(10 ** rng.uniform(-0.3, 0.3, 3)), *(10 ** rng.uniform(-0.6, 0.6, 2)), kt, kr,
        kappa_r_assumed=float(rng.uniform(0.0, 0.25)) if mismatched else None)


def system_config(link, p1, p2, p3):
    return SystemConfig(p1=p1, p2=p2, p3=p3, n1=link.n1, n2=link.n2, n3=link.n3,
                        omega1=link.omega1, omega2=link.omega2,
                        relay_impairments=ImpairmentPair(link.kappa_t, link.kappa_r),
                        assumed_kappa_r=link.kappa_r_assumed)


def test_log_j_is_the_bessel_integral():
    z = np.array([1e-10, 1e-4, 0.03, 0.5, 1.0, 7.0, 80.0, 1e4])
    exact = np.log(2.0 * special.k1e(2.0 * z)) - 2.0 * z
    assert np.max(np.abs(oracle._log_j(z) - exact)) < 1e-13 * np.max(np.abs(exact))


def test_outage_matches_closed_form_at_matched_points():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        link = random_link(rng)
        direction = 1 + trial % 2
        p1, p2, p3 = (float(v) for v in 10 ** rng.uniform(0.0, 8.0, 3))
        ceiling = 1.0 / link.ceiling_coeff
        for x in (float(10 ** rng.uniform(-1.0, 1.5)), ceiling * float(rng.uniform(0.01, 0.6)),
                  ceiling * (1.0 - float(10 ** rng.uniform(-6.0, -1.0)))):
            closed = analytic.outage_probability(system_config(link, p1, p2, p3),
                                                 OutageQuery(x, Direction(direction)))
            assert abs(float(oracle.outage(link, direction, x, p1, p2, p3)) - closed) <= 1e-12


def test_ser_and_floors_match_the_package_at_matched_points():
    rng = np.random.default_rng(77)
    bpsk = MODULATIONS["bpsk"]
    for trial in range(12):
        link = random_link(rng)
        direction = 1 + trial % 2
        p1, p2, p3 = (float(v) for v in oracle.default_powers(rng.uniform(0.0, 80.0)))
        value = analytic.ser(system_config(link, p1, p2, p3), Direction(direction), bpsk)
        mean, second = oracle.ser(link, direction, p1, p2, p3)
        assert abs(value - mean) <= checks.SER_REL_TOL * mean + checks.SER_ABS_TOL
        assert mean * mean < second <= 0.5 * mean
        c = link.ceiling_coeff
        assert abs(oracle.ser_floor(oracle.Link(1, 1, 1, 1, 1, link.kappa_t, link.kappa_r), 1)
                   - analytic.ser_asymptotic(bpsk, c)) <= 1e-10 * analytic.ser_asymptotic(bpsk, c)
        _, om_i, om_ri = link.roles(direction)
        assert abs(oracle.ser_floor(link, direction)
                   - analytic.ser_floor_quadrature(bpsk, om_i, om_ri, c)) <= 1e-9 * oracle.ser_floor(link, direction)


def test_floor_quadrature_reduces_to_closed_form():
    link = oracle.Link(1, 1, 1, 1.0, 1.0, 0.1, 0.1)
    closed = oracle.ser_floor(link, 1)
    skewed = oracle.Link(1, 1, 1, 1.0, 1.0 + 1e-13, 0.1, 0.1)
    assert abs(oracle.ser_floor(skewed, 1) / closed - 1.0) < 1e-11


def test_outage_matches_monte_carlo_at_mismatched_points():
    rng = np.random.default_rng(99)
    n = 400_000
    for trial in range(6):
        link = random_link(rng, mismatched=True)
        direction = 1 + trial % 2
        p1, p2, p3 = (float(v) for v in oracle.default_powers(rng.uniform(0.0, 40.0)))
        x = float(rng.uniform(0.05, 0.6)) / link.ceiling_coeff
        est = mc_outage(system_config(link, p1, p2, p3), OutageQuery(x, Direction(direction)),
                        McConfig(seed=500 + trial, n_samples=n, n_chunks=4))
        truth = float(oracle.outage(link, direction, x, p1, p2, p3))
        assert oracle.wilson_contains(round(est.mean * n), n, truth, z=4.0)


def mp_log_survival(link, direction, x, p1, p2, p3):
    """log Pr{SNDR > x} by 40-digit quadrature straight from the explicit-gain SNDR."""
    mp = mpmath.mp
    with mpmath.workdps(40):
        f = mpmath.mpf
        p_i, p_ri = (f(p1), f(p2)) if direction == 1 else (f(p2), f(p1))
        n_i, om_i, om_ri = (f(v) for v in link.roles(direction))
        n3, p3 = f(link.n3), f(p3)
        kt2, kr2, kh2 = f(link.kappa_t) ** 2, f(link.kappa_r) ** 2, f(link.kappa_hat) ** 2
        x = f(x)

        def denominator(u, v):
            s = u * p_i + v * p_ri
            inv_g2 = ((1 + kh2) * s + n3) / p3
            return u * (n3 + kr2 * s) + (u * kt2 * p3 + n_i) * inv_g2

        def slope(u):  # SNDR <= x  <=>  v * slope(u) <= x * D(u, 0)
            return u * p_ri - x * (denominator(u, 1) - denominator(u, 0))

        rise = slope(f(1)) - slope(f(0))        # slope is linear in u
        u0 = -slope(f(0)) / rise

        def log_integrand(t):  # u = u0 + t, where slope(u) = rise * t exactly
            u = u0 + t
            return -u / om_i - x * denominator(u, 0) / (rise * t * om_ri) - mp.log(om_i)

        def log_f(y):  # in y = log t
            return log_integrand(mp.exp(y)) + y

        # The integrand is one sharp, log-concave peak at high power: find it
        # by golden-section search in y, then integrate finely around it.
        lo, hi = mp.log(max(u0, om_i)) - 40, mp.log(max(u0, om_i)) + 10
        ratio = (mp.sqrt(5) - 1) / 2
        for _ in range(120):
            a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
            lo, hi = (a, hi) if log_f(a) < log_f(b) else (lo, b)
        y_peak = (lo + hi) / 2
        g_peak = log_f(y_peak)
        left = right = y_peak
        while log_f(left) > g_peak - 60:
            left -= mpmath.mpf(1) / 4
        while log_f(right) > g_peak - 60:
            right += mpmath.mpf(1) / 4
        steps = mpmath.linspace(left, right, 81)
        survival = mpmath.quad(lambda y: mp.exp(log_f(y) - g_peak), steps, method="gauss-legendre")
        return float(mp.log(survival) + g_peak)


@pytest.mark.parametrize("gap", [1e-1, 1e-3, 1e-6])
@pytest.mark.parametrize("mismatched", [False, True])
def test_survival_matches_mpmath_near_the_ceiling(gap, mismatched):
    """Near the ceiling the survival is tiny: compare it in log space, where
    it is still a double (log S > -700), which takes ever higher power."""
    rng = np.random.default_rng(int(gap ** -0.5) + mismatched)
    link = random_link(rng, mismatched)
    x = (1.0 - gap) / link.ceiling_coeff
    compared = 0
    for dbw in np.arange(0.0, 200.0, 10.0):
        p1, p2, p3 = (float(v) for v in oracle.default_powers(dbw))
        ours = float(oracle.log_survival(link, 2, x, p1, p2, p3))
        if ours < -700.0:
            continue
        ref = mp_log_survival(link, 2, x, p1, p2, p3)
        assert abs(ours - ref) <= 1e-9 * max(1.0, abs(ref))
        compared += 1
        if compared == 3:
            break
    assert compared >= 2


class PerturbedCli:
    """A cli stand-in that runs the real command, then spoils one analytic value."""

    def __init__(self, change):
        self.change = change

    def main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        if status != 0:
            return status
        lines = out.getvalue().splitlines()
        row = next(k for k, line in enumerate(lines) if line[0].isdigit())
        fields = lines[row].split(",")
        fields[1] = repr(self.change(float(fields[1])))
        lines[row] = ",".join(fields)
        print("\n".join(lines))
        return status


def test_real_round_passes_with_only_the_known_failures(tmp_path):
    bench = run.Bench(cli, "op_family", 5, tmp_path)
    result = bench.run(0, 0, rounds=1)
    mismatched = sum(cmd.mismatched for job in bench.jobs for cmd in job)
    assert mismatched == len(bench.jobs[-1]) == len(bench.jobs[0])
    assert not result.unexpected and result.failed == mismatched
    assert len(result.job_times) == len(bench.jobs) - 1


@pytest.mark.parametrize("change", [lambda v: v + 1e-6, lambda v: math.nan, lambda v: 1.5])
def test_a_failing_check_fails_the_command(tmp_path, change):
    bench = run.Bench(PerturbedCli(change), "op_family", 5, tmp_path)
    result = bench.run(0, 0, rounds=1)
    matched = sum(not cmd.mismatched for job in bench.jobs for cmd in job)
    assert result.unexpected
    assert len(result.unexpected) == matched
    assert result.failed == result.attempted and not result.job_times


def test_a_wrong_monte_carlo_column_fails_the_command(tmp_path):
    bench = run.Bench(cli, "mc_validation", 3, tmp_path)
    cmd = bench.jobs[0][0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(cmd.argv(bench.paths[cmd.link])) == 0
    good = out.getvalue()
    assert checks.check(cmd, bench.expected[cmd], good, checks.ErrorLog()) is None
    header, first = good.splitlines()[1:3]
    fields = first.split(",")
    mean = float(fields[3])
    fields[3:6] = [repr(v) for v in (mean + 0.05, mean, mean + 0.1)]
    bad = good.replace(first, ",".join(fields))
    assert "Wilson" in checks.check(cmd, bench.expected[cmd], bad, checks.ErrorLog())


def test_rounds_repeat_their_inputs_and_share_of_failures():
    for workload in workloads.WORKLOADS:
        a, b = workloads.build_round(workload, 11), workloads.build_round(workload, 11)
        assert a == b
        other = workloads.build_round(workload, 12)
        assert a != other
        shares = {sum(c.mismatched for j in r for c in j) / sum(len(j) for j in r)
                  for r in (a, other)}
        assert len(shares) == 1


def test_a_missing_layer_stops_the_traced_run():
    modules = {"cli": cli, "analytic": analytic, "model": model, "montecarlo": montecarlo,
               "specfun": specfun}
    with spans.patched(spans.Tracer(), modules):
        assert hasattr(analytic.outage_probability, "__wrapped__")
    renamed = dict(modules, specfun=type("Renamed", (), {"erfc": specfun.erfc}))
    with pytest.raises(AttributeError):
        with spans.patched(spans.Tracer(), renamed):
            pass
    assert not hasattr(analytic.outage_probability, "__wrapped__")
