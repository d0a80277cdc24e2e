"""Stochastic validation of the closed-form results by direct sampling.

Draws Rayleigh channel gains (and, for the signal-level route, the full
complex signal chain including relay distortion noise) and estimates outage
probabilities and symbol error rates with confidence intervals.

Determinism contract: every estimate is a pure function of
(seed, n_samples).  The samples are cut into 4096-sample blocks (BLOCK; the
last one is partial); block b owns the Philox counter-based stream keyed by
(seed, b), and the blocks run one after another on the calling thread,
their tallies summed in block order, so results are bit-identical on every
machine.  The full blocks of a shorter run are the first blocks of a longer
one with the same seed.

The estimators work on whole transmit-power sweeps (mc_outage_sweep,
mc_ser_expectation_sweep, mc_ser_signal_level_sweep), as the analytic layer
does, through one block loop.  No draw depends on the powers, so each block
draws its power-free variables once (channel gains, or the unit variables
of the signal chain) and every sweep point, a SystemConfig with that
point's powers, is tallied on them in turn (common random numbers): point k
of a sweep equals the one-point estimate at its powers, bit for bit.  The
signal chain is written once: simulate_signal_chain evaluates it at its
config, the signal-level sweep at every point, building only the seven
arrays of SignalRealization from a block drawn in three calls.  mc_outage,
mc_ser_expectation and mc_ser_signal_level are one-point sweeps.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .model import (Direction, Modulation, OutageQuery, SystemConfig, _check_positive, _check_threshold,
                    _own_powers, _rho_roles, _sweep_powers, link_params, relaying_gain, sndr, sndr_asymptotic)

__all__ = [
    "BLOCK",
    "McConfig",
    "McEstimate",
    "SignalRealization",
    "chunk_rng",
    "sample_channel_gains",
    "simulate_signal_chain",
    "wilson_interval",
    "mc_outage",
    "mc_outage_sweep",
    "mc_ser_expectation",
    "mc_ser_expectation_sweep",
    "mc_ser_signal_level",
    "mc_ser_signal_level_sweep",
    "mc_outage_asymptotic",
]

_MAX_SEED = 2**64

# Samples per Philox block.  Part of the determinism contract: changing it
# changes every estimate.  4096 keeps a block's signal chain (three generator
# calls, then seven arrays per sweep point) small while amortizing the
# per-block generator set-up.
BLOCK = 4096


@dataclass(frozen=True)
class McConfig:
    """Sampling plan: sample count, stream seed, CI confidence.

    Every estimate is a pure function of (seed, n_samples), drawn in
    4096-sample blocks.  n_chunks has no effect: it is accepted only so that
    callers written for the former chunk partition still construct.
    """

    seed: int
    n_samples: int = 10**6
    n_chunks: int | None = None
    confidence: float = 0.95

    def __post_init__(self):
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < _MAX_SEED):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not (isinstance(self.n_samples, numbers.Integral) and self.n_samples >= 1):
            raise ValueError(f"n_samples must be a positive integer, got {self.n_samples!r}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo estimate with its confidence interval and provenance."""

    mean: float
    ci_low: float
    ci_high: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class SignalRealization:
    """One batch of sampled signal-chain variables (arrays of equal length).

    The channels h1, h2, the BPSK symbols s1, s2 at their powers, the relay's
    receive distortion eta_3r and variable gain G, and y_i, the receiving
    terminal's sample after it subtracts the relayed echo of its own symbol
    (known channel and gain); the noises and the transmit distortion are
    not kept.
    """

    h1: np.ndarray
    h2: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    eta_3r: np.ndarray
    y_i: np.ndarray
    gain: np.ndarray


def chunk_rng(seed: int, block: int) -> np.random.Generator:
    """Independent counter-based stream for one block.

    Philox is keyed directly with (seed, block), so sub-streams are
    independent by construction and reproducible without any jump-ahead
    bookkeeping.
    """
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_channel_gains(rng: np.random.Generator, omega1: float, omega2: float, size=None):
    """Draw squared channel magnitudes: independent exponentials with means omega1, omega2."""
    rho1 = rng.exponential(omega1, size)
    rho2 = rng.exponential(omega2, size)
    return rho1, rho2


def _normal_quantile(confidence: float) -> float:
    """z of a two-sided central interval of the given confidence under the standard normal."""
    # Imported here, so that only the Monte-Carlo commands load statistics.
    from statistics import NormalDist

    return NormalDist().inv_cdf(0.5 + 0.5 * confidence)


def wilson_interval(successes: int, trials: int, confidence: float = 0.95):
    """Wilson score interval for a binomial proportion.

    Chosen over the Wald interval because outage probabilities near 0 and 1
    are routine here and Wald is miscalibrated at the edges.  The bounds are
    exactly 0 at no successes and exactly 1 at all successes, as they are
    mathematically (Brown, Cai & DasGupta, Stat. Sci. 2001); the rounded
    formula misses them by an ulp or so.
    """
    if not (isinstance(trials, numbers.Integral) and trials >= 1):
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if not isinstance(successes, numbers.Integral):
        raise ValueError(f"successes must be an integer, got {successes!r}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, trials = {trials!r}], got {successes!r}")
    z = _normal_quantile(confidence)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    margin = (z / denom) * np.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == trials else min(1.0, center + margin)
    return low, high


def _sweep_points(config: SystemConfig, powers) -> list[SystemConfig]:
    """The points of a power sweep, each the config with that point's checked powers."""
    return [replace(config, p1=float(p1), p2=float(p2), p3=float(p3))
            for p1, p2, p3 in zip(*_sweep_powers(powers))]


def _block_sums(mc: McConfig, points, draw, tally) -> np.ndarray:
    """Per point, tally(point, draws) summed over the blocks in block order.

    draw(rng, count) makes a block's power-free variables once, on the
    block's stream and the calling thread; every point is tallied on them.
    """
    totals = 0
    for block in range(-(-mc.n_samples // BLOCK)):
        draws = draw(chunk_rng(mc.seed, block), min(BLOCK, mc.n_samples - block * BLOCK))
        totals = totals + np.array([tally(point, draws) for point in points])
    return totals


def _gains(omega1: float, omega2: float):
    """The draw of the fading routes: a block's squared channel magnitudes."""
    return lambda rng, count: sample_channel_gains(rng, omega1, omega2, count)


def _proportion_estimate(successes: int, mc: McConfig) -> McEstimate:
    lo, hi = wilson_interval(successes, mc.n_samples, mc.confidence)
    return McEstimate(mean=successes / mc.n_samples, ci_low=lo, ci_high=hi,
                      n_samples=mc.n_samples, seed=mc.seed)


def mc_outage_sweep(config: SystemConfig, query: OutageQuery, powers, mc: McConfig) -> list[McEstimate]:
    """Estimate Pr{SNDR_i <= x} at every point of a transmit-power sweep.

    `powers=(p1, p2, p3)` as in analytic.outage_sweep.  Each block's channel
    gains are drawn once and tallied at every point, so point k equals
    mc_outage of the config with the powers of point k, bit for bit.  Goes
    through model.sndr, whose constants carry the relay's assumed receive
    EVM; ties with the threshold count as outage.
    """

    def outages(point, gains):
        return np.count_nonzero(sndr(point, query.direction, *gains) <= query.x)

    counts = _block_sums(mc, _sweep_points(config, powers), _gains(config.omega1, config.omega2), outages)
    return [_proportion_estimate(int(successes), mc) for successes in counts]


def mc_outage(config: SystemConfig, query: OutageQuery, mc: McConfig) -> McEstimate:
    """Estimate Pr{SNDR_i <= x} by sampling channel gains; a one-point mc_outage_sweep."""
    return mc_outage_sweep(config, query, _own_powers(config), mc)[0]


def _mean_estimate(total: float, total_sq: float, bound: float, mc: McConfig) -> McEstimate:
    """Sample mean of values in [0, bound] with its central-limit interval."""
    n = mc.n_samples
    mean = total / n
    if n > 1:
        variance = max(0.0, (total_sq - total * total / n) / (n - 1))
        margin = _normal_quantile(mc.confidence) * np.sqrt(variance / n)
    else:
        margin = bound
    return McEstimate(mean=mean, ci_low=max(0.0, mean - margin), ci_high=min(bound, mean + margin),
                      n_samples=n, seed=mc.seed)


def mc_ser_expectation_sweep(
    config: SystemConfig, direction: Direction, mod: Modulation, powers, mc: McConfig
) -> list[McEstimate]:
    """Estimate the SER as the fading average of alpha*Q(sqrt(2*beta*SNDR)) over a power sweep.

    `powers` as in mc_outage_sweep, with the same shared draws.
    Central-limit interval from the sample standard error; the averaged
    values are bounded in [0, alpha].
    """
    # Imported here, its only use, so that importing the package loads no scipy.
    from scipy.special import erfc as _erfc_vec

    def sums(point, gains):
        # Q(sqrt(2*beta*s)) = erfc(sqrt(beta*s))/2
        per_sample = mod.alpha * 0.5 * _erfc_vec(np.sqrt(mod.beta * sndr(point, direction, *gains)))
        return per_sample.sum(), np.square(per_sample).sum()

    totals = _block_sums(mc, _sweep_points(config, powers), _gains(config.omega1, config.omega2), sums)
    return [_mean_estimate(float(total), float(total_sq), mod.alpha, mc) for total, total_sq in totals]


def mc_ser_expectation(config: SystemConfig, direction: Direction, mod: Modulation, mc: McConfig) -> McEstimate:
    """Estimate the SER as the fading average of alpha*Q(sqrt(2*beta*SNDR)); a one-point sweep."""
    return mc_ser_expectation_sweep(config, direction, mod, _own_powers(config), mc)[0]


def _cnormal(rng: np.random.Generator, variances, count: int) -> np.ndarray:
    """Complex Gaussians, a row of count per variance, from one draw: each row's real parts, then imaginary."""
    parts = rng.standard_normal((len(variances), 2, count))
    parts *= np.sqrt(0.5)  # the unit sample, then its scale: the two roundings of sqrt(v) * unit
    parts *= np.sqrt(variances)[:, None, None]
    samples = np.empty((len(variances), count), dtype=complex)
    samples.real, samples.imag = parts[:, 0], parts[:, 1]
    return samples


def _signal_chain(rng: np.random.Generator, config: SystemConfig, direction: Direction, count: int):
    """Draw a block of the chain's power-free variables and return the chain over them.

    Three calls on the stream: the channels; the signs; the relay noise, unit
    receive and transmit distortion and the receiving terminal's noise.
    chain(point) maps the powers of `point`, a config that differs from
    `config` at most in p1, p2 and p3, to its SignalRealization; what does
    not depend on the powers is computed here, once.
    """
    h = _cnormal(rng, (config.omega1, config.omega2), count)
    signs = 2.0 * rng.integers(0, 2, (2, count)) - 1.0
    _, _, n_i, _, _ = link_params(config, direction)
    nu3, unit_3r, unit_3t, nu_i = _cnormal(rng, (config.n3, 1.0, 1.0, n_i), count)
    (h1, h2), (sign1, sign2), (rho1, rho2) = h, signs, np.abs(h) ** 2
    h_i, _ = _rho_roles(direction, h1, h2)
    h_i2 = h_i**2
    # a product with +-1 is exact, so h*sign*sqrt(p) is h*(sqrt(p)*sign) bit for bit
    h1_sign1, h2_sign2 = h * signs

    def chain(point: SystemConfig) -> SignalRealization:
        s1 = np.sqrt(point.p1) * sign1
        s2 = np.sqrt(point.p2) * sign2
        eta_3r = np.sqrt(point.kappa_r**2 * (rho1 * point.p1 + rho2 * point.p2)) * unit_3r
        y3 = h1_sign1 * np.sqrt(point.p1) + h2_sign2 * np.sqrt(point.p2) + eta_3r + nu3
        eta_3t = np.sqrt(point.kappa_t**2 * point.p3) * unit_3t
        gain = relaying_gain(point, rho1, rho2)
        s_i, _ = _rho_roles(direction, s1, s2)
        y_i = h_i * (gain * y3 + eta_3t) + nu_i - gain * h_i2 * s_i
        return SignalRealization(h1=h1, h2=h2, s1=s1, s2=s2, eta_3r=eta_3r, y_i=y_i, gain=gain)

    return chain


def simulate_signal_chain(rng: np.random.Generator, config: SystemConfig, direction: Direction,
                          count: int) -> SignalRealization:
    """Simulate the two-slot relaying chain with BPSK symbols.

    First slot: both terminals transmit, the relay receives through Rayleigh
    channels and adds receive-side distortion proportional to the incident
    power.  Second slot: the relay scales by the variable gain, adds
    transmit-side distortion, and broadcasts; the receiving terminal cancels
    the echo of its own symbol exactly.  The same chain that
    mc_ser_signal_level_sweep evaluates at every sweep point, here at the
    config's own powers.
    """
    return _signal_chain(rng, config, direction, count)(config)


def mc_ser_signal_level_sweep(config: SystemConfig, direction: Direction, powers, mc: McConfig) -> list[McEstimate]:
    """Estimate the BPSK SER by explicit symbol detection on the signal chain, over a power sweep.

    Coherent maximum-likelihood threshold detection against the known
    composite coefficient G*h1*h2, with G normalized by the relay's assumed
    receive EVM; the chain is simulated, not analyzed.  Each block draws the
    chain's power-free variables once and every point evaluates the chain
    of simulate_signal_chain on them, so point k equals mc_ser_signal_level
    of the config with the powers of point k, bit for bit.  `powers` as in
    mc_outage_sweep.
    """

    def errors(point, chain):
        sim = chain(point)
        stat = np.real(sim.y_i * np.conj(sim.gain * sim.h1 * sim.h2))
        _, s_ri = _rho_roles(direction, sim.s1, sim.s2)
        return np.count_nonzero((stat > 0) != (s_ri > 0))

    counts = _block_sums(mc, _sweep_points(config, powers),
                         lambda rng, count: _signal_chain(rng, config, direction, count), errors)
    return [_proportion_estimate(int(successes), mc) for successes in counts]


def mc_ser_signal_level(config: SystemConfig, direction: Direction, mc: McConfig) -> McEstimate:
    """Estimate the BPSK SER by explicit symbol detection; a one-point mc_ser_signal_level_sweep."""
    return mc_ser_signal_level_sweep(config, direction, _own_powers(config), mc)[0]


def mc_outage_asymptotic(omega1: float, omega2: float, direction: Direction, c: float, x: float,
                         mc: McConfig) -> McEstimate:
    """Estimate the high-power outage floor Pr{rho_ri / ((rho1+rho2) c) <= x} directly."""
    _check_positive(omega1=omega1, omega2=omega2, c=c)
    _check_threshold(x)
    (count,) = _block_sums(mc, [x], _gains(omega1, omega2),
                           lambda x, gains: np.count_nonzero(sndr_asymptotic(direction, *gains, c) <= x))
    return _proportion_estimate(int(count), mc)
