"""The benchmark's workloads: one round of CLI jobs per (workload, seed).

A job is what one user runs for one set of figures: family sweeps, one curve
command per relay EVM level as in the package README's loop, for both
terminals (ser_family: 10 commands), and in op_family also for equal and
unequal channel gains at three thresholds (60 commands); in mc_validation it
is the three Monte-Carlo checks of one configuration.  Jobs this large keep
`job_s_tail` near p95 of a 30-second run, where short slow spells of a shared
host move it less.  A round is a fixed list of jobs; a run repeats the same round
until its time is up, so every run attempts whole rounds and the share of
failed commands is the same in every run.  The seed only moves values inside
fixed strata (thresholds inside their regime, channel gains, noise levels, the
uneven split), so the mix of work in a round does not depend on it.

The mismatched-gain jobs (a relay whose gain uses a receive EVM other than its
true one) have fixed inputs that do not depend on the seed, and the same shape
as a matched job of their workload, so that they cost about what a matched job
does once they complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from oracle import Link

WORKLOADS = ("op_family", "ser_family", "mc_validation")

# The paper's relay EVM family; a family sweep also runs ideal hardware (0).
EVM_LEVELS = (0.05, 0.1, 0.15, 0.2)

OP_SWEEP = (0.0, 80.0, 41)
SER_SWEEP = (0.0, 80.0, 21)
MC_SWEEP = (0.0, 40.0, 3)
MC_SAMPLES = 2**15

REGIMES = ("below", "near", "above")


def _mismatched_family(omega1: float, omega2: float) -> tuple[Link, ...]:
    """Fixed relays that misjudge their own receive EVM: the impaired ones assume
    ideal receive hardware, the ideal one assumes EVM 0.1."""
    return tuple(Link(1.0, 1.0, 1.0, omega1, omega2, level, level, kappa_r_assumed=0.0 if level else 0.1)
                 for level in (0.0, *EVM_LEVELS))


# Equal and unequal average gains, as in a matched op_family job.
MISMATCHED_FAMILIES = (_mismatched_family(1.0, 1.0), _mismatched_family(2.0, 1.0))
MISMATCHED_MC_SEED = 7


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `op-curve` or `ser-curve` over a p1 sweep in dBW."""

    kind: str
    link: Link
    direction: int
    sweep: tuple[float, float, int]
    x: float | None = None
    mc_route: str | None = None       # None: no --mc; else "outage", "expectation" or "signal"
    samples: int = 0
    mc_seed: int = 0

    @property
    def mismatched(self) -> bool:
        return self.link.kappa_r_assumed is not None and self.link.kappa_r_assumed != self.link.kappa_r

    def grid(self) -> np.ndarray:
        return np.linspace(*self.sweep)

    def argv(self, config_path: str) -> list[str]:
        start, stop, points = self.sweep
        argv = [self.kind, "--config", config_path, "--p1-dbw", repr(start), repr(stop),
                "--points", str(points), "--direction", str(self.direction), "--out", "-"]
        if self.x is not None:
            argv += ["--x", repr(self.x)]
        if self.mc_route is not None:
            argv += ["--mc", "--samples", str(self.samples), "--seed", str(self.mc_seed)]
            if self.kind == "ser-curve":
                argv += ["--mc-route", self.mc_route]
        return argv


# What one user asks for: family sweeps, or a Monte-Carlo validation triple.
Job = tuple[Command, ...]


def config_text(link: Link) -> str:
    """A config file for `link`; the sweep overrides the powers written here."""
    lines = ["p1 = 1", "p2 = 1", "p3 = 0.5"]
    for key, value in (("n1", link.n1), ("n2", link.n2), ("n3", link.n3),
                       ("omega1", link.omega1), ("omega2", link.omega2),
                       ("kappa3t", link.kappa_t), ("kappa3r", link.kappa_r),
                       ("kappa3r_assumed", link.kappa_r_assumed)):
        if value is not None:
            lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def _uniform(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _family(rng, uneven: bool, unequal_gains: bool) -> list[Link]:
    """One relay per EVM level (0 first): even splits, or uneven ones with the
    same c as the even split; channel gains and noise are shared by the family."""
    omega1 = 10.0 ** _uniform(rng, -0.3, 0.3)
    omega2 = omega1
    if unequal_gains:
        omega2 = omega1 * 10.0 ** (_uniform(rng, 0.2, 0.6) * (1 if rng.integers(2) else -1))
    noise = [10.0 ** _uniform(rng, -0.3, 0.3) for _ in range(3)]
    links = [Link(*noise, omega1, omega2, 0.0, 0.0)]
    for level in EVM_LEVELS:
        kt = kr = level
        if uneven:
            c = 2.0 * level**2 + level**4
            big = level * _uniform(rng, 1.15, 1.35)
            small = float(np.sqrt((c - big * big) / (1.0 + big * big)))
            kt, kr = (big, small) if rng.integers(2) else (small, big)
        links.append(Link(*noise, omega1, omega2, kt, kr))
    return links


def _threshold(draw, link: Link, regime: str) -> float:
    """An SNDR threshold below, just below or above the ceiling 1/B; `draw(lo, hi)`
    picks the value inside the regime."""
    b_coeff = link.ceiling_coeff
    if b_coeff == 0.0:
        decade = {"below": -1.0, "near": 0.0, "above": 1.0}[regime]
        return 10.0 ** draw(decade, decade + 1.0)
    if regime == "below":
        return draw(0.02, 0.5) / b_coeff
    if regime == "near":
        return (1.0 - 10.0 ** draw(-4.0, -1.0)) / b_coeff
    return draw(1.05, 3.0) / b_coeff


def _midpoint(lo: float, hi: float) -> float:
    return 0.5 * (lo + hi)


def _family_sweep(families, draw) -> Job:
    """A set of figures: `op-curve` for every relay of each family, at the three
    threshold regimes, for both terminals."""
    return tuple(Command("op-curve", link, direction, OP_SWEEP, x=_threshold(draw, link, regime))
                 for family in families for regime in REGIMES for direction in (1, 2)
                 for link in family)


def _op_family(rng) -> list[Job]:
    jobs = [_family_sweep([_family(rng, uneven, unequal) for unequal in (False, True)], partial(_uniform, rng))
            for uneven in (False, True)]
    # Same shape as a matched job, on fixed inputs.
    jobs.append(_family_sweep(MISMATCHED_FAMILIES, _midpoint))
    return jobs


def _ser_family(rng) -> list[Job]:
    jobs = []
    for uneven in (False, True):
        for unequal in (False, True):
            family = _family(rng, uneven, unequal)
            jobs.append(tuple(Command("ser-curve", link, direction, SER_SWEEP)
                              for direction in (1, 2) for link in family))
    return jobs


def _mc_job(link: Link, direction: int, x: float, seed: int) -> Job:
    mc = dict(samples=MC_SAMPLES, sweep=MC_SWEEP, direction=direction, link=link)
    return (
        Command("op-curve", x=x, mc_route="outage", mc_seed=seed, **mc),
        Command("ser-curve", mc_route="expectation", mc_seed=seed + 1, **mc),
        Command("ser-curve", mc_route="signal", mc_seed=seed + 2, **mc),
    )


def _mc_validation(rng, seed: int) -> list[Job]:
    jobs = []
    for k in range(len(EVM_LEVELS)):
        link = _family(rng, uneven=k % 2 == 1, unequal_gains=(k // 2) % 2 == 1)[k + 1]
        mc_seed = (seed * 1_000_003 + 3 * k) % 2**62
        jobs.append(_mc_job(link, 1 + k % 2, _threshold(partial(_uniform, rng), link, "below"), mc_seed))
    link = MISMATCHED_FAMILIES[1][2]
    jobs.append(_mc_job(link, 1, 0.25 / link.ceiling_coeff, MISMATCHED_MC_SEED))
    return jobs


def build_round(workload: str, seed: int) -> list[Job]:
    """The jobs of one round of `workload`, all inputs drawn from `seed`."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "op_family":
        return _op_family(rng)
    if workload == "ser_family":
        return _ser_family(rng)
    if workload == "mc_validation":
        return _mc_validation(rng, seed)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def minimal_command(workload: str, link: Link) -> Command:
    """The smallest command of a workload: what a cold CLI start is timed on."""
    if workload == "op_family":
        return Command("op-curve", link, 1, (0.0, 80.0, 2), x=1.0)
    if workload == "ser_family":
        return Command("ser-curve", link, 1, (0.0, 80.0, 2))
    return Command("op-curve", link, 1, (0.0, 40.0, 2), x=1.0, mc_route="outage", samples=1, mc_seed=1)
