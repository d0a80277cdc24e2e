"""Checks of every CSV the benchmark's commands print, against the oracle.

`expect` computes the reference values of one command once, outside the timed
region; `check` then judges one captured run of that command.  Tolerances are
no looser than the package's own tests use for the same quantity:

    outage (closed form)        1e-9 absolute
    SER (quadrature)            3e-8 relative + 1e-14 absolute (the package's
                                quadrature aims at 1e-9 relative but reaches
                                7e-9; the package's tests hold SER to 3 sigma
                                of a Monte-Carlo estimate)
    outage floor                1e-14 absolute (both sides round c*x ~ 1 in
                                their own order, which the floor amplifies
                                near the ceiling: 1.4e-15 seen; the package's
                                tests hold it to 1e-15 away from the ceiling)
    SER floor, closed form      1e-10 relative
    SER floor, quadrature       1e-9 relative
    Monte-Carlo mean            inside a z = 4 band around the oracle: Wilson
                                for proportions, CLT with the oracle's variance
                                for the SER average; and ci_low <= mean <= ci_high

Along a sweep (default coupling, so every power grows with p1) the outage and
the SER must not increase, and the outage stays in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import oracle
from workloads import Command

CSV_SIGNATURE = "# twoway-impair v1"
OUTAGE_ABS_TOL = 1e-9
SER_REL_TOL = 3e-8
SER_ABS_TOL = 1e-14
OUTAGE_FLOOR_ABS_TOL = 1e-14
SER_FLOOR_CLOSED_REL_TOL = 1e-10
SER_FLOOR_QUAD_REL_TOL = 1e-9
MC_Z = 4.0

# The one way a command is known to fail today: the closed-form column of a
# curve command rejects a mismatched relay gain before any point is computed.
KNOWN_FAULT_EXIT = 2
KNOWN_FAULT_TEXT = "mismatched gain"


@dataclass(frozen=True)
class Expected:
    """Oracle values for one command's rows."""

    grid: np.ndarray
    analytic: np.ndarray
    floor: float | None
    floor_rel_tol: float
    second_moment: np.ndarray | None = None


@dataclass
class ErrorLog:
    """Largest deviation from the oracle seen so far, per quantity."""

    outage_abs: float = 0.0
    ser_rel: float = 0.0


def expect(cmd: Command) -> Expected:
    grid = cmd.grid()
    p1, p2, p3 = oracle.default_powers(grid)
    if cmd.kind == "op-curve":
        return Expected(grid, oracle.outage(cmd.link, cmd.direction, cmd.x, p1, p2, p3),
                        oracle.outage_floor(cmd.link, cmd.direction, cmd.x), 0.0)
    moments = np.array([oracle.ser(cmd.link, cmd.direction, a, b, c) for a, b, c in zip(p1, p2, p3)])
    _, om_i, om_ri = cmd.link.roles(cmd.direction)
    rel_tol = SER_FLOOR_CLOSED_REL_TOL if om_i == om_ri else SER_FLOOR_QUAD_REL_TOL
    return Expected(grid, moments[:, 0], oracle.ser_floor(cmd.link, cmd.direction), rel_tol,
                    second_moment=moments[:, 1])


def _columns(cmd: Command, exp: Expected) -> list[str]:
    columns = ["p1_dbw", "analytic"]
    if exp.floor is not None:
        columns.append("asymptote")
    if cmd.mc_route is not None:
        columns += ["mc_mean", "mc_ci_low", "mc_ci_high"]
    return columns


def _check_mc(cmd: Command, exp: Expected, k: int, mean: float, lo: float, hi: float):
    if not lo <= mean <= hi:
        return f"row {k}: mc mean {mean!r} outside its own interval [{lo!r}, {hi!r}]"
    truth = exp.analytic[k]
    n = cmd.samples
    if cmd.mc_route == "expectation":
        sd = math.sqrt(max(exp.second_moment[k] - truth * truth, 0.0) / n)
        if abs(mean - truth) > MC_Z * sd + 1e-12:
            return f"row {k}: mc SER average {mean!r} is {abs(mean - truth) / max(sd, 1e-300):.1f} sd from {truth!r}"
        return None
    successes = round(mean * n)
    if abs(successes - mean * n) > 1e-6 * n or not oracle.wilson_contains(successes, n, truth, MC_Z):
        return f"row {k}: mc proportion {mean!r} (n={n}) has {truth!r} outside its z=4 Wilson band"
    return None


def check(cmd: Command, exp: Expected, text: str, errors: ErrorLog) -> str | None:
    """None when `text` is a correct CSV for `cmd`, else what is wrong with it."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_SIGNATURE:
        return "missing CSV signature line"
    body = [line for line in lines[1:] if not line.startswith("#")]
    columns = _columns(cmd, exp)
    if not body or body[0] != ",".join(columns):
        return f"header {body[:1]!r}, expected {','.join(columns)!r}"
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
    except ValueError as exc:
        return f"unparsable row: {exc}"
    if rows.shape != (len(exp.grid), len(columns)):
        return f"table shape {rows.shape}, expected {(len(exp.grid), len(columns))}"
    if not np.isfinite(rows).all():
        return "non-finite value in the table"
    if np.any(np.abs(rows[:, 0] - exp.grid) > 1e-12):
        return "p1_dbw column differs from the requested sweep"

    values = rows[:, 1]
    if cmd.kind == "op-curve":
        if np.any((values < 0.0) | (values > 1.0)):
            return "outage outside [0, 1]"
        err = np.abs(values - exp.analytic)
        errors.outage_abs = max(errors.outage_abs, float(err.max()))
        if err.max() > OUTAGE_ABS_TOL:
            k = int(err.argmax())
            return f"row {k}: outage {values[k]!r} vs oracle {exp.analytic[k]!r}"
    else:
        err = np.abs(values - exp.analytic)
        errors.ser_rel = max(errors.ser_rel, float((err / exp.analytic).max()))
        excess = err - (SER_REL_TOL * exp.analytic + SER_ABS_TOL)
        if excess.max() > 0.0:
            k = int(excess.argmax())
            return f"row {k}: SER {values[k]!r} vs oracle {exp.analytic[k]!r}"
    if np.any(np.diff(values) > 0.0):
        return "curve increases with power"

    if exp.floor is not None:
        floor = rows[:, 2]
        if cmd.kind == "op-curve":
            bad = np.abs(floor - exp.floor) > OUTAGE_FLOOR_ABS_TOL
        else:
            bad = np.abs(floor - exp.floor) > exp.floor_rel_tol * exp.floor
        if bad.any():
            return f"asymptote {floor[bad][0]!r} vs oracle floor {exp.floor!r}"

    if cmd.mc_route is not None:
        for k, (mean, lo, hi) in enumerate(rows[:, -3:]):
            problem = _check_mc(cmd, exp, k, mean, lo, hi)
            if problem:
                return problem
    return None


def is_known_fault(cmd: Command, status: int, stderr: str) -> bool:
    """True for the expected failure of a mismatched-gain command."""
    return cmd.mismatched and status == KNOWN_FAULT_EXIT and KNOWN_FAULT_TEXT in stderr
