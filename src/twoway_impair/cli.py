"""Command-line front end: curve sweeps, validation runs, and inversion queries.

Subcommands
    op-curve    outage probability vs transmit power, CSV output
    ser-curve   symbol error rate vs transmit power, CSV output
    invert      impairment bound for an outage or SER target, one-line report
    validate    analytic-vs-Monte-Carlo agreement table with PASS/FAIL flags

Powers inside config files are linear watts; the only dB quantity is the
sweep axis (dB relative to 1 W), converted exactly once at this boundary.
CSV bytes are stable for fixed inputs and seed: floats are printed with 17
significant digits, and every Monte-Carlo column is a pure function of
(seed, n_samples), drawn in 4096-sample blocks, whatever the machine or the
thread count (TWOWAY_IMPAIR_THREADS only caps the worker pool).

Each curve column comes from one call of the library's sweep kernels over
the whole power grid: analytic.outage_sweep and analytic.ser_sweep for the
closed forms, montecarlo.mc_outage_sweep, mc_ser_expectation_sweep and
mc_ser_signal_level_sweep for the Monte-Carlo columns and `validate`.  Every
grid point uses the same seed, so the sweep draws each block once for all
points; each row equals the one-point estimate at its power.

Exit status: 0 success, 1 `validate` with fewer than 95% of points inside
the Monte-Carlo band, 2 usage/config/infeasible-target error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import analytic, model, montecarlo
from .analytic import (
    MODULATIONS,
    InfeasibleTargetError,
    Modulation,
    OutageQuery,
    QuadratureError,
)
from .model import Direction, ImpairmentPair, SystemConfig
from .montecarlo import McConfig

__all__ = ["SweepSpec", "CurvePoint", "ConfigError", "main", "entry"]

CSV_SIGNATURE = "# twoway-impair v1"
DEFAULT_COUPLING = "p2=p1, p3=p1/2"

# Wilson z = 3 for the validate command's widened acceptance band.
THREE_SIGMA_CONFIDENCE = 0.9973002039367398

_CONFIG_KEYS = (
    "p1", "p2", "p3", "n1", "n2", "n3",
    "omega1", "omega2", "kappa3t", "kappa3r", "kappa3r_assumed",
)
_REQUIRED_KEYS = _CONFIG_KEYS[:-1]


class ConfigError(ValueError):
    """Config-file problem; message carries the offending line number."""


@dataclass(frozen=True)
class SweepSpec:
    """Transmit-power sweep: dBW bounds for p1 plus the p2/p3 coupling rule."""

    p1_dbw_start: float
    p1_dbw_stop: float
    n_points: int
    power_coupling: str = DEFAULT_COUPLING

    def __post_init__(self):
        if not (math.isfinite(self.p1_dbw_start) and math.isfinite(self.p1_dbw_stop)):
            raise ValueError("sweep bounds must be finite")
        if not self.p1_dbw_start < self.p1_dbw_stop:
            raise ValueError("sweep start must be below sweep stop")
        if self.n_points < 2:
            raise ValueError("sweep needs at least 2 points")

    def grid_dbw(self) -> np.ndarray:
        return np.linspace(self.p1_dbw_start, self.p1_dbw_stop, self.n_points)


@dataclass(frozen=True)
class CurvePoint:
    """One output row; Monte-Carlo fields are None when sampling was not requested."""

    p1_dbw: float
    analytic: float
    asymptote: float | None
    mc_mean: float | None = None
    mc_ci_low: float | None = None
    mc_ci_high: float | None = None


def parse_config(path: str) -> SystemConfig:
    """Parse a flat `key = value` config file into a SystemConfig."""
    values: dict[str, float] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            value = float(text.strip())
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: invalid number {text.strip()!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{path}:{lineno}: {key} must be finite, got {text.strip()!r}")
        values[key] = value
    missing = [key for key in _REQUIRED_KEYS if key not in values]
    if missing:
        raise ConfigError(f"{path}: missing keys: {', '.join(missing)}")
    try:
        return SystemConfig(
            p1=values["p1"], p2=values["p2"], p3=values["p3"],
            n1=values["n1"], n2=values["n2"], n3=values["n3"],
            omega1=values["omega1"], omega2=values["omega2"],
            relay_impairments=ImpairmentPair(values["kappa3t"], values["kappa3r"]),
            assumed_kappa_r=values.get("kappa3r_assumed"),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_coupling(rule: str) -> tuple[float, float]:
    """Multipliers (m2, m3) with p2 = m2*p1, p3 = m3*p1 from a coupling rule string."""
    multipliers: dict[str, float] = {}
    for clause in rule.split(","):
        clause = clause.replace(" ", "")
        if not clause:
            continue
        key, _, expr = clause.partition("=")
        if key not in ("p2", "p3") or not expr.startswith("p1"):
            raise ValueError(f"cannot parse coupling clause {clause!r}")
        rest = expr[2:]
        if rest == "":
            factor = 1.0
        elif rest.startswith("*"):
            factor = float(rest[1:])
        elif rest.startswith("/"):
            factor = 1.0 / float(rest[1:])
        else:
            raise ValueError(f"cannot parse coupling clause {clause!r}")
        if not factor > 0:
            raise ValueError(f"coupling multiplier must be positive in {clause!r}")
        multipliers[key] = factor
    if set(multipliers) != {"p2", "p3"}:
        raise ValueError(f"coupling rule must set both p2 and p3, got {rule!r}")
    return multipliers["p2"], multipliers["p3"]


def dbw_to_watt(dbw: float) -> float:
    return 10.0 ** (dbw / 10.0)


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _power_grid(sweep: SweepSpec):
    """The sweep's dBW grid and its (p1, p2, p3) arrays in linear watts."""
    m2, m3 = parse_coupling(sweep.power_coupling)
    grid = [float(dbw) for dbw in sweep.grid_dbw()]
    p1 = np.array([dbw_to_watt(dbw) for dbw in grid])
    return grid, (p1, m2 * p1, m3 * p1)


def _write_csv(points: list[CurvePoint], with_asymptote: bool, with_mc: bool,
               out_path: str, extra_comments: list[str]):
    columns = ["p1_dbw", "analytic"]
    if with_asymptote:
        columns.append("asymptote")
    if with_mc:
        columns += ["mc_mean", "mc_ci_low", "mc_ci_high"]
    lines = [CSV_SIGNATURE]
    lines += extra_comments
    lines.append(",".join(columns))
    for pt in points:
        row = [_fmt(pt.p1_dbw), _fmt(pt.analytic)]
        if with_asymptote:
            row.append(_fmt(pt.asymptote))
        if with_mc:
            row += [_fmt(pt.mc_mean), _fmt(pt.mc_ci_low), _fmt(pt.mc_ci_high)]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _curve_point(dbw: float, value, floor, est) -> CurvePoint:
    if est is None:
        return CurvePoint(dbw, float(value), floor)
    return CurvePoint(dbw, float(value), floor, est.mean, est.ci_low, est.ci_high)


def _mc_config(args, confidence: float = 0.95) -> McConfig:
    return McConfig(seed=args.seed, n_samples=args.samples, confidence=confidence)


def _resolve_modulation(args) -> Modulation:
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise ValueError("--alpha and --beta must be given together")
        return Modulation(alpha=args.alpha, beta=args.beta, name="custom")
    if args.modulation not in MODULATIONS:
        raise ValueError(
            f"unknown modulation {args.modulation!r}; known: {', '.join(sorted(MODULATIONS))} "
            "(or pass explicit --alpha/--beta)"
        )
    return MODULATIONS[args.modulation]


def _cmd_op_curve(args) -> int:
    base = parse_config(args.config)
    sweep = SweepSpec(args.p1_dbw[0], args.p1_dbw[1], args.points, args.coupling)
    direction = Direction(args.direction)
    _, _, _, om_i, om_ri = model.link_params(base, direction)
    c = model.derived_constants(base, direction).c
    floor = float(analytic.outage_asymptotic(om_i, om_ri, c, args.x))

    query = OutageQuery(args.x, direction)
    grid, powers = _power_grid(sweep)
    values = analytic.outage_sweep(base, query, powers)
    estimates = [None] * len(grid)
    if args.mc:
        estimates = montecarlo.mc_outage_sweep(base, query, powers, _mc_config(args))
    points = [_curve_point(dbw, value, floor, est) for dbw, value, est in zip(grid, values, estimates)]
    _write_csv(points, with_asymptote=True, with_mc=args.mc, out_path=args.out,
               extra_comments=[])
    return 0


def _cmd_ser_curve(args) -> int:
    base = parse_config(args.config)
    sweep = SweepSpec(args.p1_dbw[0], args.p1_dbw[1], args.points, args.coupling)
    direction = Direction(args.direction)
    mod = _resolve_modulation(args)
    if args.mc and args.mc_route == "signal" and (mod.alpha, mod.beta) != (1.0, 1.0):
        raise ValueError("--mc-route signal simulates BPSK only (alpha=beta=1)")

    c = model.derived_constants(base, direction).c
    comments: list[str] = []
    floor = None
    if c > 0:
        _, _, _, om_i, om_ri = model.link_params(base, direction)
        if om_i == om_ri:
            floor = analytic.ser_asymptotic(mod, c)
        else:
            floor = analytic.ser_floor_quadrature(mod, om_i, om_ri, c)
            comments.append("# asymptote: quadrature over the asymptotic outage CDF "
                            "(extension; unequal average channel gains)")

    grid, powers = _power_grid(sweep)
    values = analytic.ser_sweep(base, direction, mod, powers)
    estimates = [None] * len(grid)
    if args.mc:
        if args.mc_route == "signal":
            estimates = montecarlo.mc_ser_signal_level_sweep(base, direction, powers, _mc_config(args))
        else:
            estimates = montecarlo.mc_ser_expectation_sweep(base, direction, mod, powers, _mc_config(args))
    points = [_curve_point(dbw, value, floor, est) for dbw, value, est in zip(grid, values, estimates)]
    _write_csv(points, with_asymptote=floor is not None, with_mc=args.mc,
               out_path=args.out, extra_comments=comments)
    return 0


def _cmd_invert(args) -> int:
    if args.mode == "op":
        c_max = analytic.invert_impairment_for_op(args.target, args.x, args.omega_i, args.omega_ri)
        forward = analytic.outage_asymptotic(args.omega_i, args.omega_ri, c_max, args.x)
    else:
        mod = _resolve_modulation(args)
        c_max = analytic.invert_impairment_for_ser(args.target, mod)
        forward = analytic.ser_asymptotic(mod, c_max)
    kappa = model.equal_split_kappa(c_max)
    print(
        f"c_max = {_fmt(c_max)}  kappa3t = kappa3r = {_fmt(kappa)}  "
        f"forward_check = {_fmt(forward)}"
    )
    return 0


def _cmd_validate(args) -> int:
    base = parse_config(args.config)
    sweep = SweepSpec(args.p1_dbw[0], args.p1_dbw[1], args.points, args.coupling)
    direction = Direction(args.direction)
    mc = _mc_config(args, THREE_SIGMA_CONFIDENCE)

    print(f"{'p1_dbw':>8}  {'analytic':>20}  {'mc_mean':>20}  "
          f"{'ci_low':>20}  {'ci_high':>20}  flag")
    query = OutageQuery(args.x, direction)
    grid, powers = _power_grid(sweep)
    values = analytic.outage_sweep(base, query, powers)
    estimates = montecarlo.mc_outage_sweep(base, query, powers, mc)
    passed = 0
    total = 0
    for dbw, value, est in zip(grid, values, estimates):
        value = float(value)
        ok = est.ci_low <= value <= est.ci_high
        passed += ok
        total += 1
        print(f"{dbw:8.2f}  {value:20.17f}  {est.mean:20.17f}  "
              f"{est.ci_low:20.17f}  {est.ci_high:20.17f}  {'PASS' if ok else 'FAIL'}")
    print(f"# {passed}/{total} points passed")
    return 0 if passed >= 0.95 * total else 1


def _add_sweep_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--p1-dbw", nargs=2, type=float, required=True,
                        metavar=("START", "STOP"), help="sweep bounds for p1 in dBW")
    parser.add_argument("--points", type=int, default=21, help="number of sweep points")
    parser.add_argument("--coupling", default=DEFAULT_COUPLING,
                        help=f"p2/p3 rule, default '{DEFAULT_COUPLING}'")
    parser.add_argument("--direction", type=int, choices=(1, 2), default=1,
                        help="receiving terminal (1 or 2)")
    parser.add_argument("--seed", type=int, default=1, help="Monte-Carlo seed")
    parser.add_argument("--samples", type=int, default=10**6,
                        help="Monte-Carlo samples per point")


def _add_modulation_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--modulation", default="bpsk", help="modulation preset name")
    parser.add_argument("--alpha", type=float, default=None,
                        help="error-rate constant alpha (with --beta, overrides preset)")
    parser.add_argument("--beta", type=float, default=None,
                        help="error-rate constant beta (with --alpha, overrides preset)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoway-impair",
        description="Outage and SER analysis of two-way AF relaying with relay hardware impairments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_op = sub.add_parser("op-curve", help="outage probability vs transmit power")
    _add_sweep_flags(p_op)
    p_op.add_argument("--x", type=float, required=True, help="SNDR outage threshold (linear)")
    p_op.add_argument("--mc", action="store_true", help="add Monte-Carlo columns")
    p_op.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    p_op.set_defaults(handler=_cmd_op_curve)

    p_ser = sub.add_parser("ser-curve", help="symbol error rate vs transmit power")
    _add_sweep_flags(p_ser)
    _add_modulation_flags(p_ser)
    p_ser.add_argument("--mc", action="store_true", help="add Monte-Carlo columns")
    p_ser.add_argument("--mc-route", choices=("expectation", "signal"), default="expectation",
                       help="Monte-Carlo estimator: Q-function average or symbol detection")
    p_ser.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    p_ser.set_defaults(handler=_cmd_ser_curve)

    p_inv = sub.add_parser("invert", help="maximum impairment severity for a target")
    p_inv.add_argument("mode", choices=("op", "ser"), help="target kind")
    p_inv.add_argument("--target", type=float, required=True, help="target probability")
    p_inv.add_argument("--x", type=float, default=None, help="outage threshold (op mode)")
    p_inv.add_argument("--omega-i", type=float, default=1.0, help="own-channel average gain (op mode)")
    p_inv.add_argument("--omega-ri", type=float, default=1.0, help="partner-channel average gain (op mode)")
    _add_modulation_flags(p_inv)
    p_inv.set_defaults(handler=_cmd_invert)

    p_val = sub.add_parser("validate", help="compare analytic outage against sampling")
    _add_sweep_flags(p_val)
    p_val.add_argument("--x", type=float, required=True, help="SNDR outage threshold (linear)")
    p_val.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "invert" and args.mode == "op" and args.x is None:
        parser.error("invert op requires --x")
    try:
        return args.handler(args)
    except (ConfigError, InfeasibleTargetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
