"""Command-line front end: curve sweeps, validation runs, and inversion queries.

Subcommands
    op-curve    outage probability vs transmit power, CSV output
    ser-curve   symbol error rate vs transmit power, CSV output
    invert      impairment bound for an outage or SER target, one-line report
    validate    analytic-vs-Monte-Carlo agreement table with PASS/FAIL flags

Powers inside config files are linear watts; the only dB quantity is the
sweep axis (dB relative to 1 W), converted exactly once at this boundary.
CSV bytes are stable for fixed inputs and seed on one machine: floats are
printed with 17 significant digits, and every Monte-Carlo column is a pure
function of (seed, n_samples), 4096-sample blocks summed in order.  Across
machines the mc_* columns and the exit status keep their bytes whatever SIMD
level numpy dispatches to; the analytic and asymptote columns agree to a few
ulp, since numpy's AVX-512 exp and log1p round differently from its other
loops.

op-curve, ser-curve and validate share one front that turns the config and
the sweep flags into a direction, a dBW grid and (p1, p2, p3) arrays; each
column is then one sweep-kernel call over the grid (analytic.outage_sweep,
ser_sweep; montecarlo.mc_outage_sweep, mc_ser_expectation_sweep,
mc_ser_signal_level_sweep), whose Monte-Carlo rows each equal the one-point
estimate at their power.

Exit status: 0 success, 1 `validate` with fewer than 95% of points inside
the Monte-Carlo band, 2 usage/config/infeasible-target error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import analytic, model, montecarlo
from .analytic import InfeasibleTargetError, QuadratureError
from .model import MODULATIONS, Direction, ImpairmentPair, Modulation, OutageQuery, SystemConfig
from .montecarlo import McConfig

__all__ = ["ConfigError", "main", "entry"]

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
        if key in multipliers:
            raise ValueError(f"coupling clause {clause!r} sets {key} a second time")
        rest = expr[2:]
        if rest == "":
            factor = 1.0
        elif rest.startswith("*"):
            factor = float(rest[1:])
        elif rest.startswith("/"):
            divisor = float(rest[1:])
            factor = 1.0 / divisor if divisor else math.inf
        else:
            raise ValueError(f"cannot parse coupling clause {clause!r}")
        if not 0.0 < factor < math.inf:
            raise ValueError(f"coupling multiplier must be finite and positive in {clause!r}")
        multipliers[key] = factor
    if set(multipliers) != {"p2", "p3"}:
        raise ValueError(f"coupling rule must set both p2 and p3, got {rule!r}")
    return multipliers["p2"], multipliers["p3"]


def dbw_to_watt(dbw: float) -> float:
    return 10.0 ** (dbw / 10.0)


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _sweep(args):
    """The config, direction, dBW grid and (p1, p2, p3) arrays in watts of a sweep command."""
    base = parse_config(args.config)
    start, stop = args.p1_dbw
    for name, dbw in (("start", start), ("stop", stop)):
        try:
            watts = dbw_to_watt(dbw)
        except OverflowError:
            watts = math.inf
        if not 0.0 < watts < math.inf:
            raise ValueError(f"sweep {name} {dbw!r} dBW is not a finite positive power in watts")
    if not start < stop:
        raise ValueError("sweep start must be below sweep stop")
    if args.points < 2:
        raise ValueError("sweep needs at least 2 points")
    m2, m3 = parse_coupling(args.coupling)
    grid = [float(dbw) for dbw in np.linspace(start, stop, args.points)]
    p1 = np.array([dbw_to_watt(dbw) for dbw in grid])
    return base, Direction(args.direction), grid, (p1, m2 * p1, m3 * p1)


def _mc_columns(estimates) -> dict:
    """The mc_mean, mc_ci_low and mc_ci_high columns of a sweep's estimates (None: no columns)."""
    return {f"mc_{field}": None if estimates is None else [getattr(est, field) for est in estimates]
            for field in ("mean", "ci_low", "ci_high")}


def _write_csv(out_path: str, comments: list[str], **columns):
    """Write the named columns in order, leaving out every column that is None."""
    columns = {name: values for name, values in columns.items() if values is not None}
    lines = [CSV_SIGNATURE, *comments, ",".join(columns)]
    lines += [",".join(_fmt(value) for value in row) for row in zip(*columns.values())]
    text = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _mc_config(args, confidence: float = 0.95) -> McConfig:
    return McConfig(seed=args.seed, n_samples=args.samples, confidence=confidence)


def _resolve_modulation(args) -> Modulation:
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise ValueError("--alpha and --beta must be given together")
        return Modulation(alpha=args.alpha, beta=args.beta)
    if args.modulation not in MODULATIONS:
        raise ValueError(
            f"unknown modulation {args.modulation!r}; known: {', '.join(sorted(MODULATIONS))} "
            "(or pass explicit --alpha/--beta)"
        )
    return MODULATIONS[args.modulation]


def _floor_inputs(base: SystemConfig, direction: Direction, powers):
    """(r*omega_i, omega_ri, c): a coupling keeps p_i = r*p_ri, so its floors are those at r*omega_i."""
    p_i, p_ri, _, om_i, om_ri = model.link_params(base, direction, powers)
    return p_i[0] / p_ri[0] * om_i, om_ri, model.derived_constants(base, direction).c


def _cmd_op_curve(args) -> int:
    base, direction, grid, powers = _sweep(args)
    query = OutageQuery(args.x, direction)
    floor = float(analytic.outage_asymptotic(*_floor_inputs(base, direction, powers), args.x))

    values = analytic.outage_sweep(base, query, powers)
    estimates = montecarlo.mc_outage_sweep(base, query, powers, _mc_config(args)) if args.mc else None
    _write_csv(args.out, [], p1_dbw=grid, analytic=values.tolist(), asymptote=[floor] * len(grid),
               **_mc_columns(estimates))
    return 0


def _cmd_ser_curve(args) -> int:
    base, direction, grid, powers = _sweep(args)
    mod = _resolve_modulation(args)
    if args.mc and args.mc_route == "signal" and (mod.alpha, mod.beta) != (1.0, 1.0):
        raise ValueError("--mc-route signal simulates BPSK only (alpha=beta=1)")

    om_i, om_ri, c = _floor_inputs(base, direction, powers)
    comments: list[str] = []
    floor = None
    if c > 0:
        if om_i == om_ri:
            floor = analytic.ser_asymptotic(mod, c)
        else:
            floor = analytic.ser_floor_quadrature(mod, om_i, om_ri, c)
            route = ("small-c limit alpha*c/(4*beta) times the gain ratio"
                     if analytic._small_c_limit(mod, om_i / om_ri, c) is not None
                     else "quadrature over the asymptotic outage CDF")
            comments.append(f"# asymptote: {route} (extension; unequal average channel gains or powers)")

    values = analytic.ser_sweep(base, direction, mod, powers)
    estimates = None
    if args.mc and args.mc_route == "signal":
        estimates = montecarlo.mc_ser_signal_level_sweep(base, direction, powers, _mc_config(args))
    elif args.mc:
        estimates = montecarlo.mc_ser_expectation_sweep(base, direction, mod, powers, _mc_config(args))
    _write_csv(args.out, comments, p1_dbw=grid, analytic=values.tolist(),
               asymptote=None if floor is None else [floor] * len(grid), **_mc_columns(estimates))
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
    base, direction, grid, powers = _sweep(args)
    mc = _mc_config(args, THREE_SIGMA_CONFIDENCE)

    print(f"{'p1_dbw':>8}  {'analytic':>20}  {'mc_mean':>20}  "
          f"{'ci_low':>20}  {'ci_high':>20}  flag")
    query = OutageQuery(args.x, direction)
    values = analytic.outage_sweep(base, query, powers)
    estimates = montecarlo.mc_outage_sweep(base, query, powers, mc)
    passed = 0
    for dbw, value, est in zip(grid, values, estimates):
        value = float(value)
        ok = est.ci_low <= value <= est.ci_high
        passed += ok
        print(f"{dbw:8.2f}  {value:20.17f}  {est.mean:20.17f}  "
              f"{est.ci_low:20.17f}  {est.ci_high:20.17f}  {'PASS' if ok else 'FAIL'}")
    print(f"# {passed}/{len(grid)} points passed")
    return 0 if passed >= 0.95 * len(grid) else 1


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
