"""Print a digest of a fixed matrix of CLI commands, to compare two source trees.

Each command runs in-process through `twoway_impair.cli.main`; the script
prints one line per command: the sha256 of (exit code, stdout, stderr),
then the argv.  The config files are written to a temporary directory that
is the working directory while the commands run, so no output depends on
where the script runs.  To check that a change keeps every output, run it
against both trees and diff the two outputs:

    PYTHONPATH=<old tree>/src python3 tools/cli_digest.py > old.txt
    PYTHONPATH=<new tree>/src python3 tools/cli_digest.py > new.txt
    diff old.txt new.txt

The first line, after `#`, names numpy's version and the dispatch targets
it enabled on this CPU.  The digest holds per SIMD level only: numpy's
AVX-512 loops round exp and log1p differently from its other loops, so on
another level the analytic columns can move by an ulp (every exit code and
Monte-Carlo column keeps its bytes; tests/test_cli.py checks that).  Diff two
digests only when their first lines agree.

The digest compares exit codes and output bytes only.  A last-bit move
inside the Monte-Carlo signal chain that leaves every tally in place does
not show in it; tests/test_montecarlo.py pins the chain's arrays for that.

The matrix covers matched and mismatched relays (kappa3r_assumed below and
above the true receive EVM), ideal hardware, a near-ideal relay (EVM 1e-9,
whose SER floor needs gamma(3/2, x) at x ~ 5e17), equal and unequal average
channel gains, both directions, every curve command with both Monte-Carlo
routes, `--alpha/--beta`, a custom coupling, `validate`, sample counts that
leave a partial 4096-sample block, sweeps of more than 16 points, the
sweep-flag usage errors, SER inversions at 1e-20 and at a subnormal target,
an outage inversion whose bound overflows, outage curves whose Bessel
argument underflows to 0, SER curves at low (-60 ... 0 dBW) and high
(80 ... 160 dBW) power, where the CDF climbs to 1 near x = 0 or just below
the ceiling, outage curves at x = 1e-20 and SER curves at 100 ... 160 dBW on
ideal and near-ideal relays, where both are tiny, uneven couplings
(p2 = 4 p1, p2 = p1/4) at powers where the curves have met their floors,
SER curves on a relay of subnormal severity (EVM 1e-160, equal and unequal
gains), an outage curve at a NaN threshold, SER inversions at the ends of
the positive doubles (a target below the floor of ulp(0.0), a bound near
float max, a target one double below alpha/2, and `--beta` without
`--alpha`), and an SER curve at beta = 1e-8 on a relay of near-subnormal
severity (c ~ 2.35e-315) with gains 1:2, whose floor is its small-c limit,
and outage curves at x = 1e300 and -100 ... 0 dBW on ideal and subnormal
relays, whose closed form is not finite (its outage is certain).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile

import numpy as np

from twoway_impair.cli import main

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

BASE = {
    "p1": "1000", "p2": "1000", "p3": "500", "n1": "1", "n2": "1", "n3": "1",
    "omega1": "2", "omega2": "1", "kappa3t": "0.1", "kappa3r": "0.1",
}
CONFIGS = {
    "matched.cfg": {},
    "assumed_low.cfg": {"kappa3r_assumed": "0.05"},
    "assumed_high.cfg": {"kappa3r_assumed": "0.3"},
    "ideal.cfg": {"kappa3t": "0", "kappa3r": "0"},
    "equal_gains.cfg": {"omega1": "1", "omega2": "1", "kappa3t": "0.05", "kappa3r": "0.15"},
    "near_ideal.cfg": {"omega1": "1", "omega2": "1", "kappa3t": "1e-9", "kappa3r": "1e-9"},
}
# Relays with a subnormal severity (c ~ 2e-320), where beta/c overflows; they
# serve only the commands appended at the end of the matrix.
SUBNORMAL_CONFIGS = {
    "subnormal.cfg": {"kappa3t": "1e-160", "kappa3r": "1e-160"},
    "subnormal_equal_gains.cfg": {"omega1": "1", "omega2": "1", "kappa3t": "1e-160", "kappa3r": "1e-160"},
}
# c ~ 2.35e-315 with gains 1:2; serves only one command near the end of the matrix.
NEAR_SUBNORMAL_CONFIGS = {
    "near_subnormal.cfg": {"omega1": "1", "omega2": "2", "kappa3t": "3.43e-158", "kappa3r": "3.43e-158"},
}
COUPLING = "p2=p1*2, p3=p1/3"


def curve_commands(cfg: str, direction: str) -> list[list[str]]:
    sweep = ["--config", cfg, "--direction", direction, "--p1-dbw", "0", "40"]
    return [
        ["op-curve", *sweep, "--x", "3", "--points", "19"],
        ["op-curve", *sweep, "--x", "3", "--points", "19", "--mc", "--samples", "4097"],
        ["op-curve", *sweep, "--x", "1.5", "--points", "5", "--mc", "--samples", "12289",
         "--coupling", COUPLING, "--seed", "7"],
        ["ser-curve", *sweep, "--points", "19"],
        ["ser-curve", *sweep, "--points", "7", "--coupling", COUPLING],
        ["ser-curve", *sweep, "--points", "19", "--mc", "--samples", "4097"],
        ["ser-curve", *sweep, "--points", "5", "--mc", "--samples", "12289",
         "--alpha", "2", "--beta", "0.5"],
        ["ser-curve", *sweep, "--points", "19", "--mc", "--mc-route", "signal",
         "--samples", "4097"],
        ["ser-curve", *sweep, "--points", "5", "--mc", "--mc-route", "signal",
         "--samples", "12289", "--coupling", COUPLING, "--seed", "3"],
        ["validate", *sweep, "--x", "3", "--points", "19", "--samples", "4097"],
        ["validate", *sweep, "--x", "31", "--points", "5", "--samples", "12289"],
    ]


def matrix() -> list[list[str]]:
    commands = [
        curve
        for cfg in CONFIGS
        for direction in ("1", "2")
        for curve in curve_commands(cfg, direction)
    ]
    sweep = ["--config", "matched.cfg", "--x", "3", "--points", "3"]
    commands += [
        ["op-curve", *sweep, "--p1-dbw", "0", "40", "--coupling", "p2=p3"],
        ["op-curve", *sweep, "--p1-dbw", "0", "40", "--coupling", "p2=p1/0, p3=p1/2"],
        ["op-curve", *sweep, "--p1-dbw", "0", "40", "--coupling", "p2=p1*inf, p3=p1/2"],
        ["op-curve", *sweep, "--p1-dbw", "0", "4000"],
        ["op-curve", *sweep, "--p1-dbw", "-4000", "0"],
        ["invert", "op", "--target", "1e-3", "--x", "3", "--omega-i", "2"],
        ["invert", "ser", "--target", "1e-3", "--modulation", "bpsk"],
        ["invert", "ser", "--target", "1e-20"],
        # appended last, so that the lines of an older matrix stay a prefix
        ["invert", "op", "--target", "0.5", "--x", "1e-320"],
        ["invert", "ser", "--target", "1e-310"],
        ["op-curve", "--config", "matched.cfg", "--x", "1e-320", "--p1-dbw", "0", "40"],
        ["op-curve", "--config", "matched.cfg", "--x", "1e-25", "--p1-dbw", "1400", "1500"],
        ["ser-curve", "--config", "matched.cfg", "--p1-dbw", "-60", "0"],
        ["ser-curve", "--config", "matched.cfg", "--p1-dbw", "80", "160"],
    ]
    for cfg in ("ideal.cfg", "near_ideal.cfg"):
        commands += [
            ["op-curve", "--config", cfg, "--x", "1e-20", "--p1-dbw", "0", "80"],
            ["ser-curve", "--config", cfg, "--p1-dbw", "100", "160"],
        ]
    for coupling in ("p2=p1*4, p3=p1/2", "p2=p1/4, p3=p1/2"):
        for direction in ("1", "2"):
            sweep = ["--config", "matched.cfg", "--direction", direction, "--coupling", coupling]
            commands += [
                ["op-curve", *sweep, "--x", "31", "--p1-dbw", "160", "200", "--points", "3"],
                ["ser-curve", *sweep, "--p1-dbw", "260", "300", "--points", "3"],
            ]
    for cfg in SUBNORMAL_CONFIGS:
        sweep = ["ser-curve", "--config", cfg, "--p1-dbw", "0", "40", "--points", "3"]
        commands += [
            sweep,
            [*sweep, "--mc", "--samples", "4097"],
            [*sweep, "--mc", "--mc-route", "signal", "--samples", "4097"],
            [*sweep, "--alpha", "1", "--beta", "1e8"],
        ]
    commands.append(["op-curve", "--config", "matched.cfg", "--x", "nan", "--p1-dbw", "0", "40"])
    commands += [
        ["invert", "ser", "--target", "1e-320", "--alpha", "2", "--beta", "1e-10"],
        ["invert", "ser", "--target", "0.1", "--beta", "1e300"],
        ["invert", "ser", "--target", "0.1", "--alpha", "1", "--beta", "1e300"],
        ["invert", "ser", "--target", "0.4999999999999999"],
        ["ser-curve", "--config", "near_subnormal.cfg", "--p1-dbw", "0", "40", "--points", "3",
         "--alpha", "1", "--beta", "1e-8"],
    ]
    commands += [["op-curve", "--config", cfg, "--x", "1e300", "--p1-dbw", "-100", "0", "--points", "5"]
                 for cfg in ("ideal.cfg", "subnormal.cfg")]
    return commands


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(code: int, stdout: str, stderr: str) -> str:
    h = hashlib.sha256()
    for part in (str(code), stdout, stderr):
        data = part.encode("utf-8")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def simd_level() -> str:
    """numpy's version and the dispatch targets it enabled, e.g. 'numpy 2.4.6; dispatch X86_V3 X86_V4'."""
    enabled = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    return f"numpy {np.__version__}; dispatch {' '.join(enabled) or 'none (baseline only)'}"


def main_digest() -> int:
    print("#", simd_level(), flush=True)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, overrides in {**CONFIGS, **SUBNORMAL_CONFIGS, **NEAR_SUBNORMAL_CONFIGS}.items():
                with open(name, "w", encoding="utf-8") as handle:
                    handle.writelines(f"{k} = {v}\n" for k, v in {**BASE, **overrides}.items())
            for argv in matrix():
                print(digest(*run(argv)), shlex.join(argv), flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
