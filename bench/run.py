"""End-to-end benchmark of the twoway-impair command line, run in-process.

    python3 bench/run.py --workload op_family --seed 1 --seconds 10 --trace 0

Each job calls `twoway_impair.cli.main(argv)` the way a user's command does,
with the CSV captured in memory (`--out -`), and every CSV row is checked
against the benchmark's own oracle (oracle.py, checks.py).  A run repeats one
round of jobs, built from the seed (workloads.py), until `--seconds` have
passed and at least MIN_JOBS jobs completed (a traced pass also ends once it
holds SPAN_BUDGET spans); one untimed round warms up first.

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload untraced
and then traced (spans.py) and prints the per-layer metrics.  The last line
of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Lines before it, starting with '#', describe the machine and the run.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MIN_JOBS = 40
SETUP_REPEATS = 5
THREADS = "1"
# A traced pass ends early, on a round boundary, once it holds this many spans.
SPAN_BUDGET = 1_000_000


@dataclass
class PassResult:
    """Outcome of whole rounds of one job list."""

    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    job_times: list[float] = field(default_factory=list)
    completed: set[int] = field(default_factory=set)
    rows: int = 0
    rounds: int = 0
    jobs_started: int = 0


class Bench:
    """A prepared round: its config files on disk and the oracle's values."""

    def __init__(self, cli, workload: str, seed: int, workdir: Path):
        self.cli = cli
        self.jobs = workloads.build_round(workload, seed)
        commands = {cmd for job in self.jobs for cmd in job}
        self.paths = {}
        for link in dict.fromkeys(cmd.link for job in self.jobs for cmd in job):
            path = workdir / f"{workload}-{len(self.paths)}.cfg"
            path.write_text(workloads.config_text(link), encoding="utf-8")
            self.paths[link] = str(path)
        self.expected = {cmd: checks.expect(cmd) for cmd in commands}
        self.errors = checks.ErrorLog()

    def run(self, seconds: float, min_jobs: int, tracer=None, rounds: int | None = None) -> PassResult:
        """Whole rounds until `seconds` passed and `min_jobs` completed, or `rounds` rounds.

        The heap built so far (imports, oracle values) is frozen first: a CLI
        process runs one command and never rescans it, while thousands of
        commands in one process would, in full collections of many ms that
        no user pays.
        """
        gc.collect()
        gc.freeze()
        result = PassResult()
        deadline = perf_counter() + seconds
        while True:
            for job in self.jobs:
                self._run_job(job, result.jobs_started, result, tracer)
                result.jobs_started += 1
            result.rounds += 1
            if rounds is not None:
                if result.rounds >= rounds:
                    return result
            elif tracer is not None and len(tracer.start) >= SPAN_BUDGET:
                return result
            elif perf_counter() >= deadline and len(result.job_times) >= min_jobs:
                return result

    def _call_main(self, argv, tracer):
        try:
            if tracer is None:
                return self.cli.main(argv)
            return tracer.call(0, 0, self.cli.main, argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, reported below
            traceback.print_exc()
            return -1

    def _run_job(self, job, job_id: int, result: PassResult, tracer):
        if tracer is not None:
            tracer.job_id = job_id
        elapsed, rows, ok = 0.0, 0, True
        for cmd in job:
            argv = cmd.argv(self.paths[cmd.link])
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                t0 = perf_counter()
                status = self._call_main(argv, tracer)
                elapsed += perf_counter() - t0
            result.attempted += 1
            if status == 0:
                problem = checks.check(cmd, self.expected[cmd], out.getvalue(), self.errors)
                if problem is None:
                    rows += cmd.sweep[2]
                    continue
            elif checks.is_known_fault(cmd, status, err.getvalue()):
                problem = None
            else:
                problem = f"exit {status}: {err.getvalue().strip()[-300:]}"
            ok = False
            result.failed += 1
            if problem is not None:
                result.unexpected.append(f"{' '.join(argv)}: {problem}")
        if ok:
            result.job_times.append(elapsed)
            result.completed.add(job_id)
            result.rows += rows


def calibrate(reps: int = 5) -> float:
    """Best time of a fixed reference loop (Python scalar math plus numpy)."""
    grid = np.linspace(0.0, 1.0, 1 << 16)
    best = math.inf
    for _ in range(reps):
        t0 = perf_counter()
        acc = 0.0
        for i in range(1, 200_001):
            acc += math.sqrt(i) * math.exp(-1e-5 * i)
        for _ in range(50):
            acc += float(np.exp(-grid).sum())
        best = min(best, perf_counter() - t0)
    return best


def measure_setup(workload: str, bench: Bench) -> float:
    """Median wall time of fresh interpreters running the workload's smallest command."""
    link = next(cmd.link for job in bench.jobs for cmd in job if not cmd.mismatched)
    argv = workloads.minimal_command(workload, link).argv(bench.paths[link])
    child = [sys.executable, str(BENCH / "cold.py"), *argv]
    times = []
    for rep in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        proc = subprocess.run(child, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120, check=False)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"cold command failed ({proc.returncode}): {proc.stderr.decode()[-300:]}")
        if rep:  # the first run only warms the file cache
            times.append(elapsed)
    return statistics.median(times)


def tail(times: list[float]) -> float:
    """The highest percentile of `times` with at least ten values beyond it."""
    return sorted(times)[len(times) - 11]


def run_traced(modules, workload: str, seed: int, seconds: float, workdir: Path):
    """Untraced then traced pass of `workload`; returns (counted passes, per-layer metrics, problems)."""
    bench = Bench(modules["cli"], workload, seed, workdir)
    problems = bench.run(0, 0, rounds=1).unexpected      # warm-up, not timed
    plain = bench.run(seconds / 2, MIN_JOBS)
    tracer = spans.Tracer()
    peaks: list[float] = []
    problems += plain.unexpected

    mc = bench if workload == "mc_validation" else Bench(modules["cli"], "mc_validation", seed, workdir)
    with spans.memory_probe(modules, peaks):
        problems += mc.run(0, 0, rounds=1).unexpected
    with spans.patched(tracer, modules):
        traced = bench.run(seconds / 2, MIN_JOBS, tracer)
        problems += traced.unexpected
        companion = None
        if mc is not bench:
            tracer.source_id = 1
            companion = mc.run(0, 0, tracer, rounds=1)
            problems += companion.unexpected
    table = tracer.arrays()
    span_file = OUT / f"spans_{workload}.npz"
    np.savez_compressed(span_file, **table)
    own = spans.layer_metrics(table, 0, traced.completed, traced.rows)
    other = spans.layer_metrics(table, 1, companion.completed, companion.rows) if companion else {}
    metrics = {}
    for name, unit, kind in spans.LAYER_METRICS:
        value = own[name]
        if value is None and kind == "time":
            value = other.get(name)
        metrics[name] = (value if value is not None else 0.0, unit)
    metrics["montecarlo.mc_ser_signal_level.peak_mb"] = (statistics.median(peaks) if peaks else 0.0, "MB")
    overhead = statistics.median(traced.job_times) - statistics.median(plain.job_times)
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"# spans {span_file.relative_to(ROOT)}: {len(tracer.start)} spans; "
          f"traced rounds={traced.rounds}, untraced rounds={plain.rounds}")
    counted = PassResult(attempted=plain.attempted + traced.attempted, failed=plain.failed + traced.failed)
    return counted, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twoway_impair" / "cli.py").is_file():
        print(f"error: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ["TWOWAY_IMPAIR_THREADS"] = THREADS
    sys.path.insert(0, str(ROOT / "src"))
    from twoway_impair import analytic, cli, model, montecarlo, specfun

    modules = {"cli": cli, "analytic": analytic, "model": model, "montecarlo": montecarlo, "specfun": specfun}
    print(f"# env nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={np.__version__} scipy={scipy.__version__} "
          f"TWOWAY_IMPAIR_THREADS={os.environ['TWOWAY_IMPAIR_THREADS']}")

    calib_start = calibrate()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            counted, metrics, problems = run_traced(modules, args.workload, args.seed, args.seconds, workdir)
        else:
            bench = Bench(cli, args.workload, args.seed, workdir)
            setup_s = measure_setup(args.workload, bench)
            problems = bench.run(0, 0, rounds=1).unexpected  # warm-up, not timed
            counted = bench.run(args.seconds, MIN_JOBS)
            problems += counted.unexpected
            times = counted.job_times
            metrics = {
                "setup_s": (setup_s, "s"),
                "points_per_s": (counted.rows / sum(times), "1/s"),
                "job_s_p50": (statistics.median(times), "s"),
                "job_s_tail": (tail(times), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            print(f"# run rounds={counted.rounds} jobs={len(times)} completed, "
                  f"tail=p{100.0 * (len(times) - 10) / len(times):.1f}; "
                  f"oracle max error: outage {bench.errors.outage_abs:.3g} abs, "
                  f"SER {bench.errors.ser_rel:.3g} rel")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib_end = calibrate()
    print(f"# host.calib_s start={calib_start:.6f} end={calib_end:.6f}")
    if args.trace:
        metrics["host.calib_s"] = ((calib_start + calib_end) / 2, "s")
    for problem in problems[:5]:
        print(f"# FAILED CHECK {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": counted.attempted,
        "failed": counted.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
