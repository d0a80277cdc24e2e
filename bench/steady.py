"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 bench/steady.py --runs 10

Each workload of BENCHMARK.json is run `--runs` times per set, for
`run_seconds` each, every run with its own seed (set 1 uses seeds 1..runs,
set 2 seeds 101..100+runs).  The two sets are interleaved, run i of set 1
next to run i of set 2, so that a slow spell of a shared machine falls on
both sets rather than on one.  For every end-to-end metric and workload it
prints both medians and quartiles and the spread (q3 - q1) / median of each
set.  The sets agree on a metric when both spreads are within its bound and
the two medians differ by at most the bound, in either direction.  It also
prints each set's median host.calib_s (a fixed reference loop; a shift there
is the machine, not the code) and checks that the failed share is identical.
Raw results go to bench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED_BASE = {1: 0, 2: 100}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    calib = re.search(r"# host.calib_s start=(\S+) end=(\S+)", proc.stdout)
    result["calib"] = (float(calib[1]) + float(calib[2])) / 2
    return result


def summary(values: list[float]):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    sets = {set_id: {w: [] for w in workloads} for set_id in SEED_BASE}
    for i in range(1, args.runs + 1):
        for workload in workloads:
            for set_id, base in SEED_BASE.items():
                result = one_run(workload, base + i, spec["run_seconds"])
                sets[set_id][workload].append(result)
                print(f"set {set_id} {workload} seed {base + i}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steady.json").write_text(json.dumps(sets, indent=1))

    all_agree = True
    for workload in workloads:
        a, b = sets[1][workload], sets[2][workload]
        calib = [statistics.median(r["calib"] for r in s) for s in (a, b)]
        shares = [{r["failed"] / r["attempted"] for r in s} for s in (a, b)]
        same_share = len(shares[0] | shares[1]) == 1
        all_agree &= same_share
        print(f"\n{workload}: host.calib_s {calib[0]:.4f} / {calib[1]:.4f} s; "
              f"failed share {sorted(shares[0] | shares[1])} {'same' if same_share else 'DIFFERS'}")
        print(f"  {'metric':<13} {'median 1':>11} {'q1..q3 1':>23} {'spread':>7}  "
              f"{'median 2':>11} {'q1..q3 2':>23} {'spread':>7}  {'2 vs 1':>7}  bound  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            s1 = summary([r["metrics"][name]["value"] for r in a])
            s2 = summary([r["metrics"][name]["value"] for r in b])
            change = s2[0] / s1[0] - 1.0
            ok = max(s1[3], s2[3]) <= bound and abs(change) <= bound
            all_agree &= ok
            print(f"  {name:<13} {s1[0]:>11.5g} {s1[1]:>11.5g}..{s1[2]:<11.5g} {s1[3]:>7.3f}  "
                  f"{s2[0]:>11.5g} {s2[1]:>11.5g}..{s2[2]:<11.5g} {s2[3]:>7.3f}  {change:>+7.3f}  "
                  f"{bound:<5}  {'agree' if ok else 'DISAGREE'}")
    print("\nall sets agree within the bounds" if all_agree else "\nsets DISAGREE")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
