#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same code and compare them.

For every workload and end-to-end metric in BENCHMARK.json this prints each
set's median and spread (the distance between the first and third quartile
of the runs, as a share of their median), and the second median's change
against the first.  A metric passes when each spread is within its bound and
the second median is not worse than the first by more than the bound; the
share of failed operations must be exactly equal in the two sets.  Spreads
above a third of the bound are marked '!'.  Exits 1 when anything fails.

Run from the root of a checkout (one run takes about --seconds + 5 s):

    python3 perfbench/compare.py --runs 10
    python3 perfbench/compare.py --runs 3 --workloads resume

Set one uses seeds 1..runs, set two the next --runs seeds.  The raw results
go to --out as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"compare: {' '.join(cmd)} exited with {done.returncode}")
    res = json.loads(done.stdout.splitlines()[-1])
    res["seed"], res["wall_s"] = seed, time.perf_counter() - t0
    return res


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload in each set")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "compare.json")
    args = parser.parse_args()

    sets: list[dict[str, list[dict]]] = []
    for s in range(2):
        runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for w in args.workloads:
                res = one_run(w, seed, args.seconds)
                runs[w].append(res)
                print(f"set {s + 1} {w} seed {seed}: " + " ".join(
                    f"{k}={m['value']:.5g}" for k, m in res["metrics"].items())
                    + f" failed={res['failed']}/{res['attempted']}", flush=True)
        sets.append(runs)
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps({"seconds": args.seconds, "sets": sets}, indent=1))

    ok = True
    print(f"\n{'workload':8} {'metric':12} {'median 1':>10} {'spread 1':>9} "
          f"{'median 2':>10} {'spread 2':>9} {'change':>8} {'bound':>6}  verdict")
    for w in args.workloads:
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            values = [[r["metrics"][name]["value"] for r in runs[w]] for runs in sets]
            meds = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            change = meds[1] / meds[0] - 1
            good = all(x <= bound for x in spreads) and (change if lower else -change) <= bound
            marks = "!" if any(x > bound / 3 for x in spreads) else ""
            print(f"{w:8} {name:12} {meds[0]:10.5g} {spreads[0]:9.2%} "
                  f"{meds[1]:10.5g} {spreads[1]:9.2%} {change:+8.2%} "
                  f"{bound:6.2f}  {'ok' if good else 'FAIL'}{marks}")
            ok = ok and good
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs[w]}
        same = len(shares) == 1
        print(f"{w:8} failed share {', '.join(str(x) for x in sorted(shares))}"
              f"  {'ok' if same else 'FAIL: differs between runs'}")
        ok = ok and same
    print(f"raw results: {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
