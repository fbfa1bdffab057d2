#!/usr/bin/env python3
"""Benchmark of lehmerdefect: verify, resumed search and table output.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run imports the package from ``src/``, builds its inputs from the seed and
runs one untimed warm-up round of the workload's operations (set-up).  It
then runs whole rounds for ``--seconds`` seconds, each operation timed alone
after a ``gc.collect()``, checks every output against the warm-up output and
the warm-up outputs against ``oracle``, and prints one JSON object as its
last line.  With ``--trace 0`` that object holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of ``layers.py``.  ``--workload all`` runs
each workload in a process of its own and prints a table.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = tuple(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
# Set-ups in fresh processes besides the run's own; setup_s is their median.
CHILD_SETUPS = 4


def host_ms() -> float:
    """Wall time, in ms, of a fixed loop of small-integer gcds and products.

    It stands for the host's speed at this moment.  The shared host this was
    tuned on runs the same code up to ~1.6x slower for seconds at a time and
    drifts by as much between minutes (README.md, "Host speed"), so every
    timing is divided by a reading taken right before it.  The loop takes
    about 0.75 ms on that host at its fast speed.
    """
    t0 = time.perf_counter()
    s = 0
    for a in range(1, 50):
        for q in range(-60, 61):
            if q and gcd(a, q) == 1:
                s += gcd(a * a * a * q - q * q * q * a, 7919 * a + 1)
    return (time.perf_counter() - t0) * 1000


def lower_quartile(xs: list[float]) -> float:
    """First quartile of an operation's samples.

    Even after the host-speed division, slow stretches leave a long upper
    tail; the first quartile reads the operation's typical fast time and
    moves little with the share of slow samples, where the median jumps.
    """
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=4, method="inclusive")[0]


def import_package():
    """Put the checkout's src/ first on the path and import the workloads."""
    if not (SRC / "lehmerdefect" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'lehmerdefect'}; "
                 "run from the root of a lehmerdefect checkout")
    sys.path.insert(0, str(SRC))
    import lehmerdefect
    import workloads

    if Path(lehmerdefect.__file__).resolve().parent != SRC / "lehmerdefect":
        sys.exit(f"perfbench: imported {lehmerdefect.__file__}, not the checkout's copy")
    return workloads


def set_up(name: str, seed: int, workdir: Path):
    """Import, inputs from the seed and one warm-up round.

    Returns the workload and the set-up time in host-normalised seconds.
    """
    hosts = [host_ms() for _ in range(3)]
    t0 = time.perf_counter()
    workloads = import_package()
    w = workloads.WORKLOADS[name](seed, workdir)
    warm_up(w)
    wall = time.perf_counter() - t0
    hosts += [host_ms() for _ in range(3)]
    return w, wall / statistics.median(hosts)


def warm_up(w) -> None:
    for op in w.ops:
        if op.prepare:
            op.prepare()
        op.expected = op.run()


def time_op(w, op, note_host=None) -> tuple[float, float, bool]:
    """Wall seconds of one operation, host_ms() before it, and whether its output was right."""
    if op.prepare:
        op.prepare()
    gc.collect()
    host = host_ms()
    if note_host:
        note_host(host)
    t = time.perf_counter()
    out = op.run()
    dt = time.perf_counter() - t
    return dt, host, w.accept(op, out)


class Tally:
    """Samples per operation, with the attempted and failed counts.

    A sample is the operation's wall time divided by host_ms(): the seconds
    it would take on a host where that loop takes exactly 1 ms.
    """

    def __init__(self, w):
        self.samples: dict[str, list[float]] = {op.name: [] for op in w.ops}
        self.wall: dict[str, list[float]] = {op.name: [] for op in w.ops}
        self.hosts: list[float] = []
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, dt: float, host: float, ok: bool) -> None:
        self.samples[name].append(dt / host)
        self.wall[name].append(dt)
        self.hosts.append(host)
        self.attempted += 1
        self.failed += not ok

    def pass_s(self, wall: bool = False) -> float:
        """Sum over the distinct operations of each one's lower quartile."""
        samples = self.wall if wall else self.samples
        return sum(lower_quartile(xs) for xs in samples.values())

    def op_ms(self) -> float:
        """Median over the distinct operations of each one's lower quartile."""
        return 1000 * statistics.median(lower_quartile(xs) for xs in self.samples.values())

    def rounds(self) -> int:
        return min(len(xs) for xs in self.samples.values())


def measure(w, seconds: float) -> Tally:
    """Whole rounds of the workload until `seconds` have passed."""
    tally = Tally(w)
    deadline = time.perf_counter() + seconds
    while True:
        for op in w.round():
            tally.add(op.name, *time_op(w, op))
        if time.perf_counter() >= deadline:
            return tally


def child_setup_s(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"perfbench: set-up process exited with {done.returncode}")
    return float(done.stdout.splitlines()[-1])


def end_to_end(args, workdir: Path) -> dict:
    w, own_setup = set_up(args.workload, args.seed, workdir)
    setups = [own_setup] + [child_setup_s(args) for _ in range(CHILD_SETUPS)]
    tally = measure(w, args.seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the oracle's imports
    oracle.self_check()
    w.check()
    print(f"{args.workload}: {tally.rounds()} rounds of {len(w.ops)} operations; "
          f"host_ms median {statistics.median(tally.hosts):.4f}; "
          f"wall pass_s {tally.pass_s(wall=True):.4f}; "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)}")
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": tally.pass_s(), "unit": "s"},
            "op_ms": {"value": tally.op_ms(), "unit": "ms"},
            "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
        },
    }


def run_all(args) -> int:
    """Each workload in a fresh process; a table of what they printed."""
    results, worst = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        worst = max(worst, done.returncode)
        lines = done.stdout.splitlines()
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return worst or (0 if len(results) == len(WORKLOAD_NAMES) else 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            print(set_up(args.workload, args.seed, workdir)[1])
            return 0
        try:
            if args.trace:
                import_package()
                import layers

                result = layers.traced_run(args, workdir)
            else:
                result = end_to_end(args, workdir)
        except oracle.WrongOutput as e:
            print(f"perfbench: WRONG OUTPUT: {e}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
            return 1
        print(json.dumps({"correct": True, **result}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


if __name__ == "__main__":
    sys.exit(main())
