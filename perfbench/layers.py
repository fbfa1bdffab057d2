"""The traced run: per-layer metrics from spans taken outside the program.

``Tracer`` replaces public functions of ``cli``, ``harness``, ``families``
and ``primdiv`` by wrappers that record a span (name, start, end, parent and
a few counts) in memory, and puts the originals back afterwards.  Spans stop
at function boundaries: per-candidate costs of the scan come from probes that
call ``pairs.validate_ab``, ``pairs.lehmer_prefix`` and
``primdiv.residual_after_stripping`` over the verify workload's candidate box.

A traced run of any workload reports every per-layer metric:

* its own workload, in alternating untraced and traced rounds for
  ``--seconds``, gives ``trace.overhead_pct``, the change in ``pass_s``;
* three traced rounds of each workload give the span metrics;
* the probes give the per-candidate, pool and checkpoint-load metrics.

Like the end-to-end times, every time here is divided by a ``run.host_ms()``
reading taken right before the operation or probe step it belongs to, so it
reads as seconds on a host where that loop takes 1 ms.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

from lehmerdefect import cli, families, harness, pairs, primdiv

import oracle
import run
from workloads import NS, WORKLOADS, Resume, Verify

TRACED_ROUNDS = 3


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_s = 0.0
        self._gc_t0 = 0.0
        self.host = 1.0  # host_ms() before the current operation; spans are divided by it

    def set_host(self, host: float) -> None:
        self.host = host

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self._gc_s += time.perf_counter() - self._gc_t0

    def wrap(self, module, attr, before=None, after=None):
        orig = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "children_s": 0.0, **(before(*args, **kwargs) if before else {})}
            self._stack.append(span)
            gc0 = self._gc_s
            span["start"] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["dur"] = (span["end"] - span["start"]) / self.host
            span["gc_s"] = (self._gc_s - gc0) / self.host
            if span["parent"] is not None:
                span["parent"]["children_s"] += span["dur"]
            if after:
                span.update(after(result, *args, **kwargs))
            self.spans.append(span)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, orig))

    def install(self):
        self.wrap(cli, "run", after=lambda rc, argv, stdout=None, stderr=None:
                  {"out_bytes": len(stdout.getvalue())})
        self.wrap(harness, "verify_table")
        self.wrap(harness, "search_defective", after=lambda r, *a, **k: {"hits": len(r.pairs)})
        self.wrap(harness, "enumerate_with_anomalies")
        self.wrap(harness, "search_with_checkpoint", before=_ckpt_before, after=_ckpt_after)
        self.wrap(harness, "audit_changes")
        self.wrap(families, "enumerate_families", after=lambda r, *a, **k: {"entries": len(r)})
        self.wrap(primdiv, "defect_witness")
        self.wrap(primdiv, "factorize", before=lambda m: {"bits": m.bit_length()})
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()
        gc.callbacks.remove(self._on_gc)

    def of(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str, key: str = "dur") -> float:
        return sum(s[key] for s in self.of(name))


def _ckpt_files(path) -> tuple[Path, Path]:
    return Path(path), Path(str(path) + ".hits")


def _ckpt_before(n, bound, path, *args, **kwargs):
    state = _ckpt_files(path)[0]
    return {"resumed": state.exists() and len(state.read_bytes().splitlines()) > 1}


def _ckpt_after(result, n, bound, path, *args, **kwargs):
    # Loading rewrites both files whole, then appends the new chunks, so the
    # bytes a call writes are the files' sizes when it returns.
    return {"written": sum(f.stat().st_size for f in _ckpt_files(path))}


def span_metrics(name: str, t: Tracer) -> dict[str, float]:
    """The per-layer metrics one traced round of workload `name` yields."""
    if name == "verify":
        return {
            "harness.scan_s": t.total("harness.search_defective"),
            "harness.hits": t.total("harness.search_defective", "hits"),
            "harness.table_check_s": sum(
                s["dur"] - s["children_s"] for s in t.of("harness.verify_table")),
        }
    if name == "resume":
        return {
            "harness.resumes": sum(s["resumed"] for s in t.of("harness.search_with_checkpoint")),
            "harness.ckpt_bytes_written": t.total("harness.search_with_checkpoint", "written"),
        }
    factorize = t.of("primdiv.factorize")
    return {
        "families.enumerate_s": t.total("families.enumerate_families"),
        "families.entries": t.total("families.enumerate_families", "entries"),
        "families.gc_s": t.total("families.enumerate_families", "gc_s"),
        "cli.emit_s": sum(s["dur"] - s["children_s"] for s in t.of("cli.run")),
        "cli.out_bytes": t.total("cli.run", "out_bytes"),
        "primdiv.factorize_ms": 1000 * statistics.fmean(s["dur"] for s in factorize),
        "primdiv.factorize_bits": statistics.fmean(s["bits"] for s in factorize),
    }


def candidate_box(bound: int):
    """(a, b) the scan visits: 0 < a <= bound, |b| <= bound, a == b mod 4."""
    for a in range(1, bound + 1):
        for q in range((a + bound) // 4, -((bound - a) // 4) - 1, -1):
            yield a, a - 4 * q


def _timed(fn, repeats: int = 3) -> float:
    """Median over `repeats` calls of fn's wall time over a host_ms() reading taken just before."""
    times = []
    for _ in range(repeats):
        gc.collect()
        host = run.host_ms()
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) / host)
    return statistics.median(times)


def per_candidate_probes(bound: int) -> dict[str, float]:
    out: dict[str, float] = {}
    box = list(candidate_box(bound))
    out["pairs.validate_us"] = 1e6 * _timed(lambda: [pairs.validate_ab(a, b) for a, b in box]) / len(box)
    results = [pairs.validate_ab(a, b) for a, b in box]
    valid = [r for r in results if isinstance(r, pairs.LehmerPair)]
    out["pairs.valid"] = len(valid)
    for kind in ("ZeroB", "ZeroQ", "NotCoprime", "DegenerateRatio"):
        out[f"pairs.reject.{kind}"] = sum(
            1 for r in results if not isinstance(r, pairs.LehmerPair) and r.kind.value == kind)
    del results
    for n in NS:
        def recurrence():
            for p in valid:
                pairs.lehmer_prefix(p, n)

        def decide():
            for p in valid:
                primdiv.residual_after_stripping(p.a, p.b, n)

        out[f"pairs.recurrence_us.n{n}"] = 1e6 * _timed(recurrence) / len(valid)
        out[f"primdiv.decide_us.n{n}"] = 1e6 * _timed(decide) / len(valid)
    return out


def pool_probe() -> dict[str, float]:
    n, bound = Resume.n, Resume.bound
    w1 = _timed(lambda: harness.search_defective(n, bound, jobs=1))
    w2 = _timed(lambda: harness.search_defective(n, bound, jobs=2))
    return {"harness.pool_overhead_s": 2 * w2 - w1, "harness.pool_speedup": w1 / w2}


def ckpt_load_probe(w: Resume) -> dict[str, float]:
    """Load and rewrite the finished checkpoint of the last resume round."""
    load = lambda: harness.search_with_checkpoint(w.n, w.bound, w.path, jobs=2, stop_after_chunks=0)
    return {"harness.ckpt_load_ms": 1000 * _timed(load, repeats=5)}


def overhead(w, seconds: float, tracer: Tracer) -> tuple[run.Tally, run.Tally]:
    """Alternate untraced and traced rounds of w for `seconds`."""
    plain, traced = run.Tally(w), run.Tally(w)
    deadline = time.perf_counter() + seconds
    while True:
        for tally, on in ((plain, False), (traced, True)):
            if on:
                tracer.install()
            try:
                for op in w.round():
                    tally.add(op.name, *run.time_op(w, op, tracer.set_host))
            finally:
                if on:
                    tracer.uninstall()
            tracer.spans.clear()
        if time.perf_counter() >= deadline:
            return plain, traced


def traced_run(args, workdir: Path) -> dict:
    own, _ = run.set_up(args.workload, args.seed, workdir)
    tracer = Tracer()
    plain, traced = overhead(own, args.seconds, tracer)
    metrics = {"trace.overhead_pct": 100 * (traced.pass_s() / plain.pass_s() - 1)}

    rounds: dict[str, list[dict[str, float]]] = {}
    by_name = {own.name: own}
    for name, cls in WORKLOADS.items():
        w = by_name.setdefault(name, cls(args.seed, workdir / name))
        if w is not own:
            w.workdir.mkdir()
            run.warm_up(w)
        rounds[name] = []
        for _ in range(TRACED_ROUNDS):
            tracer.install()
            try:
                for op in w.round():
                    run.time_op(w, op, tracer.set_host)
            finally:
                tracer.uninstall()
            rounds[name].append(span_metrics(name, tracer))
            tracer.spans.clear()
        for key in rounds[name][0]:
            metrics[key] = statistics.median(r[key] for r in rounds[name])
    metrics.update(per_candidate_probes(Verify.bound))
    metrics.update(pool_probe())
    metrics.update(ckpt_load_probe(by_name["resume"]))
    metrics["harness.hit_ratio"] = metrics["harness.hits"] / (metrics["pairs.valid"] * len(NS))
    print(f"{args.workload} traced: {plain.rounds()} untraced and {traced.rounds()} traced rounds, "
          f"pass_s {plain.pass_s():.4f} s untraced, {traced.pass_s():.4f} s traced")
    oracle.self_check()
    for w in by_name.values():
        w.check()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
