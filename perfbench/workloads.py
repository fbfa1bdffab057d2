"""The benchmark's workloads: their operations, inputs and output checks.

Each workload is a list of operations, run in rounds.  An operation drives
the program through ``lehmerdefect.cli.run`` or a public library function and
returns its output.  The first (warm-up) round fixes each operation's
expected output; every later output must equal it, and after the timed
rounds ``check`` tests the expected outputs against ``oracle``.

All calls go through module attributes (``cli.run``, ``harness.search_...``)
so that the traced run can wrap them from outside.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from lehmerdefect import cli, families, harness

import oracle
from oracle import WrongOutput

NS = (3, 4, 5, 6, 8, 10, 12)


def _cli(*argv: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    rc = cli.run(list(argv), stdout=out, stderr=err)
    return rc, out.getvalue()


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    prepare: Callable[[], None] | None = None  # untimed, before each run
    # Decides an output the program may get wrong today: True for a correct
    # answer, False for a known failure.  None means the output must equal
    # the warm-up output, and anything else is a WrongOutput.
    judge: Callable[[object], bool] | None = None
    expected: object = field(default=None, repr=False)


class Workload:
    name = ""
    ordered = False  # operations depend on the previous ones; keep their order

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)  # inputs and check samples
        self.order_rng = random.Random(~seed)  # round order, apart so it cannot shift the samples
        self.workdir = workdir
        self.ops: list[Op] = []

    def round(self) -> list[Op]:
        if self.ordered:
            return list(self.ops)
        return self.order_rng.sample(self.ops, len(self.ops))

    def accept(self, op: Op, out: object) -> bool:
        """True when the output is right, False for a known failure."""
        if op.judge is not None:
            return op.judge(out)
        if out != op.expected:
            raise WrongOutput(f"{self.name}/{op.name}: output differs from the warm-up round")
        return True

    def check(self) -> None:
        """Test the warm-up outputs against the oracle; raise WrongOutput."""
        raise NotImplementedError


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


def _oracle_defective(a: int, b: int, n: int, what: str) -> None:
    _require(oracle.is_valid(a, b), f"{what}: ({a}, {b}) is not a valid pair")
    primes = oracle.primitive_primes(a, b, n)
    _require(not primes, f"{what}: ({a}, {b}) has primitive primes {primes} at n={n}")


class Verify(Workload):
    """verify n --bound B --jobs 1 --format json for every n, interleaved."""

    name = "verify"
    bound = 500
    hit_sample = 20  # reported pairs per n checked to be defective
    miss_sample = 40  # unreported in-box pairs per n checked to have a primitive prime

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ops = [
            Op(f"verify{n}", lambda n=n: _cli(
                "verify", str(n), "--bound", str(self.bound), "--jobs", "1", "--format", "json"))
            for n in NS
        ]

    def check(self):
        B = self.bound
        for n, op in zip(NS, self.ops):
            rc, out = op.expected
            doc = json.loads(out)
            what = f"verify {n} --bound {B}"
            missing = {(int(a), int(b)) for a, b in doc["missing_from_table"]}
            _require(doc["n"] == n and doc["bound"] == B, f"{what}: wrong n or bound")
            _require(not doc["table_failures"] and not doc["equivalent_duplicates"],
                     f"{what}: table failures or duplicates reported")
            allowed = {(6, 2)} if n == 4 else set()
            _require(missing <= allowed, f"{what}: unexpected missing_from_table {sorted(missing)}")
            _require(rc == (2 if missing else 0), f"{what}: exit code {rc}")
            for a, b in missing:
                _oracle_defective(a, b, n, what)
            # Every table pair lies in the scan's box, so a complete scan matches them all.
            table = families.enumerate_families(n, B)
            _require(doc["matched_count"] == len(table),
                     f"{what}: matched {doc['matched_count']} of the {len(table)} table pairs")
            # The scan verify ran; its hits are the pairs the run reported.
            hits = harness.search_defective(n, B).pairs
            _require(len(hits) == doc["matched_count"] + len(missing),
                     f"{what}: matched_count {doc['matched_count']} + missing != {len(hits)} hits")
            for a, b in self.rng.sample(hits, min(self.hit_sample, len(hits))):
                _oracle_defective(a, b, n, what)
            reported = set(hits)
            checked = 0
            while checked < self.miss_sample:
                a = self.rng.randint(1, B)
                b = a - 4 * self.rng.randint(-((B - a) // 4), (B + a) // 4)
                if (a, b) in reported or not oracle.is_valid(a, b):
                    continue
                _require(bool(oracle.primitive_primes(a, b, n)),
                         f"{what}: unreported ({a}, {b}) is {n}-defective")
                checked += 1


class Resume(Workload):
    """search 6 from an empty checkpoint in slices, then a torn-checkpoint resume."""

    name = "resume"
    ordered = True
    n = 6
    bound = 1000  # 32 chunks of 32 values of a
    slice_chunks = 4
    slices = 7  # 28 chunks in slices; the search CLI call does the last 4
    torn_after = 6  # slices in the checkpoint the torn operation starts from
    hit_sample = 30

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.path = workdir / "resume.ckpt"
        self.torn_path = workdir / "torn.ckpt"
        self.snapshot: tuple[bytes, bytes] | None = None
        self.reference: tuple[tuple[int, int], ...] | None = None
        self.ops = [
            Op(f"slice{i + 1:02d}", self._slice,
               prepare=self._reset if i == 0 else self._snap if i == self.torn_after else None)
            for i in range(self.slices)
        ]
        self.ops.append(Op("complete", lambda: _cli(
            "search", str(self.n), "--bound", str(self.bound), "--jobs", "2",
            "--checkpoint", str(self.path), "--format", "tsv")))
        self.ops.append(Op("torn_resume", self._torn, prepare=self._tear, judge=self._judge_torn))

    @staticmethod
    def _files(path: Path) -> tuple[Path, Path]:
        return path, Path(str(path) + ".hits")

    def _reset(self):
        for f in self._files(self.path):
            f.unlink(missing_ok=True)

    def _snap(self):
        # The checkpoint as it stands after torn_after slices, kept byte for byte.
        if self.snapshot is None:
            state, hits = self._files(self.path)
            self.snapshot = (state.read_bytes(), hits.read_bytes())

    def _slice(self):
        return harness.search_with_checkpoint(
            self.n, self.bound, self.path, jobs=2, stop_after_chunks=self.slice_chunks)

    def _tear(self):
        # Cut the state file's newline and the last digit of the last hit count.
        state, hits = self._files(self.torn_path)
        state.write_bytes(self.snapshot[0][:-2])
        hits.write_bytes(self.snapshot[1])

    def _torn(self):
        try:
            return harness.search_with_checkpoint(self.n, self.bound, self.torn_path, jobs=2).pairs
        except harness.CheckpointMismatchError:
            return "refused"

    def _reference(self) -> tuple[tuple[int, int], ...]:
        if self.reference is None:
            rc, tsv = self.ops[self.slices].expected
            self.reference = tuple(
                tuple(int(x) for x in line.split("\t")) for line in tsv.splitlines()[1:])
        return self.reference

    def _judge_torn(self, out) -> bool:
        return out == "refused" or out == self._reference()

    def check(self):
        what = f"search {self.n} --bound {self.bound}"
        for op in self.ops[: self.slices]:
            _require(op.expected is None, f"{what}: {op.name} finished the search early")
        rc, sliced = self.ops[self.slices].expected
        rc1, plain = _cli("search", str(self.n), "--bound", str(self.bound),
                          "--jobs", "1", "--format", "tsv")
        _require(rc == 0 and rc1 == 0, f"{what}: exit codes {rc}, {rc1}")
        _require(sliced == plain, f"{what}: resumed TSV differs from an uninterrupted --jobs 1 run")
        pairs = self._reference()
        for a, b in self.rng.sample(pairs, min(self.hit_sample, len(pairs))):
            _oracle_defective(a, b, self.n, what)


class Tables(Workload):
    """family n for every n, audit, and a seeded batch of check a b n."""

    name = "tables"
    bound = 3000
    checks = 100
    check_box = 1000  # |a|, |b| of the check pairs
    entry_sample = 20  # family entries per n checked to be defective

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ops = [
            Op(f"family{n}", lambda n=n: _cli(
                "family", str(n), "--bound", str(self.bound), "--format", "tsv"))
            for n in NS
        ]
        self.ops.append(Op("audit", lambda: _cli("audit", "--format", "json")))
        self.check_args: list[tuple[int, int, int]] = []
        A = self.check_box
        while len(self.check_args) < self.checks:
            a, b = self.rng.randint(-A, A), self.rng.randint(-A, A)
            if oracle.is_valid(a, b):
                self.check_args.append((a, b, self.rng.choice(NS)))
        self.ops += [
            Op(f"check{i:03d}", lambda a=a, b=b, n=n: _cli(
                "check", str(a), str(b), str(n), "--format", "json"))
            for i, (a, b, n) in enumerate(self.check_args)
        ]

    def check(self):
        for n, op in zip(NS, self.ops):
            rc, tsv = op.expected
            what = f"family {n} --bound {self.bound}"
            lines = tsv.splitlines()
            _require(rc == 0 and lines[0].startswith("# n\trow"), f"{what}: bad header or exit code")
            canon = []
            for line in lines[1:]:
                cells = line.split("\t")
                a, b = int(cells[8]), int(cells[9])
                _require(cells[0] == str(n), f"{what}: row for n={cells[0]}")
                _require(oracle.is_valid(a, b) and a > 0 and max(a, abs(b)) <= self.bound,
                         f"{what}: canonical ({a}, {b}) invalid or out of bound")
                canon.append((a, b))
            _require(len(set(canon)) == len(canon), f"{what}: repeated canonical pair")
            for a, b in self.rng.sample(canon, min(self.entry_sample, len(canon))):
                _oracle_defective(a, b, n, what)
        rc, out = self.ops[len(NS)].expected
        _require(rc == 0 and json.loads(out)["all_passed"] is True, "audit: not all passed")
        for (a, b, n), op in zip(self.check_args, self.ops[len(NS) + 1:]):
            rc, out = op.expected
            doc = json.loads(out)
            primes = oracle.primitive_primes(a, b, n)
            want = (str(oracle.u_prefix(a, b, n)[n]), not primes, [str(p) for p in primes])
            _require(rc == 0 and (doc["u_n"], doc["defective"], doc["primitive_primes"]) == want,
                     f"check {a} {b} {n}: got {doc}, oracle says {want}")


WORKLOADS = {w.name: w for w in (Verify, Resume, Tables)}
