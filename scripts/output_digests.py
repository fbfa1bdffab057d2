#!/usr/bin/env python3
"""Print digests of the CLI's outputs and checkpoint files, as sorted JSON.

Each record maps one run to its exit code and the SHA-256 of its stdout and
stderr.  The runs cover:

  * family, search and verify for every supported n at bounds 300 and 1000,
    in all three formats, search and verify with --jobs 1 and 2;
  * family for every supported n at bound 3000 (the bound the benchmark's
    tables workload times), in all three formats;
  * search and verify for n = 5, 8, 10, 12 at bound 20000, in all three
    formats, so that the orbit walk's bytes are covered past bound 1000;
  * search for n = 3, 4, 6 at bound 20000, in TSV and JSON, with --jobs 1
    and 2, so that the linear search's bytes are covered past bound 1000;
  * search for n = 3, 4, 6 at bound 100000 in TSV, so that the hits' keys
    a W + b + bound are covered at a large W (200001);
  * family for n = 3, 4, 6 at bound 20000, in TSV and JSON, so that the
    rows' walks are covered past bound 3000;
  * verify for n = 3, 4, 6 at bound 10^12, in all three formats, so that
    the counted report is covered where no walk or search reaches;
  * audit in all three formats;
  * 60 seeded (a, b, n) triples through check, in all three formats;
  * three checks, in all three formats, whose residuals reach the
    factoriser's deeper paths, which the seeded triples (|a| <= 40) never
    do: check 20767 74699 10, where Brent's rho splits the residual
    2740232039; check 4495211134022 -737580631582 5, whose residual is a
    prime of about 4.28 10^24, past the proven Miller-Rabin bases, so the
    strong Lucas test runs; and check 7962908358166 19592935848978 8, whose
    residual RHO_BUDGET leaves unfactored;
  * seq, u, --help and usage errors, and the argument forms that a
    subcommand's parser must read as the top-level parser hands them over:
    an abbreviated option (--form), an --option=value, -h after the
    positionals, a bad choice and a "--" before negative positionals;
  * calls at the edge of what the CLI reads straight from its grammar table
    and what it leaves to argparse: --format=json, a repeated --format, an
    option with no value, a bad int option, a negative --bound and a float
    positional;
  * for every n at bound 1000, the checkpoint files of an uninterrupted
    search --checkpoint run, and of a run made in 3-chunk --jobs 2 slices,
    torn after the fourth slice (both files cut) and finished by the CLI;
  * for n = 4 (whose count takes in the (6, 2) gap), 5 and 6 at bound 1000,
    in text and JSON, the output and files of the CLI finishing a checkpoint
    made in four 3-chunk slices: text and JSON print the count first and
    then stream the committed chunks (slices of the hits file) and the new
    ones (bytes) in one pass;
  * for every n at bound 20000, the checkpoint files of a run made in
    40-chunk --jobs 2 slices and finished by the CLI;
  * for n = 3, 4, 6 at bound 20000, the checkpoint files of a run made
    wholly in 5-chunk slices (one digest of the files after every slice but
    the last), whose slice ends fall inside the groups of chunks that an
    uninterrupted run lists at once, then the files and TSV output of the
    CLI reading the finished checkpoint;
  * runs on planted tables, in all three formats, which reach the report
    paths the shipped table never does: family 5 and verify 5 at bounds 10
    and 200 with N5_PSI's exclusions lifted (a shadow, so provenance and an
    equivalent duplicate, and a tuple that breaks a pair rule), which fail
    the certificate, so verify compares by enumeration; and verify 5 at
    bound 200 with (7, -5) dropped from the search (missed_by_search),
    routed through the enumerated comparison (harness._compare_with_search),
    as verify counts the proved table and runs no search.  Every patched
    name is restored afterwards;
  * search 3 --bound 200 --checkpoint over a 2-chunk checkpoint whose last
    hit line, 64 <tab> 132, is edited to 64 <tab> 136: a line that still
    parses, of a pair that is not even a Lehmer pair.  The state line's
    CRC-32 of its hits refuses it (exit 1); a loader that checks only the
    line grammar prints (64, 136).

Run it in two checkouts and diff the outputs; identical output means the
change kept every byte these runs write.  It imports the package from the
src/ next to this script, starts no process and writes only to a temporary
directory.  546 records in about eight seconds on two cores.

Example:
    python scripts/output_digests.py > after.json
"""

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lehmerdefect import cli, families, harness  # noqa: E402
from lehmerdefect.families import SUPPORTED_N, FamilyRowId  # noqa: E402

FORMATS = ("text", "tsv", "json")
LINEAR_N = (3, 4, 6)
QUADRATIC_N = (5, 8, 10, 12)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(*argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), stdout=out, stderr=err)
    return f"{code} {sha(out.getvalue().encode())} {sha(err.getvalue().encode())}"


def files(path: Path) -> str:
    hits = Path(f"{path}.hits")
    return f"{sha(path.read_bytes())} {sha(hits.read_bytes())}"


def cli_records() -> dict[str, str]:
    argvs = [("audit", "--format", fmt) for fmt in FORMATS]
    for n in SUPPORTED_N:
        for bound in ("300", "1000"):
            for fmt in FORMATS:
                argvs.append(("family", str(n), "--bound", bound, "--format", fmt))
                for cmd in ("search", "verify"):
                    for jobs in ("1", "2"):
                        argvs.append((cmd, str(n), "--bound", bound, "--format", fmt, "--jobs", jobs))
        argvs += [("family", str(n), "--bound", "3000", "--format", fmt) for fmt in FORMATS]
    for n in QUADRATIC_N:
        for cmd in ("search", "verify"):
            argvs += [(cmd, str(n), "--bound", "20000", "--format", fmt) for fmt in FORMATS]
    for n in LINEAR_N:
        for fmt in ("tsv", "json"):
            argvs += [("search", str(n), "--bound", "20000", "--format", fmt, "--jobs", j) for j in "12"]
            argvs.append(("family", str(n), "--bound", "20000", "--format", fmt))
        argvs += [("verify", str(n), "--bound", "1000000000000", "--format", fmt) for fmt in FORMATS]
        argvs.append(("search", str(n), "--bound", "100000", "--format", "tsv"))
    rng = random.Random(20241112)
    for _ in range(60):
        a = rng.randint(-40, 40)
        b = a - 4 * rng.randint(-10, 10)  # a == b mod 4, so most are Lehmer pairs
        n = rng.choice(SUPPORTED_N + (7, 9, 15))
        argvs += [("check", str(a), str(b), str(n), "--format", fmt) for fmt in FORMATS]
    # Brent's rho, the strong Lucas test and "unfactored" (see the docstring).
    for a, b, n in (
        (20767, 74699, 10),
        (4495211134022, -737580631582, 5),
        (7962908358166, 19592935848978, 8),
    ):
        argvs += [("check", str(a), str(b), str(n), "--format", fmt) for fmt in FORMATS]
    argvs += [
        ("seq", "phi", "40"),
        ("seq", "zeta3", "25"),
        ("u", "1", "5", "30"),
        ("u", "3", "-5", "12"),
        ("--help",),
        ("search", "--help"),
        ("verify", "--help"),
        ("family", "7", "--bound", "10"),
        ("family", "3", "--bound", "-1"),
        ("search", "5"),
        ("check", "2", "2", "5"),
        ("bogus",),
        ("check", "1", "5", "5", "--form", "json"),
        ("search", "5", "--bound=60"),
        ("check", "1", "5", "5", "-h"),
        ("check", "1", "5", "5", "--format", "xml"),
        ("u", "--", "-1", "-5", "5"),
        ("check", "1", "5", "5", "--format=json"),
        ("check", "1", "5", "5", "--format", "json", "--format", "tsv"),
        ("search", "6", "--bound", "10", "--checkpoint"),
        ("verify", "6", "--bound", "10", "--jobs", "x"),
        ("family", "6", "--bound", "-5"),
        ("u", "-1.5", "5", "5"),
    ]
    return {" ".join(argv): run(*argv) for argv in argvs}


def checkpoint_records(tmp: Path) -> dict[str, str]:
    records = {}
    for n in SUPPORTED_N:
        plain = tmp / f"plain{n}.ckpt"
        ran = run("search", str(n), "--bound", "1000", "--checkpoint", str(plain), "--jobs", "2")
        records[f"checkpoint plain n={n}"] = f"{ran} {files(plain)}"

        sliced = tmp / f"sliced{n}.ckpt"
        steps = []
        for _ in range(4):
            harness.search_with_checkpoint(n, 1000, sliced, jobs=2, stop_after_chunks=3)
            steps.append(files(sliced))
        for path, cut in ((sliced, 3), (Path(f"{sliced}.hits"), 5)):
            os.truncate(path, path.stat().st_size - cut)
        ran = run("search", str(n), "--bound", "1000", "--checkpoint", str(sliced), "--jobs", "1")
        records[f"checkpoint sliced-torn n={n}"] = " ".join([*steps, ran, files(sliced)])
    for n in (4, 5, 6):
        for fmt in ("text", "json"):
            sliced = tmp / f"sliced{n}-{fmt}.ckpt"
            for _ in range(4):
                harness.search_with_checkpoint(n, 1000, sliced, stop_after_chunks=3)
            ran = run("search", str(n), "--bound", "1000", "--checkpoint", str(sliced), "--format", fmt)
            records[f"checkpoint 3-chunk slices n={n} --format {fmt}"] = f"{ran} {files(sliced)}"
    for n in SUPPORTED_N:
        sliced = tmp / f"sliced{n}-20000.ckpt"
        steps = []
        for _ in range(3):
            harness.search_with_checkpoint(n, 20000, sliced, jobs=2, stop_after_chunks=40)
            steps.append(files(sliced))
        ran = run("search", str(n), "--bound", "20000", "--checkpoint", str(sliced), "--jobs", "2")
        records[f"checkpoint sliced n={n} bound=20000"] = " ".join([*steps, ran, files(sliced)])
    for n in LINEAR_N:
        sliced = tmp / f"sliced{n}-20000-5.ckpt"
        steps = []
        while harness.search_with_checkpoint(n, 20000, sliced, stop_after_chunks=5) is None:
            steps.append(files(sliced))
        ran = run("search", str(n), "--bound", "20000", "--checkpoint", str(sliced), "--format", "tsv")
        records[f"checkpoint 5-chunk slices n={n} bound=20000"] = f"{sha(' '.join(steps).encode())} {ran} {files(sliced)}"
    return records


def planted_records(tmp: Path) -> dict[str, str]:
    psi = families._ROWS[FamilyRowId.N5_PSI]
    search, verify = harness.search_defective, harness.verify_table

    def dropping(n, bound, jobs=1):
        result = search(n, bound, jobs)
        return replace(result, pairs=tuple(p for p in result.pairs if p != (7, -5)))

    records = {}
    try:
        families._ROWS[FamilyRowId.N5_PSI] = replace(psi, excluded=())
        for bound in ("10", "200"):
            for cmd in ("family", "verify"):
                for fmt in FORMATS:
                    argv = (cmd, "5", "--bound", bound, "--format", fmt)
                    records["N5_PSI unexcluded: " + " ".join(argv)] = run(*argv)
        families._ROWS[FamilyRowId.N5_PSI] = psi
        harness.search_defective = dropping
        harness.verify_table = harness._compare_with_search
        for fmt in FORMATS:
            argv = ("verify", "5", "--bound", "200", "--format", fmt)
            records["search without (7, -5): " + " ".join(argv)] = run(*argv)
    finally:
        families._ROWS[FamilyRowId.N5_PSI] = psi
        harness.search_defective, harness.verify_table = search, verify
    edited = tmp / "edited3.ckpt"
    harness.search_with_checkpoint(3, 200, edited, stop_after_chunks=2)
    hits = Path(f"{edited}.hits")
    hits.write_bytes(hits.read_bytes().replace(b"\n64\t132\n", b"\n64\t136\n"))
    argv = ("search", "3", "--bound", "200", "--checkpoint", str(edited))
    records["hit 64\t132 edited to 64\t136: search 3 --bound 200 --checkpoint"] = run(*argv)
    return records


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        records = {**cli_records(), **checkpoint_records(Path(tmp)), **planted_records(Path(tmp))}
    print(json.dumps(records, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
