#!/usr/bin/env python3
"""Print digests of the CLI's outputs and checkpoint files, as sorted JSON.

Each record maps one run to its exit code and the SHA-256 of its stdout and
stderr.  The runs cover:

  * family, search and verify for every supported n at bounds 300 and 1000,
    in all three formats, search and verify with --jobs 1 and 2;
  * audit in all three formats;
  * 60 seeded (a, b, n) triples through check, in all three formats;
  * seq, u, --help and usage errors;
  * for every n at bound 1000, the checkpoint files of an uninterrupted
    search --checkpoint run, and of a run made in 3-chunk --jobs 2 slices,
    torn after the fourth slice (both files cut) and finished by the CLI.

Run it in two checkouts and diff the outputs; identical output means the
change kept every byte these runs write.  It imports the package from the
src/ next to this script, starts at most two workers and writes only to a
temporary directory.  About 400 records in under ten seconds on two cores.

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
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lehmerdefect import cli, harness  # noqa: E402
from lehmerdefect.families import SUPPORTED_N  # noqa: E402

FORMATS = ("text", "tsv", "json")


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
    rng = random.Random(20241112)
    for _ in range(60):
        a = rng.randint(-40, 40)
        b = a - 4 * rng.randint(-10, 10)  # a == b mod 4, so most are Lehmer pairs
        n = rng.choice(SUPPORTED_N + (7, 9, 15))
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
    return records


def main() -> int:
    os.environ.pop("LEHMERDEFECT_JOBS", None)
    with tempfile.TemporaryDirectory() as tmp:
        records = {**cli_records(), **checkpoint_records(Path(tmp))}
    print(json.dumps(records, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
