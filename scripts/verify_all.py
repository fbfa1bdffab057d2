#!/usr/bin/env python3
"""Run the full table-vs-search cross-validation and the changes audit.

First prints the certificate of each supported index n (families.
certificate): for every n, at every bound, the n-defective pairs are the
family table's pairs plus the gaps the row exclusions name, with no invalid
tuple or duplicate in the table, and each n's gaps.  Next to it, for n = 5,
8, 10, 12, the matrix M of the unit and the orbit representatives the
search walks from (primdiv._orbits), whose half-orbits the certificate
proves to be the sequence rows.  Then, for each n, prints one summary line
of the table-vs-search comparison at the bound (harness._compare_with_search,
the enumerated comparison that verify falls back to when a certificate
fails), with the wall time and the process's peak resident set size so
far: the search solves for the defective pairs, confirms each by the
definition, and is compared with the enumerated family table up to
equivalence.  Finishes with the corrections audit.  Table entries that are
defective but that the search did not find are counted as "missed by
search", apart from the other table failures.  A pair missing from the
table is printed either way, and marked as a certificate gap when it is one
of certificate(n).gaps: a pair the row exclusions name, which the table
leaves out on purpose.  Exit code 2 if a certificate fails, the audit
fails, or a discrepancy other than a certificate gap was reported, 0
otherwise.  It imports the package from the src/ next to this script.

Known state of the table: for n=4 the search finds (6, 2), a valid
4-defective pair that no table row produces and that is equivalent to no
table entry (the excluded (k, q) = (2, 1) tuple would generate exactly it).
It is n = 4's certificate gap, so it alone does not make the exit code 2.
Every other index agrees exactly at every bound tried so far.

Examples:
    python scripts/verify_all.py
    python scripts/verify_all.py --bound 5000
"""

import argparse
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lehmerdefect.families import SUPPORTED_N, certificate  # noqa: E402
from lehmerdefect.harness import _compare_with_search, audit_changes  # noqa: E402
from lehmerdefect.primdiv import _orbits  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bound", type=int, default=500)
    args = parser.parse_args(argv)

    certs = [certificate(n) for n in SUPPORTED_N]
    clean = all(c.proved for c in certs)
    gaps = {c.n: c.gaps for c in certs}
    print("certificate, every bound:")
    for c in certs:
        print(f"  n={c.n:>2}: {'proved' if c.proved else 'FAILED'} gaps {list(c.gaps)}")
        for failure in c.failures:
            print(f"    {failure}")
    print("quadratic orbits, every bound:")
    for n in (5, 8, 10, 12):
        (m11, m12, m21, m22), reps = _orbits(n)
        print(f"  n={n:>2}: M=[[{m11},{m12}],[{m21},{m22}]] representatives {reps}")
    print(f"table-vs-search cross-validation, bound {args.bound}")
    for n in SUPPORTED_N:
        t0 = time.perf_counter()
        report = _compare_with_search(n, args.bound)
        status = "exact agreement"
        if not report.exact_agreement:
            bits = []
            unexpected = [p for p in report.missing_from_table if p not in gaps.get(n, ())]
            if unexpected or report.table_failures or report.equivalent_duplicates:
                clean = False
            missed = sum(f.reason == "missed_by_search" for f in report.table_failures)
            if missed:
                bits.append(f"missed by search: {missed}")
            if len(report.table_failures) > missed:
                bits.append(f"table failures: {len(report.table_failures) - missed}")
            if report.equivalent_duplicates:
                bits.append(f"duplicates: {len(report.equivalent_duplicates)}")
            if report.missing_from_table:
                known = "" if unexpected else " (certificate gap)"
                bits.append(f"missing from table: {list(report.missing_from_table)}{known}")
            status = "; ".join(bits)
        # ru_maxrss is in KiB on Linux: the process's peak so far, not this n's.
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"  n={n:>2}: matched={report.matched_count:>6}  "
            f"[{time.perf_counter() - t0:6.2f}s, peak {rss_mb:5.0f} MB]  {status}"
        )

    print("corrections audit")
    for item in audit_changes():
        mark = "PASS" if item.passed else "FAIL"
        if not item.passed:
            clean = False
        print(f"  {item.change_id:>8} {mark}")
    return 0 if clean else 2


if __name__ == "__main__":
    sys.exit(main())
