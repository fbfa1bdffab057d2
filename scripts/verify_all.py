#!/usr/bin/env python3
"""Run the full table-vs-search cross-validation and the changes audit.

For each supported index n, find every n-defective pair (a, b) up to the
bound (search_defective solves Phi_n(a, q) = +-T for products T of primes of
n and confirms each solution by the definition), compare against the
enumerated family table up to equivalence, and print one summary line with
the wall time and the process's peak resident set size so far.  Finishes
with the corrections audit.  Table entries that are defective but that the
search did not find are counted as "missed by search", apart from the other
table failures.  Exit code 2 if any discrepancy or audit failure was
reported, 0 otherwise.

Known state of the table: for n=4 the search finds (6, 2), a valid
4-defective pair that no table row produces and that is equivalent to no
table entry (the excluded (k, q) = (2, 1) tuple would generate exactly it).
Every other index agrees exactly at every bound tried so far.

Examples:
    python scripts/verify_all.py
    python scripts/verify_all.py --bound 5000 --jobs 4
"""

import argparse
import resource
import sys
import time

from lehmerdefect.families import SUPPORTED_N
from lehmerdefect.harness import audit_changes, verify_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bound", type=int, default=500)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    clean = True
    print(f"table-vs-search cross-validation, bound {args.bound}")
    for n in SUPPORTED_N:
        t0 = time.perf_counter()
        report = verify_table(n, args.bound, jobs=args.jobs)
        status = "exact agreement"
        if not report.exact_agreement:
            clean = False
            bits = []
            if report.missing_from_table:
                bits.append(f"missing from table: {list(report.missing_from_table)}")
            missed = sum(f.reason == "missed_by_search" for f in report.table_failures)
            if missed:
                bits.append(f"missed by search: {missed}")
            if len(report.table_failures) > missed:
                bits.append(f"table failures: {len(report.table_failures) - missed}")
            if report.equivalent_duplicates:
                bits.append(f"duplicates: {len(report.equivalent_duplicates)}")
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
