#!/usr/bin/env python3
"""Time and peak memory of the full axiom suite of one group algebra.

    python3 scripts/family_memory.py kS5

Builds kS3, kS4, kS5 or kC<n>, runs ``verify_bialgebra`` plus
``verify_antipode`` once, and prints the number of checks with the overall
verdict, then the wall time and the process's peak resident set size
(``ru_maxrss``).  Exits 1 when a check fails and 2 on an unknown algebra.
"""

import os
import re
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from braidhopf.builders import cyclic_group, group_algebra, symmetric_group
from braidhopf.hopf import verify_antipode, verify_bialgebra
from braidhopf.report import make_report

NAME = re.compile(r"kS([345])|kC([1-9][0-9]*)")


def main(argv: list[str]) -> int:
    match = NAME.fullmatch(argv[0]) if len(argv) == 1 else None
    if match is None:
        print("usage: family_memory.py <kS3|kS4|kS5|kC<n>>", file=sys.stderr)
        return 2
    s, c = match.groups()
    h = group_algebra(symmetric_group(int(s)) if s else cyclic_group(int(c)))
    start = time.perf_counter()
    report = make_report(argv[0], verify_bialgebra(h) + verify_antipode(h))
    wall = time.perf_counter() - start
    # ru_maxrss is in kilobytes on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{argv[0]} (dim {h.dim}): {len(report.checks)} checks, overall {report.overall}")
    print(f"wall {wall:.2f} s, peak rss {peak_mb:.1f} MB")
    return 0 if report.overall == "pass" else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
