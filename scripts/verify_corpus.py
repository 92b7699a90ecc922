#!/usr/bin/env python3
"""Run the whole check battery over the bundled corpus and print reports.

Exit status is nonzero when any command reports an unexpected overall
status, so this doubles as a smoke test of the shipped files.  The commands
run from the repository root and name their files relative to it, so the
``--machine`` output is the same bytes from any working directory and in any
checkout.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from braidhopf.cli import dispatch


def path(*parts):
    """A corpus file, relative to the repository root."""
    return os.path.join("corpus", *parts)


# (argv, expected exit code)
COMMANDS = [
    (["check", "hopf", path("algebras", "c2.alg")], 0),
    (["check", "hopf", path("algebras", "c3.alg")], 0),
    (["check", "hopf", path("algebras", "s3.alg")], 0),
    (["check", "hopf", path("algebras", "h4.alg")], 0),
    (["check", "hopf", path("algebras", "ext_super.alg")], 0),
    (["check", "hopf", path("algebras", "ext_vec.alg")], 1),
    (["check", "hopf", path("algebras", "ext_yd.alg")], 0),
    (["integral", path("algebras", "c2.alg")], 0),
    (["integral", path("algebras", "s3.alg")], 0),
    (["integral", path("algebras", "h4.alg")], 1),
    (["cosep-section", path("algebras", "s3.alg")], 0),
    (["weakproj", "check", path("algebras", "h4.alg"), path("algebras", "c2_in_h4.alg"),
      path("morphisms", "sigma_c2_h4.map"), path("morphisms", "pi_h4_c2.map")], 0),
    (["weakproj", "bd-suite", path("algebras", "h4.alg"), path("algebras", "c2_in_h4.alg"),
      path("morphisms", "sigma_c2_h4.map"), path("morphisms", "pi_h4_c2.map")], 0),
    (["weakproj", "bd-suite", path("algebras", "s3.alg"), path("algebras", "c2_in_s3.alg"),
      path("morphisms", "sigma_c2_s3.map"), path("morphisms", "pi_s3_c2.map")], 0),
    (["weakproj", "diagram", path("algebras", "h4.alg"), path("algebras", "c2_in_h4.alg"),
      path("morphisms", "pi_h4_c2.map")], 0),
    (["weakproj", "search", path("algebras", "h4.alg"), path("algebras", "c2_in_h4.alg")], 0),
    (["build", "cross", path("algebras", "h4.alg"), path("algebras", "c2_in_h4.alg"),
      path("morphisms", "sigma_c2_h4.map"), path("morphisms", "pi_h4_c2.map")], 0),
    (["build", "cross", path("algebras", "s3.alg"), path("algebras", "c2_in_s3.alg"),
      path("morphisms", "sigma_c2_s3.map"), path("morphisms", "pi_s3_c2.map")], 0),
    (["build", "smash", path("algebras", "s3.alg"), path("algebras", "c2_in_s3.alg"),
      path("morphisms", "pi_s3_c2.map")], 0),
    (["build", "cross", path("algebras", "c4.alg"), path("algebras", "c2_in_c4.alg"),
      path("morphisms", "pi_c4_c2.map")], 0),
    (["build", "smash", path("algebras", "c4.alg"), path("algebras", "c2_in_c4.alg"),
      path("morphisms", "pi_c4_c2.map")], 1),
    (["build", "doublecross", path("algebras", "s3.alg"), path("algebras", "c2_in_s3.alg"),
      path("algebras", "c3.alg")], 0),
    (["build", "doublecross", path("algebras", "s4.alg"), path("algebras", "c3_in_s4.alg"),
      path("algebras", "d4_in_s4.alg")], 0),
    (["matchedpair", "check", path("algebras", "c3.alg"), path("algebras", "c2_in_s3.alg"),
      path("morphisms", "act_r_s3.map"), path("morphisms", "act_b_s3.map")], 0),
    (["matchedpair", "derive", path("algebras", "s3.alg"), path("algebras", "c3.alg"),
      path("algebras", "c2_in_s3.alg")], 0),
    (["filtration", path("algebras", "h4.alg"), path("algebras", "c2_in_h4.alg")], 0),
    (["filtration", path("algebras", "s3.alg"), path("algebras", "c2_in_s3.alg")], 1),
    (["coradical", path("algebras", "h4.alg")], 0),
    (["coradical", path("algebras", "ut2.alg")], 0),
    (["magnum", path("algebras", "h4.alg"), path("algebras", "c2_in_h4.alg")], 0),
]


def main() -> int:
    style = "machine" if "--machine" in sys.argv else "plain"
    os.chdir(ROOT)
    surprises = 0
    for argv, expected in COMMANDS:
        code, report, error = dispatch(argv)
        print()
        if report is not None:
            print(report.render(style))
        if error is not None:
            print(f"error: {error}")
        if code != expected:
            surprises += 1
            print(f"*** expected exit {expected}, got {code}")
    print()
    print(f"{len(COMMANDS)} commands, {surprises} surprises")
    return 1 if surprises else 0


if __name__ == "__main__":
    raise SystemExit(main())
