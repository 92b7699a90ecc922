#!/usr/bin/env python3
"""Capture golden.json: what every benchmark item must output.

    python3 perfbench/golden.py

Runs every corpus and s4 command, every family member under two seeds (the
reports must not depend on the seed), and every candidate in the mutant
pool, and records each item's exit code and machine-report digest, plus
each mutant's perturbation and its failing checks with witnesses.  Rerun it
only when a change alters the machine reports on purpose, and say so.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.chdir(ROOT)

import workloads as wl  # noqa: E402
from run import git_commit  # noqa: E402


def record(code: int, text: str) -> dict:
    return {"exit": code, "digest": wl.digest(code, text)}


def main() -> int:
    mods = wl.load_modules()
    golden = {"captured_at": git_commit(), "corpus": {}, "s4": {}, "families": {},
              "mutants": {}}
    for name, commands in (("corpus", wl.CORPUS), ("s4", wl.S4)):
        for argv, expected_exit in commands:
            code, text, _ = wl.cli_item(mods, argv)()
            if code != expected_exit:
                raise SystemExit(f"{argv}: exit {code}, expected {expected_exit}")
            golden[name][" ".join(argv)] = record(code, text)
    for seed in (wl.DEFAULT_SEED, wl.HELDOUT_SEED):
        work = wl.prepare(mods, "families", seed, {"families": {}})
        for item_id, run in work.items:
            code, text, _ = run()
            rec = record(code, text)
            if code != 0 or golden["families"].setdefault(item_id, rec) != rec:
                raise SystemExit(f"families {item_id}: report depends on the seed or fails")
    members = {m: wl.base_member(mods, m) for m in wl.MUTANT_MEMBERS}
    for item_id, spec in wl.mutant_pool(mods, members).items():
        alg = wl.perturb(mods, members[spec["member"]], spec["map"], spec["row"],
                         spec["col"], Fraction(spec["num"], spec["den"]))
        code, text, checks = wl.report_item(mods, f"mutants {item_id}", alg)()
        fails = wl.failing(checks)
        if code != 1 or not fails:
            raise SystemExit(f"mutant {item_id} does not fail")
        golden["mutants"][item_id] = {**record(code, text), "spec": spec,
                                      "failing": fails}
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.GOLDEN_PATH}: " + ", ".join(
        f"{k} {len(v)}" for k, v in golden.items() if isinstance(v, dict)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
