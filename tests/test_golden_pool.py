"""Every mutant-pool candidate and every families member matches
perfbench/golden.json: exit code, report digest, failing checks and witnesses.

A benchmark run samples 9 of the 54 mutant candidates per seed; this runs all
of them, and the families items on the default and the held-out seed.  The
benchmark's own modules are imported, never changed, and the package is not
re-imported, so the other tests' references stay valid.
"""

import importlib
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return SimpleNamespace(**{m: importlib.import_module(f"braidhopf.{m}") for m in wl.MODULES})


@pytest.fixture(scope="module")
def golden():
    return wl.load_golden()


def test_every_mutant_candidate_matches_golden(mods, golden):
    members = {m: wl.base_member(mods, m) for m in wl.MUTANT_MEMBERS}
    pool = wl.mutant_pool(mods, members)
    assert len(pool) == 54 and set(pool) == set(golden["mutants"])
    problems = {}
    for item_id, spec in pool.items():
        assert spec == golden["mutants"][item_id]["spec"]
        alg = wl.perturb(mods, members[spec["member"]], spec["map"], spec["row"],
                         spec["col"], Fraction(spec["num"], spec["den"]))
        work = wl.Workload([], golden["mutants"], {item_id: alg})
        code, text, checks = wl.report_item(mods, f"mutants {item_id}", alg)()
        got = wl.check_item(work, item_id, code, text, checks)
        if got:
            problems[item_id] = got
    assert problems == {}


@pytest.mark.parametrize("seed", [wl.DEFAULT_SEED, wl.HELDOUT_SEED])
def test_families_match_golden(mods, golden, seed):
    work = wl.prepare(mods, "families", seed, golden)
    assert [item_id for item_id, _ in work.items] == list(wl.FAMILIES)
    for item_id, run in work.items:
        assert wl.check_item(work, item_id, *run()) == [], item_id
