"""The four benchmark workloads: their items, seeded inputs and output checks.

An item is one unit of user-visible work: one CLI command through
``cli.dispatch`` (corpus, s4), or one algebra's full bialgebra + antipode
report (families, mutants).  Every item returns ``(exit_code, text, checks)``
where ``text`` is the byte-stable machine report (or the error line) and
``checks`` the report's CheckResults.

Program functions are always reached as module attributes
(``mods.hopf.verify_bialgebra``), never imported by name, so the tracer's
rebinding of those attributes is seen here too.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from oracle import entry_pair

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

WORKLOADS = ("corpus", "s4", "families", "mutants")
DEFAULT_SEED = 1
HELDOUT_SEED = 2

MODULES = ("linalg", "report", "category", "hopf", "textio", "weakproj",
           "products", "filtration", "builders", "cli")

_A = "corpus/algebras/"
_M = "corpus/morphisms/"

# The verify_corpus.py battery without its one S4 command, with the exit
# code each command is expected to return.
CORPUS = [
    (["check", "hopf", _A + "c2.alg"], 0),
    (["check", "hopf", _A + "c3.alg"], 0),
    (["check", "hopf", _A + "s3.alg"], 0),
    (["check", "hopf", _A + "h4.alg"], 0),
    (["check", "hopf", _A + "ext_super.alg"], 0),
    (["check", "hopf", _A + "ext_vec.alg"], 1),
    (["integral", _A + "c2.alg"], 0),
    (["integral", _A + "s3.alg"], 0),
    (["integral", _A + "h4.alg"], 1),
    (["cosep-section", _A + "s3.alg"], 0),
    (["weakproj", "check", _A + "h4.alg", _A + "c2_in_h4.alg",
      _M + "sigma_c2_h4.map", _M + "pi_h4_c2.map"], 0),
    (["weakproj", "bd-suite", _A + "h4.alg", _A + "c2_in_h4.alg",
      _M + "sigma_c2_h4.map", _M + "pi_h4_c2.map"], 0),
    (["weakproj", "bd-suite", _A + "s3.alg", _A + "c2_in_s3.alg",
      _M + "sigma_c2_s3.map", _M + "pi_s3_c2.map"], 0),
    (["weakproj", "diagram", _A + "h4.alg", _A + "c2_in_h4.alg", _M + "pi_h4_c2.map"], 0),
    (["weakproj", "search", _A + "h4.alg", _A + "c2_in_h4.alg"], 0),
    (["build", "cross", _A + "h4.alg", _A + "c2_in_h4.alg",
      _M + "sigma_c2_h4.map", _M + "pi_h4_c2.map"], 0),
    (["build", "cross", _A + "s3.alg", _A + "c2_in_s3.alg",
      _M + "sigma_c2_s3.map", _M + "pi_s3_c2.map"], 0),
    (["build", "smash", _A + "s3.alg", _A + "c2_in_s3.alg", _M + "pi_s3_c2.map"], 0),
    (["build", "cross", _A + "c4.alg", _A + "c2_in_c4.alg", _M + "pi_c4_c2.map"], 0),
    (["build", "smash", _A + "c4.alg", _A + "c2_in_c4.alg", _M + "pi_c4_c2.map"], 1),
    (["build", "doublecross", _A + "s3.alg", _A + "c2_in_s3.alg", _A + "c3.alg"], 0),
    (["matchedpair", "check", _A + "c3.alg", _A + "c2_in_s3.alg",
      _M + "act_r_s3.map", _M + "act_b_s3.map"], 0),
    (["matchedpair", "derive", _A + "s3.alg", _A + "c3.alg", _A + "c2_in_s3.alg"], 0),
    (["filtration", _A + "h4.alg", _A + "c2_in_h4.alg"], 0),
    (["filtration", _A + "s3.alg", _A + "c2_in_s3.alg"], 1),
    (["coradical", _A + "h4.alg"], 0),
    (["coradical", _A + "ut2.alg"], 0),
    (["magnum", _A + "h4.alg", _A + "c2_in_h4.alg"], 0),
]

# The dimension-24 commands: the only place elimination dominates.
S4 = [
    (["weakproj", "search", _A + "s4.alg", _A + "d4_in_s4.alg"], 0),
    (["weakproj", "search", _A + "s4.alg", _A + "c3_in_s4.alg"], 0),
    (["build", "doublecross", _A + "s4.alg", _A + "c3_in_s4.alg", _A + "d4_in_s4.alg"], 0),
    (["cosep-section", _A + "s4.alg"], 0),
    (["check", "hopf", _A + "s4.alg"], 0),
    (["magnum", _A + "s4.alg", _A + "d4_in_s4.alg"], 1),
]
S4_SMOKE = (1, 4, 5)

FAMILIES = ("kc32", "ks4", "h4x3")
FAMILIES_SMOKE = ("ks4",)
MUTANT_MEMBERS = ("kc24", "ks4", "h4xks3")
MUTANT_MAPS = ("m", "delta", "s")
MUTANTS_SMOKE_MEMBER = "ks4"
# Non-integer perturbations only: no corpus file has a genuine fraction.
MUTANT_NUMERATORS = (1, -1, 2, -2)
MUTANT_DENOMINATORS = (3, 5, 7)
MUTANT_POOL_SEED = 20061
MUTANT_POOL_PER_CLASS = 6


def load_modules() -> SimpleNamespace:
    """Import braidhopf from scratch, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "braidhopf" or n.startswith("braidhopf.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"braidhopf.{m}") for m in MODULES})


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(code: int, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


# -- generated algebras -------------------------------------------------------

def tensor_hopf(mods, r, b):
    """R (x) B as the double cross product with trivial actions, S = S_R (x) S_B."""
    linalg = mods.linalg
    idr, idb = linalg.Matrix.identity(r.dim), linalg.Matrix.identity(b.dim)
    pair = mods.products.MatchedPair(r, b, linalg.kron(b.eps.mat, idr),
                                     linalg.kron(idb, r.eps.mat))
    dc = mods.products.build_double_cross(pair)
    return mods.hopf.make_bialgebra(dc.backend, dc.carrier, dc.m.mat, dc.u.mat,
                                    dc.delta.mat, dc.eps.mat,
                                    linalg.kron(r.s.mat, b.s.mat))


def base_member(mods, name: str):
    bld = mods.builders
    if name == "kc32":
        return bld.group_algebra(bld.cyclic_group(32))
    if name == "kc24":
        return bld.group_algebra(bld.cyclic_group(24))
    if name == "ks4":
        return bld.group_algebra(bld.symmetric_group(4))
    if name == "h4x3":
        h4 = bld.sweedler_h4()
        return tensor_hopf(mods, tensor_hopf(mods, h4, h4), h4)
    if name == "h4xks3":
        return tensor_hopf(mods, bld.sweedler_h4(), bld.group_algebra(bld.s3_group()))
    raise KeyError(name)


def _relabel_index(t: int, factors: int, n: int, perm: list[int]) -> int:
    out, mult = 0, 1
    for _ in range(factors):
        t, d = divmod(t, n)
        out += perm[d] * mult
        mult *= n
    return out


def _relabel(mods, mat, n: int, perm: list[int], row_factors: int, col_factors: int):
    entries = []
    for j in range(mat.cols):
        jj = _relabel_index(j, col_factors, n, perm)
        for i, v in mat.column(j).items():
            entries.append((_relabel_index(i, row_factors, n, perm), jj, v))
    return mods.linalg.Matrix.from_entries(n ** row_factors, n ** col_factors, entries)


def relabel(mods, alg, perm: list[int]):
    """The same Hopf algebra with basis vector j renamed perm[j]."""
    n = alg.dim
    return mods.hopf.make_bialgebra(
        alg.backend, alg.carrier,
        _relabel(mods, alg.m.mat, n, perm, 1, 2),
        _relabel(mods, alg.u.mat, n, perm, 1, 0),
        _relabel(mods, alg.delta.mat, n, perm, 2, 1),
        _relabel(mods, alg.eps.mat, n, perm, 0, 1),
        _relabel(mods, alg.s.mat, n, perm, 1, 1))


def perturb(mods, alg, which: str, row: int, col: int, delta: Fraction):
    """alg with delta added to entry (row, col) of one structure map."""
    maps = {"m": alg.m.mat, "delta": alg.delta.mat, "s": alg.s.mat}
    mat = maps[which]
    entries = [(i, j, v) for j in range(mat.cols) for i, v in mat.column(j).items()]
    maps[which] = mods.linalg.Matrix.from_entries(mat.rows, mat.cols,
                                                  entries + [(row, col, delta)])
    return mods.hopf.make_bialgebra(alg.backend, alg.carrier, maps["m"], alg.u.mat,
                                    maps["delta"], alg.eps.mat, maps["s"])


def mutant_pool(mods, members: dict) -> dict:
    """Candidate single-entry perturbations, drawn from a fixed pool seed.

    Golden outputs are captured for every candidate, so any workload seed
    picks among inputs whose expected reports are known.
    """
    rng = random.Random(MUTANT_POOL_SEED)
    pool = {}
    for member in MUTANT_MEMBERS:
        alg = members[member]
        for which in MUTANT_MAPS:
            mat = {"m": alg.m.mat, "delta": alg.delta.mat, "s": alg.s.mat}[which]
            for k in range(MUTANT_POOL_PER_CLASS):
                pool[f"{member}/{which}/{k}"] = {
                    "member": member, "map": which,
                    "row": rng.randrange(mat.rows), "col": rng.randrange(mat.cols),
                    "num": rng.choice(MUTANT_NUMERATORS),
                    "den": rng.choice(MUTANT_DENOMINATORS)}
    return pool


# -- items --------------------------------------------------------------------

def cli_item(mods, argv):
    full = ["--report", "machine", *argv]

    def run():
        code, report, error = mods.cli.dispatch(full)
        if report is None:
            return code, f"error: {error}", ()
        return code, report.render("machine"), report.checks
    return run


def report_item(mods, command: str, alg):
    def run():
        checks = mods.hopf.verify_bialgebra(alg) + mods.hopf.verify_antipode(alg)
        report = mods.report.make_report(command, checks)
        return (0 if report.overall == "pass" else 1), report.render("machine"), report.checks
    return run


class Workload:
    """Items of one workload plus what each item must produce."""

    def __init__(self, items: list, expected: dict, mutants: dict):
        self.items = items          # [(item_id, run)]
        self.expected = expected    # item_id -> golden record
        self.mutants = mutants      # item_id -> perturbed algebra, for mutant items


def prepare(mods, name: str, seed: int, golden: dict, smoke: bool = False) -> Workload:
    """Build the inputs of one workload from its seed."""
    rng = random.Random(f"{name}:{seed}")
    expected = golden[name]
    mutants = {}
    if name in ("corpus", "s4"):
        commands = CORPUS if name == "corpus" else S4
        if smoke and name == "s4":
            commands = [S4[k] for k in S4_SMOKE]
        items = [(" ".join(argv), cli_item(mods, argv)) for argv, _ in commands]
    elif name == "families":
        items = []
        for member in (FAMILIES_SMOKE if smoke else FAMILIES):
            alg = base_member(mods, member)
            alg = relabel(mods, alg, rng.sample(range(alg.dim), alg.dim))
            items.append((member, report_item(mods, f"families {member}", alg)))
    elif name == "mutants":
        members = {m: base_member(mods, m) for m in MUTANT_MEMBERS}
        items = []
        for member in ((MUTANTS_SMOKE_MEMBER,) if smoke else MUTANT_MEMBERS):
            for which in MUTANT_MAPS:
                k = rng.randrange(MUTANT_POOL_PER_CLASS)
                item_id = f"{member}/{which}/{k}"
                spec = expected[item_id]["spec"]
                alg = perturb(mods, members[member], which, spec["row"], spec["col"],
                              Fraction(spec["num"], spec["den"]))
                items.append((item_id, report_item(mods, f"mutants {item_id}", alg)))
                mutants[item_id] = alg
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(items, expected, mutants)


# -- output checks ------------------------------------------------------------

_WITNESS = re.compile(r"^(?:(\w+):)?\((\d+),(\d+)\):lhs=([^:]+):rhs=([^:]+)$")


def failing(checks) -> list[list[str]]:
    return [[c.name, c.witness] for c in checks if c.failed()]


def check_item(workload: Workload, item_id: str, code: int, text: str, checks) -> list[str]:
    """Every way this item's output differs from what it must be ([] if none)."""
    want = workload.expected[item_id]
    problems = []
    if code != want["exit"]:
        problems.append(f"exit {code}, expected {want['exit']}")
    if digest(code, text) != want["digest"]:
        problems.append("machine report digest differs from golden")
    if item_id in workload.mutants:
        got = failing(checks)
        if not got:
            problems.append("mutant passed every check")
        if got != want["failing"]:
            problems.append(f"failing checks {got} differ from golden {want['failing']}")
        alg = workload.mutants[item_id]
        for name, witness in got:
            match = _WITNESS.match(witness or "")
            if match is None:
                problems.append(f"{name}: witness {witness!r} is not an entry witness")
                continue
            part, i, j, lhs, rhs = match.groups()
            try:
                a, b = entry_pair(alg, name if part is None else f"{name}.{part}", int(i), int(j))
            except KeyError as exc:
                problems.append(str(exc))
                continue
            if a == b or str(a) != lhs or str(b) != rhs:
                problems.append(f"{name}: witness {witness} re-evaluates to lhs={a} rhs={b}")
    return problems
