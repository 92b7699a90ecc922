import argparse
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import braidhopf
from braidhopf import cli, products
from braidhopf.cli import dispatch, main
from braidhopf.report import CheckResult, ConstructionFailed
from braidhopf.textio import parse_algebra_file
from contexts import yd_exterior_line

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def corpus(*parts):
    return os.path.join(CORPUS, *parts)


def run(argv):
    code, report, error = dispatch(argv)
    return code, report, error


def machine(report):
    return report.render("machine")


def test_check_hopf_exit_zero(capsys):
    code = main(["check", "hopf", corpus("algebras", "c2.alg")])
    assert code == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_integral_h4_fails_with_exit_one():
    code, report, _ = run(["integral", corpus("algebras", "h4.alg")])
    assert code == 1
    line = [c for c in report.checks if c.name == "total_integral"][0]
    assert line.status == "fail"


def test_integral_machine_line(capsys):
    # every spelling argparse accepts selects the machine format
    for flag in (["--report", "machine"], ["--report=machine"], ["--rep", "machine"]):
        code = main(flag + ["integral", corpus("algebras", "h4.alg")])
        out = capsys.readouterr().out
        assert "check=total_integral status=fail witness=no_solution" in out, flag
        assert code == 1


def test_bd_suite_has_twelve_pass_lines():
    code, report, _ = run(["weakproj", "bd-suite",
                           corpus("algebras", "h4.alg"), corpus("algebras", "c2_in_h4.alg"),
                           corpus("morphisms", "sigma_c2_h4.map"),
                           corpus("morphisms", "pi_h4_c2.map")])
    assert code == 0
    passing = [c for c in report.checks if c.status == "pass"]
    assert len(passing) == 12
    flagged = [c for c in report.checks if c.informational]
    assert len(flagged) == 1 and flagged[0].status == "fail"


def test_weakproj_with_name_inclusion_sigma():
    code, report, _ = run(["weakproj", "check",
                           corpus("algebras", "s3.alg"), corpus("algebras", "c2_in_s3.alg"),
                           corpus("morphisms", "pi_s3_c2.map")])
    assert code == 0


def test_weakproj_morphism_file_count_is_bad_input():
    a, b = corpus("algebras", "h4.alg"), corpus("algebras", "c2_in_h4.alg")
    sigma, pi = corpus("morphisms", "sigma_c2_h4.map"), corpus("morphisms", "pi_h4_c2.map")
    assert run(["weakproj", "check", a, b]) == (
        2, None, "this weakproj mode needs a pi morphism file")
    assert run(["weakproj", "search", a, b, sigma, pi]) == (
        2, None, "weakproj search takes at most a sigma file")


def test_machine_format_golden():
    # the machine wire format is normative; freeze one full report
    argv = ["magnum", corpus("algebras", "h4.alg"), corpus("algebras", "c2_in_h4.alg")]
    _, report, _ = run(argv)
    expected = "\n".join([
        "command=" + " ".join(argv),
        "check=b_has_antipode status=pass",
        "check=b_total_integral status=pass",
        "check=filtration_exhaustive status=pass value=dims=2,4",
        "check=coradical_inside_b status=pass value=coradical_dim=2",
        "overall=pass",
    ])
    assert machine(report) == expected


# pi_bad.map: a corrupted retraction can no longer split the coinvariant idempotent
H4_BAD_PI = ["h4.alg", "c2_in_h4.alg", "sigma_c2_h4.map", "pi_bad.map"]
S3_C2_C2 = ["s3.alg", "c2_in_s3.alg", "c2_in_s3.alg"]


@pytest.mark.parametrize("command, files, check, witness", [
    ("weakproj diagram", H4_BAD_PI, "diagram_split",
     "image_of_Pi2_is_not_contained_in_the_coinvariants"),
    ("build cross", H4_BAD_PI, "cross_product_built",
     "image_of_Pi2_is_not_contained_in_the_coinvariants"),
    ("build smash", H4_BAD_PI, "smash_preconditions",
     "image_of_Pi2_is_not_contained_in_the_coinvariants"),
    ("build smash", ["c4.alg", "c2_in_c4.alg", "pi_c4_c2.map"], "smash_preconditions",
     "cocycle_is_not_trivial"),
    ("build doublecross", S3_C2_C2, "factorization_invertible", "m_A(i_(x)_sigma)_is_singular"),
    ("matchedpair derive", S3_C2_C2, "factorization_invertible", "m_A(i_(x)_sigma)_is_singular"),
], ids=["weakproj-diagram", "build-cross", "build-smash-split", "build-smash-cocycle",
        "build-doublecross", "matchedpair-derive"])
def test_a_construction_that_fails_is_one_failing_check(tmp_path, command, files, check, witness):
    bad = tmp_path / "pi_bad.map"
    bad.write_text(open(corpus("morphisms", "pi_h4_c2.map")).read() + "map x -> one 1\n")
    paths = [str(bad) if f == "pi_bad.map"
             else corpus("algebras" if f.endswith(".alg") else "morphisms", f) for f in files]
    argv = command.split() + paths
    code, report, error = run(argv)
    assert (code, error) == (1, None)
    assert machine(report) == "\n".join([
        "command=" + " ".join(argv),
        f"check={check} status=fail witness={witness}",
        "overall=fail",
    ])


@pytest.mark.parametrize("argv, fn, check", [
    (["weakproj", "diagram", "a", "b", "pi"], "cmd_weakproj", "diagram_split"),
    (["build", "cross", "a", "b", "pi"], "cmd_build", "cross_product_built"),
    (["build", "smash", "a", "b", "pi"], "cmd_build", "smash_preconditions"),
    (["build", "doublecross", "a", "b", "r"], "cmd_build", "factorization_invertible"),
    (["matchedpair", "derive", "a", "b", "r"], "cmd_matchedpair", "factorization_invertible"),
], ids=["weakproj", "build-cross", "build-smash", "build-doublecross", "matchedpair-derive"])
def test_dispatch_decides_the_exit_class_by_the_exception(monkeypatch, argv, fn, check):
    def raising(exc):
        def command(args):
            raise exc
        return command

    monkeypatch.setattr(cli, fn, raising(ConstructionFailed("no such product")))
    code, report, error = run(argv)
    assert (code, error) == (1, None)
    assert report.checks == (CheckResult(check, "fail", witness="no_such_product"),)
    monkeypatch.setattr(cli, fn, raising(ValueError("bad input text")))
    assert run(argv) == (2, None, "bad input text")


def test_every_exception_has_one_exit_class():
    # dispatch turns a ValueError into exit 2 and a ConstructionFailed into a
    # failing check; an exception that is neither, or both, has no exit class
    modules = [importlib.import_module(f"braidhopf.{m.name}")
               for m in pkgutil.iter_modules(braidhopf.__path__) if m.name != "__main__"]
    classes = {cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, Exception)
               and cls.__module__.startswith("braidhopf")}
    assert {cls.__name__ for cls in classes} == {"ConstructionFailed", "ParseError",
                                                 "ShapeMismatch"}
    unclassed = sorted(cls.__name__ for cls in classes
                       if issubclass(cls, ValueError) == issubclass(cls, ConstructionFailed))
    assert unclassed == []


def test_machine_reports_are_byte_stable():
    argv = ["weakproj", "bd-suite",
            corpus("algebras", "s3.alg"), corpus("algebras", "c2_in_s3.alg"),
            corpus("morphisms", "sigma_c2_s3.map"), corpus("morphisms", "pi_s3_c2.map")]
    _, first, _ = run(argv)
    _, second, _ = run(argv)
    assert machine(first) == machine(second)


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("hopf broken\nbackend vec\ndim 1\nbasis z\nmul z q -> z 1\n")
    code = main(["check", "hopf", str(bad)])
    assert code == 2
    assert "line 5" in capsys.readouterr().err


def test_a_non_associative_group_block_is_bad_input(tmp_path, capsys):
    # the order-5 loop of test_category.py: identity e, inverses, no associativity
    bad = tmp_path / "loop.alg"
    bad.write_text("hopf line\nbackend yd L5\ngroup L5\nelements e a b c d\n"
                   "table e a b c d\ntable a e c d b\ntable b d e a c\n"
                   "table c b d e a\ntable d c a b e\ndim 1\nbasis z\ngrade z -> e\n"
                   "mul z z -> z 1\nunit -> z 1\ncomul z -> z z 1\ncounit z -> 1\n"
                   "antipode z -> z 1\n", encoding="utf-8")
    assert main(["check", "hopf", str(bad)]) == 2
    assert (capsys.readouterr().err
            == "error: line 3: group L5: associativity fails at (a,a,b)\n")


def test_super_grade_is_a_parity_group_element(tmp_path, capsys):
    with open(corpus("algebras", "ext_super.alg"), encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / "bad.alg"
    bad.write_text(text.replace("grade x -> 1", "grade x -> 2"), encoding="utf-8")
    assert main(["check", "hopf", str(bad)]) == 2
    assert capsys.readouterr().err == "error: line 6: unknown group element '2'\n"


# the argv after the command of each command that reads two or more
# definition files: A, B of another backend, then R or morphism files; no
# morphism file exists, so the backend check must come before any is read
TWO_BACKENDS = {
    **{f"weakproj {mode}": ["A", "B", "missing.map"]
       for mode in ("check", "search", "diagram", "bd-suite")},
    "build cross": ["A", "B", "missing.map"],
    "build smash": ["A", "B", "missing.map"],
    "build doublecross": ["A", "B", "A", "missing.map", "missing.map"],
    "matchedpair check": ["A", "B", "missing.map", "missing.map"],
    "matchedpair derive": ["A", "B", "A", "missing.map", "missing.map"],
    "filtration": ["A", "B"],
    "magnum": ["A", "B", "missing.map"],
}


@pytest.mark.parametrize("command", TWO_BACKENDS, ids=lambda c: c.replace(" ", "-"))
def test_files_of_two_backends_are_bad_input(tmp_path, capsys, command):
    with open(corpus("algebras", "c2_in_h4.alg"), encoding="utf-8") as fh:
        text = fh.read()
    sub = tmp_path / "c2_in_h4_super.alg"
    sub.write_text(text.replace("backend vec", "backend super"), encoding="utf-8")
    files = {"A": corpus("algebras", "h4.alg"), "B": str(sub),
             "missing.map": str(tmp_path / "missing.map")}
    assert main(command.split() + [files[f] for f in TWO_BACKENDS[command]]) == 2
    assert (capsys.readouterr().err
            == "error: all files in one command must use the same backend\n")


@pytest.mark.parametrize("argv, position, kinds", [
    (["check", "bialgebra", "ut2.alg"], 2, "bialgebra"),
    (["magnum", "h4.alg", "ut2.alg"], 2, "hopf"),
    (["build", "cross", "h4.alg", "ut2.alg", "pi.map"], 3, "hopf"),
    (["filtration", "ut2.alg", "c2_in_h4.alg"], 1, "hopf/bialgebra"),
], ids=["check", "magnum-b", "build-cross-b", "filtration-a"])
def test_a_file_of_the_wrong_kind_names_the_allowed_kinds(argv, position, kinds):
    argv = [corpus("algebras", f) if f.endswith(".alg") else f for f in argv]
    assert run(argv) == (2, None, f"{argv[position]}: expected a {kinds} file, got coalgebra")


def test_each_parser_has_its_usage_line():
    """The 15 parsers and their positionals, as README's command table gives
    them; argparse's line wrapping is not pinned."""
    def usages(parser, path):
        yield path, " ".join(parser.format_usage().split())
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    yield from usages(sub, f"{path} {name}")

    assert dict(usages(cli.build_parser(), "braidhopf")) == {
        "braidhopf": "usage: braidhopf [-h] [--report {plain,machine}] {check,integral,"
                     "cosep-section,weakproj,build,matchedpair,filtration,coradical,magnum} ...",
        "braidhopf check": "usage: braidhopf check [-h] {hopf,bialgebra} file",
        "braidhopf integral": "usage: braidhopf integral [-h] file",
        "braidhopf cosep-section": "usage: braidhopf cosep-section [-h] file",
        "braidhopf weakproj": "usage: braidhopf weakproj [-h] {check,search,diagram,bd-suite} "
                              "a b [sigma] [pi]",
        "braidhopf build": "usage: braidhopf build [-h] {cross,smash,doublecross} ...",
        "braidhopf build cross": "usage: braidhopf build cross [-h] a b [sigma] pi",
        "braidhopf build smash": "usage: braidhopf build smash [-h] a b [sigma] pi",
        "braidhopf build doublecross": "usage: braidhopf build doublecross [-h] "
                                       "a b r [sigma] [include]",
        "braidhopf matchedpair": "usage: braidhopf matchedpair [-h] {check,derive} ...",
        "braidhopf matchedpair check": "usage: braidhopf matchedpair check [-h] r b tr tl",
        "braidhopf matchedpair derive": "usage: braidhopf matchedpair derive [-h] "
                                        "a b r [sigma] [include]",
        "braidhopf filtration": "usage: braidhopf filtration [-h] a b",
        "braidhopf coradical": "usage: braidhopf coradical [-h] a",
        "braidhopf magnum": "usage: braidhopf magnum [-h] a b [sigma]",
    }


def test_main_builds_the_parser_once(monkeypatch, capsys):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    assert main(["--report", "machine", "check", "hopf", corpus("algebras", "c2.alg")]) == 0
    assert capsys.readouterr().out.endswith("overall=pass\n")
    assert len(calls) == 1


def test_build_doublecross_builds_the_product_once(monkeypatch):
    calls = []
    build = products.build_double_cross

    def counted(mp):
        calls.append(mp)
        return build(mp)
    for module in (products, cli):   # count a call made through either module's name
        monkeypatch.setattr(module, "build_double_cross", counted, raising=False)
    code, _, _ = run(["build", "doublecross", corpus("algebras", "s3.alg"),
                      corpus("algebras", "c2_in_s3.alg"), corpus("algebras", "c3.alg")])
    assert code == 0 and len(calls) == 1


def test_missing_file_exit_two(capsys):
    assert main(["check", "hopf", "no_such_file.alg"]) == 2


def test_wrong_kind_exit_two(capsys):
    assert main(["check", "hopf", corpus("algebras", "ut2.alg")]) == 2


def test_ext_vec_fails_compat():
    code, report, _ = run(["check", "hopf", corpus("algebras", "ext_vec.alg")])
    assert code == 1
    names = [c.name for c in report.checks if c.status == "fail"]
    assert names == ["bialgebra_compatibility"]


def test_ext_yd_machine_report(monkeypatch):
    """The exterior line in YD(C2) of tests/contexts, the one corpus Hopf
    algebra over a group action, with its report as verify_corpus.py prints it."""
    monkeypatch.chdir(os.path.join(CORPUS, ".."))
    path = os.path.join("corpus", "algebras", "ext_yd.alg")
    with open(path, encoding="utf-8") as fh:
        assert parse_algebra_file(fh.read()).algebra == yd_exterior_line()
    code, report, _ = run(["check", "hopf", path])
    assert code == 0
    assert machine(report) == "\n".join([
        "command=check hopf corpus/algebras/ext_yd.alg",
        "check=algebra_associativity status=pass",
        "check=algebra_unit_left status=pass",
        "check=algebra_unit_right status=pass",
        "check=coalgebra_coassociativity status=pass",
        "check=coalgebra_counit_left status=pass",
        "check=coalgebra_counit_right status=pass",
        "check=morphism_m status=pass",
        "check=morphism_u status=pass",
        "check=morphism_delta status=pass",
        "check=morphism_eps status=pass",
        "check=bialgebra_compatibility status=pass",
        "check=unit_comultiplicative status=pass",
        "check=counit_multiplicative status=pass",
        "check=counit_of_unit status=pass",
        "check=antipode_axiom status=pass",
        "check=antipode_anti_multiplicative status=pass",
        "check=antipode_anti_comultiplicative status=pass",
        "overall=pass",
    ])


def test_filtration_values():
    code, report, _ = run(["filtration", corpus("algebras", "h4.alg"),
                           corpus("algebras", "c2_in_h4.alg")])
    assert code == 0
    dims = [c for c in report.checks if c.name == "b_adic_dims"][0]
    assert dims.value == "2,4"


@pytest.mark.parametrize("command", ["filtration", "magnum"])
def test_max_n_is_an_unrecognized_argument(command, capsys):
    argv = [command, corpus("algebras", "h4.alg"), corpus("algebras", "c2_in_h4.alg"),
            "--max-n", "1"]
    assert main(argv) == 2
    assert "unrecognized arguments: --max-n 1" in capsys.readouterr().err


def test_magnum_filtration_runs_to_its_fixed_point(capsys):
    # the filtration is not cut short: h4 over kC2 reaches all of h4 in two steps
    argv = ["--report", "machine", "magnum", corpus("algebras", "h4.alg"),
            corpus("algebras", "c2_in_h4.alg")]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "check=filtration_exhaustive status=pass value=dims=2,4" in lines


LINE_ALGEBRA = ("bialgebra l\nbackend graded c2 chi\ngroup c2\nelements e g\n"
                "table e g\ntable g e\nbichar chi\ntable 1 1\ntable 1 {entry}\n"
                "dim {dim}\nbasis one x\ngrade x -> g\n"
                "mul one one -> one {coeff}\nmul one x -> x 1\nmul x one -> x 1\n"
                "unit -> one 1\ncomul one -> one one 1\ncomul x -> x one 1\n"
                "comul x -> one x 1\ncounit one -> 1\n")


@pytest.mark.parametrize("spelling, message", [
    ({}, None),
    ({"coeff": "1_0"}, "line 13: bad coefficient '1_0'"),
    ({"coeff": "３"}, "line 13: bad coefficient '３'"),      # full-width 3
    ({"coeff": "1/1_0"}, "line 13: bad coefficient '1/1_0'"),
    ({"coeff": "+1"}, "line 13: bad coefficient '+1'"),
    ({"coeff": "1/-1"}, "line 13: bad coefficient '1/-1'"),
    ({"coeff": "1/0"}, "line 13: bad coefficient '1/0'"),
    ({"dim": "٢"}, "line 10: usage: dim <n>"),                     # Arabic-Indic 2
    ({"entry": "-１"}, "line 9: bichar entries must be 1 or -1"),  # full-width 1
    ({"entry": "-0_1"}, "line 9: bichar entries must be 1 or -1"),
])
def test_numbers_are_ascii_digits(tmp_path, capsys, spelling, message):
    path = tmp_path / "line.alg"
    path.write_text(LINE_ALGEBRA.format(**{"coeff": "1", "dim": "2", "entry": "-1", **spelling}),
                    encoding="utf-8")
    code = main(["check", "bialgebra", str(path)])
    if message is None:
        assert code == 0
    else:
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_coradical_of_ut2():
    code, report, _ = run(["coradical", corpus("algebras", "ut2.alg")])
    assert code == 0
    by_name = {c.name: c for c in report.checks}
    assert by_name["coradical_dim"].value == "2"
    assert by_name["coradical_basis"].value == "1*e11;1*e22"


def test_magnum_full_pass():
    code, report, _ = run(["magnum", corpus("algebras", "h4.alg"),
                           corpus("algebras", "c2_in_h4.alg")])
    assert code == 0
    assert all(c.status == "pass" for c in report.checks)


def test_build_cross_both_contexts():
    for a, b, sigma, pi in (
        ("h4.alg", "c2_in_h4.alg", "sigma_c2_h4.map", "pi_h4_c2.map"),
        ("s3.alg", "c2_in_s3.alg", "sigma_c2_s3.map", "pi_s3_c2.map"),
    ):
        code, report, _ = run(["build", "cross", corpus("algebras", a),
                               corpus("algebras", b), corpus("morphisms", sigma),
                               corpus("morphisms", pi)])
        assert code == 0, (a, [c.name for c in report.checks if c.status == "fail"])


def test_build_smash_s3():
    code, report, _ = run(["build", "smash", corpus("algebras", "s3.alg"),
                           corpus("algebras", "c2_in_s3.alg"),
                           corpus("morphisms", "pi_s3_c2.map")])
    assert code == 0


def test_build_smash_rejects_h4(capsys):
    code = main(["build", "smash", corpus("algebras", "h4.alg"),
                 corpus("algebras", "c2_in_h4.alg"),
                 corpus("morphisms", "pi_h4_c2.map")])
    assert code == 1


@pytest.mark.parametrize("sub", ["d4_in_s4", "c3_in_s4"])
def test_weakproj_search_s4_matches_the_benchmark_golden_digest(monkeypatch, sub):
    # the machine report names the command, so it runs from the repository
    # root with the relative paths perfbench/golden.json was captured with
    root = os.path.join(CORPUS, "..")
    argv = ["weakproj", "search", "corpus/algebras/s4.alg", f"corpus/algebras/{sub}.alg"]
    with open(os.path.join(root, "perfbench", "golden.json"), encoding="utf-8") as fh:
        expected = json.load(fh)["s4"][" ".join(argv)]
    monkeypatch.chdir(root)
    code, report, _ = run(["--report", "machine", *argv])
    text = machine(report)
    assert (code, hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()) == (
        expected["exit"], expected["digest"])


def test_build_doublecross_s4():
    # S4 = D4 * C3 rebuilt as the double cross product kD4 |><| kC3
    code, report, _ = run(["--report", "machine", "build", "doublecross",
                           corpus("algebras", "s4.alg"), corpus("algebras", "c3_in_s4.alg"),
                           corpus("algebras", "d4_in_s4.alg")])
    assert code == 0
    status = dict(line.removeprefix("check=").split(" status=")
                  for line in machine(report).splitlines() if line.startswith("check="))
    named = {p: [n for n in status if n.startswith(p)] for p in ("mp", "doublecross_", "phi_")}
    assert [n[:4] for n in named["mp"]] == [f"mp{k}_" for k in range(1, 8)]
    assert (len(named["doublecross_"]), len(named["phi_"])) == (14, 5)
    assert all(status[n] == "pass" for names in named.values() for n in names)
    d4 = parse_algebra_file(open(corpus("algebras", "d4_in_s4.alg")).read())
    c3 = parse_algebra_file(open(corpus("algebras", "c3_in_s4.alg")).read())
    assert d4.basis == ("p0123", "p0321", "p1032", "p1230", "p2103", "p2301",
                        "p3012", "p3210")
    assert c3.basis == ("p0123", "p1203", "p2013")


def test_the_non_normal_projection_fails_exactly_the_left_linearity_checks():
    # pi_s3_c3 projects kS3 onto the non-normal 3-cycle subalgebra kC3:
    # a weak projection whose cross product exists, but no smash product
    s3, c3 = corpus("algebras", "s3.alg"), corpus("algebras", "c3.alg")
    pi = corpus("morphisms", "pi_s3_c3.map")
    code, report, _ = run(["build", "smash", s3, c3, pi])
    assert code == 1
    status = {c.name: (c.status, c.value) for c in report.checks}
    assert {n: sv for n, sv in status.items() if sv[0] == "fail"} == {
        "act_b_trivial": ("fail", "false"), "pi_left_linear": ("fail", "false")}
    assert status["triviality_iff_left_linear"][0] == "pass"
    assert status["left_action_is_adjoint"][0] == "skipped"
    for command in (["weakproj", "check"], ["build", "cross"]):
        assert run([*command, s3, c3, pi])[0] == 0, command


def test_matchedpair_check_files():
    code, report, _ = run(["matchedpair", "check", corpus("algebras", "c3.alg"),
                           corpus("algebras", "c2_in_s3.alg"),
                           corpus("morphisms", "act_r_s3.map"),
                           corpus("morphisms", "act_b_s3.map")])
    assert code == 0
    assert len(report.checks) == 7


def test_matchedpair_derive_counterexample_context():
    code, report, _ = run(["matchedpair", "derive", corpus("algebras", "s3.alg"),
                           corpus("algebras", "c3.alg"), corpus("algebras", "c2_in_s3.alg")])
    assert code == 0


def test_witness_self_validation(tmp_path):
    # corrupt one structure constant and check the reported witness entry
    # really is an entry where the two sides of the identity differ
    text = open(corpus("algebras", "h4.alg")).read()
    bad = text.replace("mul g g -> one 1", "mul g g -> one 2")
    path = tmp_path / "h4bad.alg"
    path.write_text(bad)
    code, report, _ = run(["check", "hopf", str(path)])
    assert code == 1
    failing = [c for c in report.checks if c.status == "fail"]
    assert failing
    import re
    from braidhopf.linalg import Matrix, pipeline
    from braidhopf.textio import parse_algebra_file
    alg = parse_algebra_file(bad).algebra
    assoc = [c for c in failing if c.name == "algebra_associativity"]
    assert assoc, [c.name for c in failing]
    m = re.match(r"\((\d+),(\d+)\):lhs=(-?\d+):rhs=(-?\d+)", assoc[0].witness)
    i, j, lhs, rhs = int(m.group(1)), int(m.group(2)), m.group(3), m.group(4)
    ida = Matrix.identity(4)
    left = pipeline((alg.m.mat, ida), alg.m.mat)
    right = pipeline((ida, alg.m.mat), alg.m.mat)
    assert str(left.entry(i, j)) == lhs
    assert str(right.entry(i, j)) == rhs
    assert lhs != rhs


def test_explicit_sigma_file_matches_the_name_inclusion():
    a, b = corpus("algebras", "h4.alg"), corpus("algebras", "c2_in_h4.alg")
    sigma = corpus("morphisms", "sigma_c2_h4.map")
    for prefix in (["magnum"], ["weakproj", "search"]):
        code, implicit, _ = run(prefix + [a, b])
        code_file, explicit, _ = run(prefix + [a, b, sigma])
        assert code_file == code
        assert explicit.checks == implicit.checks, prefix


def test_importing_cli_loads_no_module_that_only_some_commands_use():
    """A child interpreter imports cli: doing it here would mean dropping the
    loaded modules, and the tests after it would see classes built twice."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "import sys, braidhopf.cli; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True, env={**os.environ, "PYTHONPATH": src})
    loaded = set(done.stdout.split())
    assert "braidhopf.cli" in loaded
    assert loaded & {"braidhopf.products", "braidhopf.weakproj", "braidhopf.filtration"} == set()
