"""Command line front end: load definition files, run checks, print reports.

Exit codes: 0 all checks passed.  1 a check failed; a construction that does
not exist for the input (``ConstructionFailed``) is one failing check named by
the subcommand: diagram_split, cross_product_built, smash_preconditions or
factorization_invertible.  2 bad input, a ``ValueError``: parse errors, missing
files, wrong file kinds, shape mismatches.
"""

from __future__ import annotations

import argparse
import sys

from .category import Morphism
from .filtration import b_adic_filtration, check_magnum_preconditions, coradical
from .hopf import (build_cosep_section, full_axiom_report, solve_total_integral,
                   verify_bialgebra, verify_cosep_section)
from .products import (MatchedPair, bosonization_checks, build_cross_product,
                       check_matched_pair, cross_product_report, derive_actions_general,
                       make_factorization)
from .report import (CheckResult, ConstructionFailed, Report, bool_check, make_report,
                     prefixed)
from .textio import (LoadedAlgebra, inclusion_by_names, parse_algebra_file,
                     parse_morphism_file, tensor_names)
from .weakproj import (build_context, run_bd_suite, search_weak_projection,
                       structure_report, verify_weak_projection)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}")


def load_algebra(path: str, kinds=("hopf", "bialgebra")) -> LoadedAlgebra:
    loaded = parse_algebra_file(_read(path))
    if loaded.kind not in kinds:
        raise ValueError(f"{path}: expected a {'/'.join(kinds)} file, got {loaded.kind}")
    return loaded


def load_hopf(path: str) -> LoadedAlgebra:
    return load_algebra(path, kinds=("hopf",))


def load_morphism(path: str, dom, cod) -> Morphism:
    return parse_morphism_file(_read(path), dom, cod)


def _morphism_or_inclusion(path: str | None, dom: LoadedAlgebra, cod: LoadedAlgebra) -> Morphism:
    """The morphism file at path, or the inclusion of dom into cod by basis names."""
    return load_morphism(path, dom, cod) if path is not None else inclusion_by_names(dom, cod)


def _require_same_backend(*loaded: LoadedAlgebra) -> None:
    first = loaded[0].backend
    for other in loaded[1:]:
        if other.backend != first:
            raise ValueError("all files in one command must use the same backend")


def _weakproj_args(args) -> tuple[LoadedAlgebra, LoadedAlgebra, Morphism, Morphism | None]:
    files = [f for f in (args.sigma, args.pi) if f is not None]
    if args.mode == "search":
        if len(files) == 2:
            raise ValueError("weakproj search takes at most a sigma file")
        return _load_context_files(args.a, args.b, args.sigma)
    if not files:
        raise ValueError("this weakproj mode needs a pi morphism file")
    sigma_path, pi_path = files if len(files) == 2 else (None, files[0])
    return _load_context_files(args.a, args.b, sigma_path, pi_path)


def _lincomb(column: dict, names) -> str:
    terms = [f"{v}*{names[i]}" for i, v in sorted(column.items())]
    return "+".join(terms) if terms else "0"


def cmd_check(args) -> list[CheckResult]:
    return full_axiom_report(load_algebra(args.file, kinds=(args.kind,)).algebra)


def cmd_integral(args) -> list[CheckResult]:
    loaded = load_hopf(args.file)
    lam = solve_total_integral(loaded.algebra)
    if lam is None:
        return [CheckResult("total_integral", "fail", witness="no_solution")]
    value = _lincomb({j: lam.entry(0, j) for j in range(lam.cols) if lam.entry(0, j)},
                     loaded.basis)
    return [CheckResult("total_integral", "pass", value=value)]


def cmd_cosep_section(args) -> list[CheckResult]:
    loaded = load_hopf(args.file)
    lam = solve_total_integral(loaded.algebra)
    if lam is None:
        return [CheckResult("total_integral", "fail", witness="no_solution")]
    theta = build_cosep_section(loaded.algebra, lam)
    return ([CheckResult("total_integral", "pass")]
            + verify_cosep_section(loaded.algebra, theta))


def cmd_weakproj(args) -> list[CheckResult]:
    a, b, sigma, pi = _weakproj_args(args)
    alg_a, alg_b = a.algebra, b.algebra
    if args.mode == "check":
        return verify_weak_projection(alg_a, alg_b, sigma, pi)
    if args.mode == "bd-suite":
        return run_bd_suite(alg_a, alg_b, sigma, pi)
    if args.mode == "diagram":
        ctx = build_context(alg_a, alg_b, sigma, pi)
        checks = [CheckResult("diagram_split", "pass", value=f"dim_r={ctx.r_dim}")]
        return checks + structure_report(ctx)
    result = search_weak_projection(alg_a, alg_b, sigma)
    checks = list(result.checks)
    if result.pi is not None:
        rows = ";".join(_lincomb(result.pi.mat.column(j), b.basis) for j in range(a.dim))
        checks.append(CheckResult("candidate_pi", "pass", value=rows))
    return checks


def cmd_build(args) -> list[CheckResult]:
    if args.what == "cross":
        a, b, sigma, pi = _load_context_files(args.a, args.b, args.sigma, args.pi)
        ctx = build_context(a.algebra, b.algebra, sigma, pi)
        return cross_product_report(build_cross_product(ctx))
    if args.what == "doublecross":
        product, derive_checks = derive_actions_general(_factorization_from_files(args))
        return derive_checks + prefixed("doublecross_", verify_bialgebra(product))
    # smash: the cocommutative route through a weak projection context
    a, b, sigma, pi = _load_context_files(args.a, args.b, args.sigma, args.pi)
    return bosonization_checks(build_context(a.algebra, b.algebra, sigma, pi))


def _load_context_files(a_path, b_path, sigma_path, pi_path=None):
    a = load_algebra(a_path)
    b = load_hopf(b_path)
    _require_same_backend(a, b)
    sigma = _morphism_or_inclusion(sigma_path, b, a)
    return a, b, sigma, None if pi_path is None else load_morphism(pi_path, a, b)


def _factorization_from_files(args):
    a = load_algebra(args.a)
    b = load_algebra(args.b)
    r = load_algebra(args.r)
    _require_same_backend(a, b, r)
    sigma = _morphism_or_inclusion(args.sigma, b, a)
    include = _morphism_or_inclusion(args.include, r, a)
    return make_factorization(a.algebra, b.algebra, r.algebra, sigma, include)


def cmd_matchedpair(args) -> list[CheckResult]:
    if args.mode == "derive":
        return derive_actions_general(_factorization_from_files(args))[1]
    r = load_algebra(args.r)
    b = load_algebra(args.b)
    _require_same_backend(r, b)
    br_obj = r.backend.tensor(b.obj, r.obj)
    br_names = tensor_names(list(b.basis), list(r.basis))
    tr = load_morphism(args.tr, (br_obj, br_names), r)
    tl = load_morphism(args.tl, (br_obj, br_names), b)
    mp = MatchedPair(r.algebra, b.algebra, tr.mat, tl.mat)
    return check_matched_pair(mp)


def cmd_filtration(args) -> list[CheckResult]:
    a = load_algebra(args.a)
    b = load_algebra(args.b, kinds=("hopf", "bialgebra", "coalgebra"))
    _require_same_backend(a, b)
    sigma = inclusion_by_names(b, a)
    report = b_adic_filtration(a.algebra, sigma.mat)
    if report is None:
        return [CheckResult("b_subcoalgebra", "fail", witness="delta_leaves_b")]
    dims = ",".join(str(d) for d in report.dims)
    return [
        CheckResult("b_subcoalgebra", "pass"),
        CheckResult("b_adic_dims", "pass", value=dims),
        bool_check("exhaustive", report.exhaustive, witness=f"dims={dims}"),
    ]


def cmd_coradical(args) -> list[CheckResult]:
    a = load_algebra(args.a, kinds=("hopf", "bialgebra", "coalgebra"))
    cor = coradical(a.algebra)
    cols = ";".join(_lincomb(cor.column(j), a.basis) for j in range(cor.cols))
    return [CheckResult("coradical_dim", "pass", value=str(cor.cols)),
            CheckResult("coradical_basis", "pass", value=cols)]


def cmd_magnum(args) -> list[CheckResult]:
    a, b, sigma, _ = _load_context_files(args.a, args.b, args.sigma)
    return check_magnum_preconditions(a.algebra, b.algebra, sigma)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidhopf",
        description="exact checks for bialgebras in braided monoidal categories")
    parser.add_argument("--report", choices=("plain", "machine"), default="plain",
                        help="report format (machine is byte-stable)")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="verify the axioms of one algebra file")
    p.add_argument("kind", choices=("hopf", "bialgebra"))
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = subs.add_parser("integral", help="solve for a total integral")
    p.add_argument("file")
    p.set_defaults(fn=cmd_integral)

    p = subs.add_parser("cosep-section", help="build and verify the coseparability section")
    p.add_argument("file")
    p.set_defaults(fn=cmd_cosep_section)

    p = subs.add_parser("weakproj", help="weak projection checks")
    p.add_argument("mode", choices=("check", "search", "diagram", "bd-suite"))
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("sigma", nargs="?")
    p.add_argument("pi", nargs="?")
    p.set_defaults(fn=cmd_weakproj, failure="diagram_split")

    p = subs.add_parser("build", help="build product bialgebras and verify them")
    sub_build = p.add_subparsers(dest="what", required=True)
    for what, failure in (("cross", "cross_product_built"), ("smash", "smash_preconditions")):
        q = sub_build.add_parser(what)
        q.add_argument("a")
        q.add_argument("b")
        q.add_argument("sigma", nargs="?")
        q.add_argument("pi")
        q.set_defaults(fn=cmd_build, failure=failure)
    q = sub_build.add_parser("doublecross")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("r")
    q.add_argument("sigma", nargs="?")
    q.add_argument("include", nargs="?")
    q.set_defaults(fn=cmd_build, failure="factorization_invertible")

    p = subs.add_parser("matchedpair", help="check or derive matched pairs")
    sub_mp = p.add_subparsers(dest="mode", required=True)
    q = sub_mp.add_parser("check")
    q.add_argument("r")
    q.add_argument("b")
    q.add_argument("tr", help="morphism file B(x)R -> R over dotted basis names")
    q.add_argument("tl", help="morphism file B(x)R -> B over dotted basis names")
    q.set_defaults(fn=cmd_matchedpair)
    q = sub_mp.add_parser("derive")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("r")
    q.add_argument("sigma", nargs="?")
    q.add_argument("include", nargs="?")
    q.set_defaults(fn=cmd_matchedpair, failure="factorization_invertible")

    p = subs.add_parser("filtration", help="the iterated wedge filtration against B")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_filtration)

    p = subs.add_parser("coradical", help="largest cosemisimple subcoalgebra")
    p.add_argument("a")
    p.set_defaults(fn=cmd_coradical)

    p = subs.add_parser("magnum", help="weak projection existence preconditions")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("sigma", nargs="?")
    p.set_defaults(fn=cmd_magnum)

    return parser


def _run(argv: list[str]
         ) -> tuple[int, Report | None, str | None, argparse.Namespace | None]:
    """(exit code, report, error, parsed args); args is None when argv does not parse."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (0 if exc.code in (0, None) else 2), None, None, None
    command = " ".join(argv)
    try:
        checks = args.fn(args)
    except ValueError as exc:
        return 2, None, str(exc), args
    except ConstructionFailed as exc:
        checks = [CheckResult(args.failure, "fail", witness=str(exc).replace(" ", "_"))]
    report = make_report(command, checks)
    return (0 if report.overall == "pass" else 1), report, None, args


def dispatch(argv: list[str]) -> tuple[int, Report | None, str | None]:
    return _run(argv)[:3]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    code, report, error, args = _run(argv)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    if report is not None:
        print(report.render(args.report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
