"""Command line front end: load definition files, run checks, print reports.

A subcommand declares its positionals as its usage line in README's command
table (``_files``).  It loads its algebra files through ``_algebras``, which
checks each file's kind and then that all use one backend, before it reads a
morphism file through ``_morphism``; an omitted sigma or include is the
inclusion by basis names.  ``weakproj``, ``products`` and ``filtration``
are imported by the commands that use them, so a command loads only the
modules it runs.

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
from .hopf import (build_cosep_section, full_axiom_report, solve_total_integral,
                   verify_bialgebra, verify_cosep_section)
from .report import (CheckResult, ConstructionFailed, Report, bool_check, make_report,
                     prefixed)
from .textio import (LoadedAlgebra, inclusion_by_names, parse_algebra_file,
                     parse_morphism_file, tensor_names)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}")


_BIALGEBRA = ("hopf", "bialgebra")
_COALGEBRA = ("hopf", "bialgebra", "coalgebra")


def _algebras(*files: tuple[str, tuple[str, ...]]) -> list[LoadedAlgebra]:
    """Each (path, kinds) parsed in order and checked to be of one of kinds,
    then all checked to use one backend."""
    loaded = []
    for path, kinds in files:
        alg = parse_algebra_file(_read(path))
        if alg.kind not in kinds:
            raise ValueError(f"{path}: expected a {'/'.join(kinds)} file, got {alg.kind}")
        loaded.append(alg)
    if any(alg.backend != loaded[0].backend for alg in loaded):
        raise ValueError("all files in one command must use the same backend")
    return loaded


def _morphism(path: str | None, dom: LoadedAlgebra, cod: LoadedAlgebra) -> Morphism:
    """The morphism file at path, or the inclusion of dom into cod by basis names."""
    if path is None:
        return inclusion_by_names(dom, cod)
    return parse_morphism_file(_read(path), dom, cod)


def _context(args, sigma: str | None, pi: str | None = None):
    """(A, B, sigma, pi) of a weak projection; pi is None without its file."""
    a, b = _algebras((args.a, _BIALGEBRA), (args.b, ("hopf",)))
    return a, b, _morphism(sigma, b, a), None if pi is None else _morphism(pi, a, b)


def _factorization(args):
    """The factorization A = B R of the files a, b, r, [sigma] and [include]."""
    from .products import make_factorization
    a, b, r = _algebras((args.a, _BIALGEBRA), (args.b, _BIALGEBRA), (args.r, _BIALGEBRA))
    return make_factorization(a.algebra, b.algebra, r.algebra,
                              _morphism(args.sigma, b, a), _morphism(args.include, r, a))


def _lincomb(column: dict, names) -> str:
    terms = [f"{v}*{names[i]}" for i, v in sorted(column.items())]
    return "+".join(terms) if terms else "0"


def cmd_check(args) -> list[CheckResult]:
    return full_axiom_report(_algebras((args.file, (args.kind,)))[0].algebra)


def cmd_integral(args) -> list[CheckResult]:
    """integral reports the total integral; cosep-section builds the section from it."""
    [loaded] = _algebras((args.file, ("hopf",)))
    lam = solve_total_integral(loaded.algebra)
    if lam is None:
        return [CheckResult("total_integral", "fail", witness="no_solution")]
    if args.command == "integral":
        value = _lincomb(lam.transpose().column(0), loaded.basis)
        return [CheckResult("total_integral", "pass", value=value)]
    theta = build_cosep_section(loaded.algebra, lam)
    return [CheckResult("total_integral", "pass")] + verify_cosep_section(loaded.algebra, theta)


def cmd_weakproj(args) -> list[CheckResult]:
    from .weakproj import (build_context, run_bd_suite, search_weak_projection,
                           structure_report, verify_weak_projection)
    files = [f for f in (args.sigma, args.pi) if f is not None]
    if args.mode == "search":
        if len(files) == 2:
            raise ValueError("weakproj search takes at most a sigma file")
        a, b, sigma, _ = _context(args, args.sigma)
        result = search_weak_projection(a.algebra, b.algebra, sigma)
        checks = list(result.checks)
        if result.pi is not None:
            rows = ";".join(_lincomb(result.pi.mat.column(j), b.basis) for j in range(a.dim))
            checks.append(CheckResult("candidate_pi", "pass", value=rows))
        return checks
    if not files:
        raise ValueError("this weakproj mode needs a pi morphism file")
    # a single file is pi, and sigma is the inclusion by basis names
    sigma_path, pi_path = files if len(files) == 2 else (None, files[0])
    a, b, sigma, pi = _context(args, sigma_path, pi_path)
    if args.mode == "check":
        return verify_weak_projection(a.algebra, b.algebra, sigma, pi)
    if args.mode == "bd-suite":
        return run_bd_suite(a.algebra, b.algebra, sigma, pi)
    ctx = build_context(a.algebra, b.algebra, sigma, pi)
    return [CheckResult("diagram_split", "pass", value=f"dim_r={ctx.r_dim}")] + structure_report(ctx)


def cmd_build(args) -> list[CheckResult]:
    from .products import (bosonization_checks, build_cross_product, cross_product_report,
                           derive_actions_general)
    from .weakproj import build_context
    if args.what == "doublecross":
        product, derive_checks = derive_actions_general(_factorization(args))
        return derive_checks + prefixed("doublecross_", verify_bialgebra(product))
    a, b, sigma, pi = _context(args, args.sigma, args.pi)
    ctx = build_context(a.algebra, b.algebra, sigma, pi)
    if args.what == "cross":
        return cross_product_report(build_cross_product(ctx))
    return bosonization_checks(ctx)        # smash: the cocommutative route


def cmd_matchedpair(args) -> list[CheckResult]:
    from .products import MatchedPair, check_matched_pair, derive_actions_general
    if args.mode == "derive":
        return derive_actions_general(_factorization(args))[1]
    r, b = _algebras((args.r, _BIALGEBRA), (args.b, _BIALGEBRA))
    br = LoadedAlgebra("object", f"{b.name}.{r.name}", r.backend,
                       tuple(tensor_names(b.basis, r.basis)), r.backend.tensor(b.obj, r.obj), None)
    tr, tl = _morphism(args.tr, br, r), _morphism(args.tl, br, b)
    return check_matched_pair(MatchedPair(r.algebra, b.algebra, tr.mat, tl.mat))


def cmd_filtration(args) -> list[CheckResult]:
    from .filtration import b_adic_filtration
    a, b = _algebras((args.a, _BIALGEBRA), (args.b, _COALGEBRA))
    dims = b_adic_filtration(a.algebra, inclusion_by_names(b, a).mat)
    if dims is None:
        return [CheckResult("b_subcoalgebra", "fail", witness="delta_leaves_b")]
    text = ",".join(str(d) for d in dims)
    return [CheckResult("b_subcoalgebra", "pass"), CheckResult("b_adic_dims", "pass", value=text),
            bool_check("exhaustive", dims[-1] == a.dim, witness=f"dims={text}")]


def cmd_coradical(args) -> list[CheckResult]:
    from .filtration import coradical
    [a] = _algebras((args.a, _COALGEBRA))
    cor = coradical(a.algebra)
    cols = ";".join(_lincomb(cor.column(j), a.basis) for j in range(cor.cols))
    return [CheckResult("coradical_dim", "pass", value=str(cor.cols)),
            CheckResult("coradical_basis", "pass", value=cols)]


def cmd_magnum(args) -> list[CheckResult]:
    from .filtration import check_magnum_preconditions
    a, b, sigma, _ = _context(args, args.sigma)
    return check_magnum_preconditions(a.algebra, b.algebra, sigma)


def _files(parser: argparse.ArgumentParser, usage: str, **helps: str) -> None:
    """One positional per word of usage, in order; a word in brackets is
    optional.  helps holds the help of a positional that has one."""
    for word in usage.split():
        name = word.strip("[]")
        parser.add_argument(name, nargs="?" if word != name else None, help=helps.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidhopf",
        description="exact checks for bialgebras in braided monoidal categories")
    parser.add_argument("--report", choices=("plain", "machine"), default="plain",
                        help="report format (machine is byte-stable)")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="verify the axioms of one algebra file")
    p.add_argument("kind", choices=("hopf", "bialgebra"))
    _files(p, "file")
    p.set_defaults(fn=cmd_check)

    for name, text in (("integral", "solve for a total integral"),
                       ("cosep-section", "build and verify the coseparability section")):
        p = subs.add_parser(name, help=text)
        _files(p, "file")
        p.set_defaults(fn=cmd_integral)

    p = subs.add_parser("weakproj", help="weak projection checks")
    p.add_argument("mode", choices=("check", "search", "diagram", "bd-suite"))
    _files(p, "a b [sigma] [pi]")
    p.set_defaults(fn=cmd_weakproj, failure="diagram_split")

    p = subs.add_parser("build", help="build product bialgebras and verify them")
    sub_build = p.add_subparsers(dest="what", required=True)
    for what, failure in (("cross", "cross_product_built"), ("smash", "smash_preconditions")):
        q = sub_build.add_parser(what)
        _files(q, "a b [sigma] pi")
        q.set_defaults(fn=cmd_build, failure=failure)
    q = sub_build.add_parser("doublecross")
    _files(q, "a b r [sigma] [include]")
    q.set_defaults(fn=cmd_build, failure="factorization_invertible")

    p = subs.add_parser("matchedpair", help="check or derive matched pairs")
    sub_mp = p.add_subparsers(dest="mode", required=True)
    q = sub_mp.add_parser("check")
    _files(q, "r b tr tl", tr="morphism file B(x)R -> R over dotted basis names",
           tl="morphism file B(x)R -> B over dotted basis names")
    q.set_defaults(fn=cmd_matchedpair)
    q = sub_mp.add_parser("derive")
    _files(q, "a b r [sigma] [include]")
    q.set_defaults(fn=cmd_matchedpair, failure="factorization_invertible")

    p = subs.add_parser("filtration", help="the iterated wedge filtration against B")
    _files(p, "a b")
    p.set_defaults(fn=cmd_filtration)

    p = subs.add_parser("coradical", help="largest cosemisimple subcoalgebra")
    _files(p, "a")
    p.set_defaults(fn=cmd_coradical)

    p = subs.add_parser("magnum", help="weak projection existence preconditions")
    _files(p, "a b [sigma]")
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
    code, report, error, args = _run(sys.argv[1:] if argv is None else argv)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    if report is not None:
        print(report.render(args.report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
