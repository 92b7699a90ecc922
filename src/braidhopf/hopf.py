"""Structure-constant (co)algebras, bialgebras and Hopf algebras.

``Coalgebra`` is the base record, extended by ``BraidedBialgebra`` (m, u)
and ``HopfAlgebra`` (s).  Axiom status is always computed, never assumed:
every verifier returns a list of CheckResults, one exact matrix identity
each, and never aborts on the first failure.

Associativity is decided by Light's test (Clifford and Preston, *The
Algebraic Theory of Semigroups* I, 1961).  For any bilinear product m on A,
the left nucleus T = {a : (ax)y = a(xy) for all x, y} is a subspace closed
under m: for b, c in T, ((bc)x)y = (b(cx))y = b((cx)y) = b(c(xy)) = (bc)(xy).
So when the left-normed words ((s1 s2) s3)... in a set S span A,
(sx)y = s(xy) for s in S and basis x, y proves associativity, with |S| n^2
columns instead of n^3.  ``linalg.generating_set`` picks S greedily from the
basis, each e_j not yet in that span; at worst S is the whole basis.  The
reduced identity is the full one read only at the columns (s, x, y), s in S,
so the two verdicts agree; a failure is reported by the full scan, whose
witness is the first failing column of (xy)z = x(yz).
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import Backend, CatObject, Morphism
from .linalg import (Formula, Matrix, compose, generating_set, kron, map_system, pipeline,
                     solve_affine)
from .report import CheckResult, eq_check, merge_checks


@dataclass(frozen=True)
class Coalgebra:
    """Bare coalgebra data, enough for coradical and wedge computations."""
    backend: Backend
    carrier: CatObject
    delta: Morphism      # A -> A (x) A
    eps: Morphism        # A -> 1

    @property
    def dim(self) -> int:
        return self.carrier.dim


@dataclass(frozen=True)
class BraidedBialgebra(Coalgebra):
    m: Morphism          # A (x) A -> A
    u: Morphism          # 1 -> A

    def braiding(self) -> Matrix:
        return self.backend.braiding_mat(self.carrier, self.carrier)


@dataclass(frozen=True)
class HopfAlgebra(BraidedBialgebra):
    s: Morphism          # A -> A


def make_bialgebra(backend: Backend, carrier: CatObject,
                   m: Matrix, u: Matrix, delta: Matrix, eps: Matrix,
                   s: Matrix | None = None):
    unit = backend.unit()
    sq = backend.tensor(carrier, carrier)
    args = (backend, carrier,
            Morphism(carrier, sq, delta), Morphism(carrier, unit, eps),
            Morphism(sq, carrier, m), Morphism(unit, carrier, u))
    if s is None:
        return BraidedBialgebra(*args)
    return HopfAlgebra(*args, Morphism(carrier, carrier, s))


def associativity_check(m: Matrix) -> CheckResult:
    """(xy)z = x(yz), decided on the generating set (module docstring)."""
    ida = Matrix.identity(m.rows)
    gens = generating_set(m)
    g = Matrix(m.rows, len(gens), [{s: 1} for s in gens])
    reduced = eq_check("algebra_associativity",
                       Formula((pipeline((g, ida), m), ida), m), Formula((g, m), m))
    if not reduced.failed():
        return reduced
    return eq_check("algebra_associativity", Formula((m, ida), m), Formula((ida, m), m))


def verify_algebra(a: BraidedBialgebra) -> list[CheckResult]:
    m, u = a.m.mat, a.u.mat
    ida = Matrix.identity(a.dim)
    return [
        associativity_check(m),
        eq_check("algebra_unit_left", Formula((u, ida), m), ida),
        eq_check("algebra_unit_right", Formula((ida, u), m), ida),
    ]


def verify_coalgebra(a: Coalgebra) -> list[CheckResult]:
    d, e = a.delta.mat, a.eps.mat
    ida = Matrix.identity(a.dim)
    return [
        eq_check("coalgebra_coassociativity", Formula(d, (d, ida)), Formula(d, (ida, d))),
        eq_check("coalgebra_counit_left", Formula(d, (e, ida)), ida),
        eq_check("coalgebra_counit_right", Formula(d, (ida, e)), ida),
    ]


def verify_bialgebra(a: BraidedBialgebra) -> list[CheckResult]:
    """Algebra + coalgebra axioms, morphism validity, braided compatibility."""
    m, u, d, e = a.m.mat, a.u.mat, a.delta.mat, a.eps.mat
    ida = Matrix.identity(a.dim)
    c = a.braiding()
    checks = verify_algebra(a) + verify_coalgebra(a)
    for name, mor in (("m", a.m), ("u", a.u), ("delta", a.delta), ("eps", a.eps)):
        checks.append(merge_checks(f"morphism_{name}", a.backend.morphism_report(mor)))
    checks.append(eq_check("bialgebra_compatibility",
                           Formula(m, d),
                           Formula((d, d), (ida, c, ida), (m, m))))
    checks.append(eq_check("unit_comultiplicative", compose(u, d), kron(u, u)))
    checks.append(eq_check("counit_multiplicative", Formula(m, e), kron(e, e)))
    checks.append(eq_check("counit_of_unit", compose(u, e), Matrix.identity(1)))
    return checks


def verify_bialgebra_map(f: Matrix, src: BraidedBialgebra, dst: BraidedBialgebra,
                         names: tuple[str, str, str, str]) -> list[CheckResult]:
    """f: src -> dst multiplicative, unital, comultiplicative and counital,
    in that order, under the caller's four names."""
    mult, unit, comult, counit = names
    return [
        eq_check(mult, Formula(src.m.mat, f), Formula((f, f), dst.m.mat)),
        eq_check(unit, compose(src.u.mat, f), dst.u.mat),
        eq_check(comult, compose(f, dst.delta.mat), Formula(src.delta.mat, (f, f))),
        eq_check(counit, compose(f, dst.eps.mat), src.eps.mat),
    ]


def verify_antipode(h: HopfAlgebra) -> list[CheckResult]:
    """Antipode axiom plus both anti-homomorphism identities."""
    m, u, d, e, s = h.m.mat, h.u.mat, h.delta.mat, h.eps.mat, h.s.mat
    ida = Matrix.identity(h.dim)
    c = h.braiding()
    ue = compose(e, u)
    axiom = merge_checks("antipode_axiom", [
        eq_check("left", Formula(d, (s, ida), m), ue),
        eq_check("right", Formula(d, (ida, s), m), ue),
    ])
    return [
        axiom,
        eq_check("antipode_anti_multiplicative", Formula(m, s), Formula(c, (s, s), m)),
        eq_check("antipode_anti_comultiplicative", compose(s, d), Formula(d, c, (s, s))),
    ]


def is_cocommutative(a: BraidedBialgebra) -> bool:
    return a.braiding() * a.delta.mat == a.delta.mat


def solve_total_integral(h: BraidedBialgebra) -> Matrix | None:
    """Solve (B (x) lam) Delta = u lam and lam u = 1 exactly for lam: B -> 1.

    Both conditions are affine-linear in the dim(B) unknowns of lam; among
    the solution set the particular solution with zero free coordinates is
    returned as a 1 x dim(B) matrix, or None when the system is inconsistent.
    """
    n, idb = h.dim, Matrix.identity(h.dim)
    d, u = h.delta.mat, h.u.mat
    particular, _ = solve_affine(*map_system(1, n, [
        (lambda lam: pipeline(d, (idb, lam)), lambda lam: compose(lam, u)),
        (lambda lam: compose(u, lam), lambda lam: Matrix.identity(1)),
    ]))
    return None if particular is None else Matrix.from_rows([particular])


def build_cosep_section(h: HopfAlgebra, lam: Matrix) -> Matrix:
    """The section theta(x (x) y) = lam(x S(y1)) y2 of the comultiplication."""
    m, d, s = h.m.mat, h.delta.mat, h.s.mat
    idb = Matrix.identity(h.dim)
    lam_m = compose(m, lam)
    return pipeline((idb, d), (idb, s, idb), (lam_m, idb))


def integral_from_section(h: HopfAlgebra, theta: Matrix) -> Matrix:
    """Recover lam = eps theta (B (x) u) from a coseparability section."""
    return pipeline((Matrix.identity(h.dim), h.u.mat), theta, h.eps.mat)


def verify_cosep_section(h: HopfAlgebra, theta: Matrix) -> list[CheckResult]:
    """Bicolinearity, the section property, right B-linearity, and the
    two-sided expression for theta itself."""
    m, d, s = h.m.mat, h.delta.mat, h.s.mat
    idb = Matrix.identity(h.dim)
    c = h.braiding()
    lam = integral_from_section(h, theta)
    lam_m = compose(m, lam)
    rhs_two_sided = Formula((d, idb), (idb, idb, s), (idb, lam_m))
    delta_theta = pipeline(theta, d)
    return [
        eq_check("two_sided_expression", build_cosep_section(h, lam), rhs_two_sided),
        eq_check("left_colinear", delta_theta, Formula((d, idb), (idb, theta))),
        eq_check("right_colinear", delta_theta, Formula((idb, d), (theta, idb))),
        eq_check("section_of_delta", compose(d, theta), idb),
        # the (B(x)B)(x)B module structure, then theta
        eq_check("right_linear", Formula((idb, idb, d), (idb, c, idb), (m, m), theta),
                 Formula((theta, idb), m)),
    ]


def full_axiom_report(a: BraidedBialgebra) -> list[CheckResult]:
    checks = verify_bialgebra(a)
    if isinstance(a, HopfAlgebra):
        checks += verify_antipode(a)
    return checks

