"""Structure-constant (co)algebras, bialgebras and Hopf algebras.

``Coalgebra`` is the base record, extended by ``BraidedBialgebra`` (m, u)
and ``HopfAlgebra`` (s); ``make_coalgebra`` and ``make_bialgebra`` build
them from matrices.  Axiom status is always computed, never assumed:
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
so the two verdicts agree.

The same certificate decides an identity f(ax) = f(a) * f(x) that is
multiplicative in one argument.  T = {a : f(ax) = f(a) * f(x) for all x} is
a subspace, and when m and * are associative it is closed under m:
f((ab)x) = f(a(bx)) = f(a) * (f(b) * f(x)) = (f(a) * f(b)) * f(x) = f(ab) * f(x).
So S in T gives T = A.  These checks are decided on S:

* ``bialgebra_compatibility``: f = Delta, * the braided product
  (m (x) m)(1 (x) c (x) 1) on A (x) A;
* ``counit_multiplicative``: f = eps, * the product of the field;
* ``antipode_anti_multiplicative``: f the antipode s, a * b = m c (a (x) b),
  read as s(ax) = m (s (x) s) c (a (x) x).  Over a grading alone c scales
  two basis vectors by a sign of their degrees and the words in S are
  homogeneous (m preserves degrees), so the closure step holds word by word;
  over a group action it needs s to commute with the action, so that T is
  stable under it;
* ``right_linear`` of ``verify_cosep_section``, in its B argument b:
  theta((x (x) y) Delta(b)) = theta(x (x) y) b.

The reduction is used only when these pass on the same operands; otherwise
the full scan decides:

* ``algebra_associativity`` and ``morphism_m``: the braided products are
  associative only when m is and the braiding is natural for m;
* for ``right_linear``, also ``bialgebra_compatibility``, so that
  B (x) B is a right B-module through Delta;
* the carrier's object checks, without which c is no braiding over a
  group action (a graded carrier has one O(n) check, a plain one none);
  for the antipode, also s commuting with the action.

``_certificate`` alone decides these preconditions: it returns S, or None
for the full scan, and None at once when S is the whole basis.  Otherwise
it reads, each up to the first failure, the identities (lhs, rhs, stride)
it is given at the columns of S, then the verdicts it is given, then the
carrier's object verdicts.  Its callers: ``_bialgebra`` gives it the
reported associativity and morphism_m, and ``full_axiom_report`` hands the
certificate to ``verify_antipode`` (a bare call runs the full scan);
``verify_cosep_section``, which reports no axiom check, gives it
associativity and compatibility as identities and m's morphism verdicts;
``weakproj._module_certificate`` gives it B's associativity and A's right
B-module identity, for the system of ``weakproj.search_weak_projection``.
Nothing is kept across calls.

Both scans read the whole identity, built once as a ``Formula`` per side,
at the columns ``_columns_in`` names (``Matrix.first_difference``'s column
selector), so a witness keeps its column number in the full identity.  When
the identity fails on S, first at column j, the full scan's witness is the
first failure among the columns before j whose argument is outside S, or
else j's (``_decide``): no column is read twice, and none after j.
The ``mult`` check of ``verify_bialgebra_map`` is not reduced: it would need
the associativity verdicts of both algebras, |S| n^2 columns each, where the
full scan reads n^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, takewhile
from typing import Iterable, Iterator

from .category import Backend, CatObject, Morphism, Verdicts, holds
from .linalg import (Formula, Matrix, compose, generating_set, kron, map_system, pipeline,
                     solve_affine)
from .report import CheckResult, difference_check, eq_check, merge_checks


@dataclass(repr=False)
class Coalgebra:
    """Bare coalgebra data, enough for coradical and wedge computations."""
    backend: Backend
    carrier: CatObject
    delta: Morphism      # A -> A (x) A
    eps: Morphism        # A -> 1

    @property
    def dim(self) -> int:
        return self.carrier.dim


@dataclass(repr=False)
class BraidedBialgebra(Coalgebra):
    """A coalgebra with a product m and unit u."""

    m: Morphism          # A (x) A -> A
    u: Morphism          # 1 -> A

    def braiding(self) -> Matrix:
        return self.backend.braiding_mat(self.carrier, self.carrier)


@dataclass(repr=False)
class HopfAlgebra(BraidedBialgebra):
    """A bialgebra with an antipode s."""

    s: Morphism          # A -> A


def make_coalgebra(backend: Backend, carrier: CatObject, delta: Matrix, eps: Matrix) -> Coalgebra:
    """The coalgebra A with Delta: A -> A (x) A and eps: A -> 1, A the carrier."""
    return Coalgebra(backend, carrier, Morphism(carrier, backend.tensor(carrier, carrier), delta),
                     Morphism(carrier, backend.unit(), eps))


def make_bialgebra(backend: Backend, carrier: CatObject,
                   m: Matrix, u: Matrix, delta: Matrix, eps: Matrix,
                   s: Matrix | None = None):
    co = make_coalgebra(backend, carrier, delta, eps)
    args = (backend, carrier, co.delta, co.eps,
            Morphism(co.delta.cod, carrier, m), Morphism(co.eps.cod, carrier, u))
    if s is None:
        return BraidedBialgebra(*args)
    return HopfAlgebra(*args, Morphism(carrier, carrier, s))


def _columns_in(picks: list[int], n: int, stride: int, cols: int) -> Iterator[int]:
    """The column numbers, ascending, of an identity with cols columns whose
    index in a tensor slot of dimension n and stride `stride` is in picks
    (ascending).  On A^(x)k, slot i has stride n^(k - 1 - i)."""
    for hi in range(0, cols, n * stride):
        for x in picks:
            first = hi + x * stride
            yield from range(first, first + stride)


def _decide(name: str, lhs: Formula, rhs: Formula, stride: int, n: int,
            gens: list[int] | None) -> CheckResult:
    """lhs == rhs, an identity multiplicative in the tensor slot of dimension
    n and stride `stride`, decided on gens with the fallback of the module
    docstring; with gens None (or the whole basis), by the full scan."""
    if gens is None or len(gens) == n:
        return eq_check(name, lhs, rhs)
    diff = Matrix.first_difference(lhs, rhs, _columns_in(gens, n, stride, lhs.cols))
    if diff is not None:
        rest = [x for x in range(n) if x not in gens]
        j = diff[1]
        before = takewhile(lambda k: k < j, _columns_in(rest, n, stride, lhs.cols))
        diff = Matrix.first_difference(lhs, rhs, before) or diff
    return difference_check(name, diff)


def _associativity(m: Matrix) -> tuple[Formula, Formula, int]:
    ida = Matrix.identity(m.rows)
    return Formula((m, ida), m), Formula((ida, m), m), m.rows ** 2


def _compatibility(a: BraidedBialgebra, c: Matrix) -> tuple[Formula, Formula, int]:
    m, d = a.m.mat, a.delta.mat
    ida = Matrix.identity(a.dim)
    return Formula(m, d), Formula((d, d), (ida, c, ida), (m, m)), a.dim


def _certificate(a: BraidedBialgebra, gens: list[int],
                 identities: Iterable[tuple[Formula, Formula, int]],
                 verdicts: Verdicts) -> list[int] | None:
    """gens when they are not the whole basis of a and the preconditions
    hold, read in order up to the first failure: each identity (lhs, rhs,
    stride) at the columns of gens, the verdicts, then a's object verdicts;
    else None."""
    n = a.dim
    if len(gens) == n:
        return None
    agree = all(Matrix.first_difference(lhs, rhs, _columns_in(gens, n, stride, lhs.cols)) is None
                for lhs, rhs, stride in identities)
    return gens if agree and holds(chain(verdicts, a.backend.object_verdicts(a.carrier))) else None


def associativity_check(m: Matrix, gens: list[int]) -> CheckResult:
    """(xy)z = x(yz), decided on the generating set gens of m (module
    docstring)."""
    return _decide("algebra_associativity", *_associativity(m), m.rows, gens)


def verify_algebra(a: BraidedBialgebra, gens: list[int]) -> list[CheckResult]:
    m, u = a.m.mat, a.u.mat
    ida = Matrix.identity(a.dim)
    return [
        associativity_check(m, gens),
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


def _bialgebra(a: BraidedBialgebra) -> tuple[list[CheckResult], list[int] | None]:
    """The checks of ``verify_bialgebra`` and their certificate, the
    generating set of a.m when associativity and morphism_m pass (else None),
    on which compatibility and counit multiplicativity are decided."""
    m, u, e = a.m.mat, a.u.mat, a.eps.mat
    gens = generating_set(m)
    algebra = verify_algebra(a, gens)
    morphisms = [merge_checks(f"morphism_{name}", a.backend.morphism_report(mor))
                 for name, mor in (("m", a.m), ("u", a.u), ("delta", a.delta), ("eps", a.eps))]
    certified = _certificate(a, gens, (), ((c.name, c.witness) for c in (algebra[0], morphisms[0])))
    return algebra + verify_coalgebra(a) + morphisms + [
        _decide("bialgebra_compatibility", *_compatibility(a, a.braiding()), a.dim, certified),
        eq_check("unit_comultiplicative", compose(u, a.delta.mat), kron(u, u)),
        _decide("counit_multiplicative", Formula(m, e), Formula((e, e)), a.dim, a.dim, certified),
        eq_check("counit_of_unit", compose(u, e), Matrix.identity(1)),
    ], certified


def verify_bialgebra(a: BraidedBialgebra) -> list[CheckResult]:
    """Algebra + coalgebra axioms, morphism validity, braided compatibility."""
    return _bialgebra(a)[0]


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


def verify_antipode(h: HopfAlgebra, *, certified: list[int] | None = None) -> list[CheckResult]:
    """Antipode axiom plus both anti-homomorphism identities.

    certified: the generating set of h.m when the certificate's
    preconditions hold (module docstring); anti-multiplicativity is then
    decided on it, and otherwise by the full scan.
    """
    m, u, d, e, s = h.m.mat, h.u.mat, h.delta.mat, h.eps.mat, h.s.mat
    ida = Matrix.identity(h.dim)
    c = h.braiding()
    ue = compose(e, u)
    if h.carrier.action is not None and any(s * g != g * s for g in h.carrier.action):
        certified = None
    axiom = merge_checks("antipode_axiom", [
        eq_check("left", Formula(d, (s, ida), m), ue),
        eq_check("right", Formula(d, (ida, s), m), ue),
    ])
    return [
        axiom,
        _decide("antipode_anti_multiplicative", Formula(m, s), Formula(c, (s, s), m), h.dim,
                h.dim, certified),
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
    two-sided expression for theta itself.

    Right B-linearity is decided on the generating set of h.m when its
    preconditions hold (module docstring): morphism_m, and associativity and
    compatibility on that set, decided here and reported nowhere.
    """
    m, d, s = h.m.mat, h.delta.mat, h.s.mat
    idb = Matrix.identity(h.dim)
    c = h.braiding()
    lam = integral_from_section(h, theta)
    lam_m = compose(m, lam)
    rhs_two_sided = Formula((d, idb), (idb, idb, s), (idb, lam_m))
    delta_theta = pipeline(theta, d)
    certified = _certificate(h, generating_set(m), (_associativity(m), _compatibility(h, c)),
                             h.backend.morphism_verdicts(h.m))
    return [
        eq_check("two_sided_expression", build_cosep_section(h, lam), rhs_two_sided),
        eq_check("left_colinear", delta_theta, Formula((d, idb), (idb, theta))),
        eq_check("right_colinear", delta_theta, Formula((idb, d), (theta, idb))),
        eq_check("section_of_delta", compose(d, theta), idb),
        # the (B(x)B)(x)B module structure, then theta
        _decide("right_linear", Formula((idb, idb, d), (idb, c, idb), (m, m), theta),
                Formula((theta, idb), m), 1, h.dim, certified),
    ]


def full_axiom_report(a: BraidedBialgebra) -> list[CheckResult]:
    checks, certified = _bialgebra(a)
    if isinstance(a, HopfAlgebra):
        checks += verify_antipode(a, certified=certified)
    return checks
