"""Weak projections, the projector calculus, and the diagram of A.

Given a bialgebra A, a Hopf subalgebra B with inclusion sigma and a right
B-linear coalgebra retraction pi, this module builds the three canonical
endomorphisms of A, checks the whole identity suite they satisfy, splits
the coinvariant idempotent into (R, i, p) and derives the eight structure
maps everything downstream (cross products, matched pairs, smash products)
is made of.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .category import CatObject, Morphism
from .hopf import (BraidedBialgebra, Coalgebra, HopfAlgebra, _associativity, _certificate,
                   make_coalgebra, verify_bialgebra_map, verify_coalgebra)
from .linalg import (Formula, Matrix, compose, equalizer, generating_set, kron, map_system,
                     pipeline, solve_affine, solve_matrix)
from .report import (CheckResult, ConstructionFailed, bool_check, chain_eq_check,
                     eq_check, merge_checks, prefixed)


@dataclass(eq=False, repr=False)
class StructureMaps:
    """The eight maps derived from a weak projection context.

    mul/unit/comul/counit live on R; cocycle: R (x) R -> B;
    act_left: B (x) R -> R; coact_left: R -> B (x) R; act_b: B (x) R -> B.
    """
    mul: Matrix
    unit: Matrix
    comul: Matrix
    counit: Matrix
    cocycle: Matrix
    act_left: Matrix
    coact_left: Matrix
    act_b: Matrix


@dataclass(eq=False, repr=False)
class WeakProjectionContext:
    """A weak projection (sigma, pi) of A onto B, with its diagram R."""

    a: BraidedBialgebra
    b: HopfAlgebra
    sigma: Morphism
    pi: Morphism
    r_obj: CatObject
    include: Matrix      # i : R -> A
    project: Matrix      # p : A -> R
    maps: StructureMaps

    @property
    def r_dim(self) -> int:
        return self.r_obj.dim


def projection_operators(a: BraidedBialgebra, b: HopfAlgebra,
                         sigma: Morphism, pi: Morphism) -> tuple[Matrix, Matrix, Matrix]:
    """(Phi, Pi1, Pi2) by direct composition."""
    phi = compose(pi.mat, b.s.mat, sigma.mat)
    pi1 = compose(pi.mat, sigma.mat)
    ida = Matrix.identity(a.dim)
    pi2 = pipeline(a.delta.mat, (ida, phi), a.m.mat)
    return phi, pi1, pi2


def pi_affine_conditions(a: BraidedBialgebra, b: HopfAlgebra, sigma: Morphism,
                         gens: list[int] | None = None):
    """The identities on pi that are affine in pi, as (name, lhs, rhs) with
    each side a function of pi's matrix: eps_B pi = eps_A, right B-linearity
    and pi sigma = Id_B.  Given gens, basis indices of B, right B-linearity
    is written for b in gens only, through the inclusion J: span(gens) -> B
    in its B argument (``search_weak_projection`` says when that suffices)."""
    sm, idb = sigma.mat, Matrix.identity(b.dim)
    picks = range(b.dim) if gens is None else gens
    inc = Matrix.from_entries(b.dim, len(picks), [(s, k, 1) for k, s in enumerate(picks)])
    m_sig = pipeline((Matrix.identity(a.dim), compose(inc, sm)), a.m.mat)   # A (x) J -> A
    return [
        ("pi_counital", lambda x: compose(x, b.eps.mat), lambda x: a.eps.mat),
        ("pi_right_linear", lambda x: compose(m_sig, x), lambda x: pipeline((x, inc), b.m.mat)),
        ("pi_section_of_sigma", lambda x: compose(sm, x), lambda x: idb),
    ]


def verify_weak_projection(a: BraidedBialgebra, b: HopfAlgebra,
                           sigma: Morphism, pi: Morphism) -> list[CheckResult]:
    """sigma a bialgebra morphism, pi a right B-linear coalgebra retraction."""
    sm, pm = sigma.mat, pi.mat
    return [
        merge_checks("sigma_valid_morphism", a.backend.morphism_report(sigma)),
        merge_checks("pi_valid_morphism", a.backend.morphism_report(pi)),
        *verify_bialgebra_map(sm, b, a, ("sigma_multiplicative", "sigma_unital",
                                         "sigma_comultiplicative", "sigma_counital")),
        eq_check("pi_comultiplicative", compose(pm, b.delta.mat), Formula(a.delta.mat, (pm, pm))),
        *(eq_check(name, lhs(pm), rhs(pm)) for name, lhs, rhs in pi_affine_conditions(a, b, sigma)),
    ]


def run_bd_suite(a: BraidedBialgebra, b: HopfAlgebra,
                 sigma: Morphism, pi: Morphism) -> list[CheckResult]:
    """The projector identity suite, strictified (unit constraints deleted).

    The last comparison is evaluated against both candidate right-hand
    sides; the ordering that the surrounding splitting argument needs is
    the counted check, the printed alternative is reported informationally.
    """
    phi, p1, p2 = projection_operators(a, b, sigma, pi)
    m, u, d, e = a.m.mat, a.u.mat, a.delta.mat, a.eps.mat
    ub, eb = b.u.mat, b.eps.mat
    ida = Matrix.identity(a.dim)
    c = a.braiding()
    sm, pm = sigma.mat, pi.mat

    bd13_mid = pipeline((p2, p1), m, d, (p2, p1))
    checks = [
        eq_check("pi1_idempotent", p1 * p1, p1),
        eq_check("pi1_multiplicative",
                 Formula((p1, p1), m), Formula((p1, p1), m, p1)),
        eq_check("bd1", compose(p2, d),
                 Formula(d, (ida, compose(d, c)), (ida, phi, p2), (m, ida))),
        eq_check("bd2", compose(p2, pm), compose(e, ub)),
        eq_check("bd3", p2 * p2, p2),
        chain_eq_check("bd4", [
            pipeline((ida, sm), m, p2),
            pipeline((ida, eb), p2),
            kron(p2, eb),
        ]),
        eq_check("bd5", Formula(p2, d, (ida, pm)), kron(p2, ub)),
        eq_check("bd6", Formula(d, (p2, p2)), Formula(p2, d, (p2, p2))),
        eq_check("unit_projected", compose(u, p1), u),
        eq_check("counit_projected", compose(p2, e), e),
        eq_check("bd12", Formula(d, (p2, p1), (p2, p1), m), ida),
        eq_check("bd13", bd13_mid, kron(p2, p1)),
        eq_check("bd13_printed_rhs", bd13_mid, kron(p1, p2), informational=True),
    ]
    return checks


def _subobject(ambient: CatObject, emb: Matrix) -> CatObject:
    """Object structure on a subspace; gradings must restrict column-wise."""
    grading = None
    if ambient.grading is not None:
        grading = []
        for j in range(emb.cols):
            degs = {ambient.grading[i] for i in emb.column(j)}
            if len(degs) != 1:
                raise ConstructionFailed("subobject basis column is not homogeneous")
            grading.append(degs.pop())
        grading = tuple(grading)
    action = None
    if ambient.action is not None:
        mats = []
        for g_act in ambient.action:
            restricted = solve_matrix(emb, g_act * emb)
            if restricted is None:
                raise ConstructionFailed("subobject is not action-invariant")
            mats.append(restricted)
        action = tuple(mats)
    return CatObject(emb.cols, grading=grading, action=action)


def compute_diagram(a: BraidedBialgebra, b: HopfAlgebra,
                    pi: Morphism, p2: Matrix) -> tuple[CatObject, Matrix, Matrix]:
    """(R, i, p): the coinvariant equalizer splitting the idempotent Pi2 = p2.

    Decides structure_report's split_ip (p solves i*p = Pi2 exactly) and
    split_pi (p*i = Id_R, so rank Pi2 = dim R), raising ConstructionFailed
    when either fails; some upstream axiom must then be violated.
    """
    ida = Matrix.identity(a.dim)
    f = pipeline(a.delta.mat, (ida, pi.mat))
    g = kron(ida, b.u.mat)
    include = equalizer(f, g)
    project = solve_matrix(include, p2)
    if project is None:
        raise ConstructionFailed("image of Pi2 is not contained in the coinvariants")
    if project * include != Matrix.identity(include.cols):
        raise ConstructionFailed("p*i is not the identity on R")
    r_obj = _subobject(a.carrier, include)
    return r_obj, include, project


def derive_structure_maps(a: BraidedBialgebra, sigma: Morphism, pi: Morphism,
                          include: Matrix, project: Matrix) -> StructureMaps:
    m, u, d, e = a.m.mat, a.u.mat, a.delta.mat, a.eps.mat
    i, p, sm, pm = include, project, sigma.mat, pi.mat
    return StructureMaps(
        mul=pipeline((i, i), m, p),
        unit=compose(u, p),
        comul=pipeline(i, d, (p, p)),
        counit=compose(i, e),
        cocycle=pipeline((i, i), m, pm),
        act_left=pipeline((sm, i), m, p),
        coact_left=pipeline(i, d, (pm, p)),
        act_b=pipeline((sm, i), m, pm),
    )


def build_context(a: BraidedBialgebra, b: HopfAlgebra,
                  sigma: Morphism, pi: Morphism) -> WeakProjectionContext:
    _, _, p2 = projection_operators(a, b, sigma, pi)
    r_obj, include, project = compute_diagram(a, b, pi, p2)
    maps = derive_structure_maps(a, sigma, pi, include, project)
    return WeakProjectionContext(a, b, sigma, pi, r_obj, include, project, maps)


def r_coalgebra(ctx: WeakProjectionContext) -> Coalgebra:
    return make_coalgebra(ctx.a.backend, ctx.r_obj, ctx.maps.comul, ctx.maps.counit)


def structure_report(ctx: WeakProjectionContext) -> list[CheckResult]:
    """Splitting facts for (R, i, p) plus the coalgebra axioms of R.

    split_ip (i*p = Pi2) and split_pi (p*i = Id_R) are decided by
    compute_diagram, whose ConstructionFailed is reported as diagram_split."""
    i = ctx.include
    checks = [
        CheckResult("split_ip", "pass"),
        CheckResult("split_pi", "pass"),
        bool_check("dim_product",
                   ctx.r_dim * ctx.b.dim == ctx.a.dim,
                   witness=f"dimR={ctx.r_dim}:dimB={ctx.b.dim}:dimA={ctx.a.dim}"),
        eq_check("pi_of_i", compose(i, ctx.pi.mat), compose(ctx.maps.counit, ctx.b.u.mat)),
    ]
    return checks + prefixed("r_", verify_coalgebra(r_coalgebra(ctx)))


@dataclass(repr=False)
class SearchResult:
    """The first candidate pi that passes, or None, and the search's checks."""

    pi: Morphism | None
    checks: tuple[CheckResult, ...]


def _module_certificate(a: BraidedBialgebra, b: HopfAlgebra, sigma: Morphism) -> list[int] | None:
    """S = generating_set(m_B) when m_B is associative and A is a right
    B-module through sigma, both decided for the last argument in S only
    (``search_weak_projection`` says why that suffices), by ``hopf``'s one
    certificate; None when either fails or S is the whole basis."""
    mb, ida = b.m.mat, Matrix.identity(a.dim)
    m_sig = pipeline((ida, sigma.mat), a.m.mat)   # A (x) B -> A
    module = Formula((m_sig, Matrix.identity(b.dim)), m_sig), Formula((ida, mb), m_sig), 1
    return _certificate(b, generating_set(mb), (_associativity(mb), module), ())


def search_weak_projection(a: BraidedBialgebra, b: HopfAlgebra,
                           sigma: Morphism) -> SearchResult:
    """Solve the affine part of the weak projection conditions, then test
    the quadratic coalgebra condition on finitely many candidates.

    The affine conditions are verify_weak_projection's list,
    pi_affine_conditions; linalg.map_system evaluates each once, on a pi of
    linear forms in its dim(B) x dim(A) row-major entries, for one exact
    system.  The particular solution is tried first, then the particular plus
    each homogeneous basis vector, each built only when it is tried; the
    first candidate passing the full verification is returned.  The search is
    a documented heuristic, not a decision procedure.

    Right B-linearity, pi(a sigma(b)) = pi(a) b, is written only for b in
    S = generating_set(m_B) when a certificate holds (Light's test, as in
    ``hopf``).  For any linear X: A -> B, T = {b : X(a sigma(b)) = X(a) b
    for all a} is a subspace, and for b, b' in T
    X(a sigma(bb')) = X((a sigma(b)) sigma(b')) = X(a sigma(b)) b'
    = (X(a) b) b' = X(a)(bb'), so T is closed under m_B and S in T gives
    T = B, provided

    * m_B is associative, decided on S;
    * A is a right B-module through sigma, (a sigma(b)) sigma(b') =
      a sigma(bb'), decided for b' in S.  With m_B associative the good b'
      form a subspace closed under m_B: (a sigma(b)) sigma(b'b'') =
      ((a sigma(b)) sigma(b')) sigma(b'') = (a sigma(bb')) sigma(b'') =
      a sigma((bb')b'').

    Both are read at the columns of S, reported nowhere, by ``hopf``'s
    ``_certificate``, which also reads B's object verdicts; when any fails
    (or S is the whole basis), every b is written.  Since the
    argument holds for every X, the reduced system has the full one's
    solutions and its homogeneous part the same kernel; the reduced row
    echelon form is unique, so the particular solution, the kernel basis and
    every candidate are the full system's.
    """
    na, nb = a.dim, b.dim
    system, target = map_system(nb, na, [(lhs, rhs) for _, lhs, rhs in pi_affine_conditions(
        a, b, sigma, _module_certificate(a, b, sigma))])
    particular, hom = solve_affine(system, target)
    if particular is None:
        checks = (bool_check("linear_system_solvable", False,
                             witness=f"rank={na * nb - len(hom)}:unknowns={na * nb}"),)
        return SearchResult(None, checks)

    solvable = bool_check("linear_system_solvable", True, value=f"family_dim={len(hom)}")
    for cand in chain([particular], (tuple(x + y for x, y in zip(particular, h)) for h in hom)):
        pi = Morphism(a.carrier, b.carrier,
                      Matrix.from_rows([cand[r * na:(r + 1) * na] for r in range(nb)]))
        verif = verify_weak_projection(a, b, sigma, pi)
        if all(c.status == "pass" for c in verif):
            return SearchResult(pi, (solvable, bool_check("candidate_verified", True), *verif))
    failed = bool_check("candidate_verified", False, witness=f"tried={1 + len(hom)}")
    return SearchResult(None, (solvable, failed))
