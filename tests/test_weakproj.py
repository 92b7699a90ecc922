from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contexts import h4_c2, s3_c2, s3_c3, trivial, write_context
from braidhopf.builders import (conjugation_yd_object, cyclic_group, group_algebra,
                                s3_group, sweedler_h4)
from braidhopf.category import CatObject, Morphism
from braidhopf.hopf import associativity_check, verify_coalgebra
from braidhopf import linalg, weakproj
from braidhopf.cli import dispatch
from braidhopf.linalg import (Matrix, compose, generating_set, map_system, pipeline,
                              solve_affine)
from braidhopf.report import ConstructionFailed, bool_check
from braidhopf.weakproj import (build_context, compute_diagram,
                                pi_affine_conditions, projection_operators, run_bd_suite,
                                search_weak_projection, structure_report,
                                verify_weak_projection, _subobject)


def all_pass(checks):
    return all(c.status == "pass" for c in checks)


def by_name(checks):
    return {c.name: c for c in checks}


def corrupt_morphism(mor, i, j, value):
    return Morphism(mor.dom, mor.cod,
                    mor.mat + Matrix.from_entries(mor.mat.rows, mor.mat.cols, [(i, j, value)]))


# -- verification --------------------------------------------------------------

@pytest.mark.parametrize("ctx", [h4_c2, s3_c2, s3_c3])
def test_weak_projection_verifies(ctx):
    assert all_pass(verify_weak_projection(*ctx()))


def test_degenerate_pi_is_rejected():
    a, b, sigma, _ = h4_c2()
    # pi = u_B eps_A is a coalgebra map but not a retraction of sigma
    pi = Morphism(a.carrier, b.carrier, compose(a.eps.mat, b.u.mat))
    checks = by_name(verify_weak_projection(a, b, sigma, pi))
    assert checks["pi_section_of_sigma"].status == "fail"


# -- operators -------------------------------------------------------------------

def test_trivial_context_operators():
    a = group_algebra(cyclic_group(3))
    _, _, sigma, pi = trivial(a)
    _, p2 = projection_operators(a, a, sigma, pi)
    assert compose(pi.mat, sigma.mat) == Matrix.identity(3)     # Pi1
    assert p2 == a.u.mat * a.eps.mat


def test_h4_pi2_frozen():
    a, b, sigma, pi = h4_c2()
    _, p2 = projection_operators(a, b, sigma, pi)
    # 1 -> 1, g -> 1, x -> x, gx -> -x
    expected = Matrix.from_entries(4, 4, [(0, 0, 1), (0, 1, 1), (2, 2, 1), (2, 3, -1)])
    assert p2 == expected
    assert p2.rank() == 2


def test_s3_pi2_rank():
    a, b, sigma, pi = s3_c2()
    _, p2 = projection_operators(a, b, sigma, pi)
    assert p2.rank() == 3


# -- the identity suite ------------------------------------------------------------

@pytest.mark.parametrize("make", [h4_c2, s3_c2])
def test_bd_suite_passes(make):
    checks = by_name(run_bd_suite(*make()))
    for name in ("pi1_idempotent", "pi1_multiplicative", "bd1", "bd2", "bd3",
                 "bd4", "bd5", "bd6", "unit_projected", "counit_projected", "bd12"):
        assert checks[name].status == "pass", name
    assert checks["bd13"].status == "pass"
    # the printed right-hand side has the factors the other way around
    assert checks["bd13_printed_rhs"].status == "fail"
    assert checks["bd13_printed_rhs"].informational


def test_bd_suite_catches_corrupted_sigma():
    a, b, sigma, pi = h4_c2()
    bad_sigma = corrupt_morphism(sigma, 0, 1, 1)   # sigma(g) = g + 1
    checks = by_name(run_bd_suite(a, b, bad_sigma, pi))
    assert checks["bd2"].status == "fail"
    assert checks["bd2"].witness == "(1,1):lhs=1:rhs=0"


# -- the diagram -------------------------------------------------------------------

def diagram(a, b, sigma, pi):
    return compute_diagram(a, b, pi, projection_operators(a, b, sigma, pi)[1])


def test_h4_diagram():
    a, b, sigma, pi = h4_c2()
    r_obj, include, project = diagram(a, b, sigma, pi)
    assert r_obj.dim == 2
    # coinvariants are spanned by 1 and x
    assert include == Matrix.from_entries(4, 2, [(0, 0, 1), (2, 1, 1)])


def test_s3_diagram():
    a, b, sigma, pi = s3_c2()
    r_obj, include, project = diagram(a, b, sigma, pi)
    assert r_obj.dim == 3
    assert include == Matrix.from_entries(6, 3, [(0, 0, 1), (1, 1, 1), (2, 2, 1)])


def test_trivial_diagram_is_unit():
    a = group_algebra(cyclic_group(2))
    r_obj, include, project = diagram(*trivial(a))
    assert r_obj.dim == 1
    assert include == a.u.mat


@pytest.mark.parametrize("make", [h4_c2, s3_c2, s3_c3])
def test_context_splitting_facts(make):
    ctx = build_context(*make())
    assert all_pass(structure_report(ctx))
    assert ctx.r_dim * ctx.b.dim == ctx.a.dim


def test_split_failure_on_broken_pi():
    a, b, sigma, pi = h4_c2()
    bad_pi = corrupt_morphism(pi, 0, 2, 1)   # pi(x) = e breaks everything
    with pytest.raises(ConstructionFailed,
                       match="^image of Pi2 is not contained in the coinvariants$"):
        diagram(a, b, sigma, bad_pi)


def at_unit(k):
    """The endomorphism of kC2 that scales the unit e by k and fixes g."""
    return Matrix.from_entries(2, 2, [(0, 0, k), (1, 1, 1)])


@pytest.mark.parametrize("k", [2, -1, 0])
@pytest.mark.parametrize("moved", ["antipode", "sigma"])
def test_split_failure_when_p_i_is_not_the_identity(moved, k):
    a, b, sigma, pi = h4_c2()
    if moved == "antipode":
        b = replace_map(b, "s", b.s.mat * at_unit(k))
    else:
        sigma = Morphism(sigma.dom, sigma.cod, sigma.mat * at_unit(k))
    with pytest.raises(ConstructionFailed, match=r"^p\*i is not the identity on R$"):
        diagram(a, b, sigma, pi)


def test_the_cli_reports_p_i_not_the_identity_as_a_failed_split(tmp_path):
    a, b, _, pi = h4_c2()
    b = replace_map(b, "s", b.s.mat * at_unit(2))
    files = write_context(tmp_path, ("h4", ("one", "g", "x", "gx"), a),
                          ("c2_in_h4", ("one", "g"), b), pi)
    code, report, error = dispatch(["weakproj", "diagram", *files])
    assert (code, error) == (1, None)
    assert report.render("machine").splitlines()[1:] == [
        "check=diagram_split status=fail witness=p*i_is_not_the_identity_on_R", "overall=fail"]


@pytest.mark.parametrize("ambient, emb, message", [
    # v_0 + v_1 mixes the even and the odd degree
    (CatObject(2, grading=(0, 1)), Matrix.from_cols(2, [(1, 1)]), "not homogeneous"),
    # conjugation moves the transposition t = v_3 to the other two
    (conjugation_yd_object(s3_group()), Matrix.from_entries(6, 1, [(3, 0, 1)]),
     "not action-invariant"),
], ids=["grading", "action"])
def test_subobject_that_inherits_no_structure_is_a_split_failure(ambient, emb, message):
    with pytest.raises(ConstructionFailed, match=message):
        _subobject(ambient, emb)


# -- derived structure maps ---------------------------------------------------------

def test_h4_structure_maps_frozen():
    ctx = build_context(*h4_c2())
    mp = ctx.maps
    # R = span{1, x} is an exterior line
    assert mp.mul == Matrix.from_entries(2, 4, [(0, 0, 1), (1, 1, 1), (1, 2, 1)])
    assert mp.unit == Matrix.from_entries(2, 1, [(0, 0, 1)])
    assert mp.comul == Matrix.from_entries(4, 2, [(0, 0, 1), (1, 1, 1), (2, 1, 1)])
    assert mp.counit == Matrix.from_rows([[1, 0]])
    # left coaction is not trivial: x goes to g (x) x
    assert mp.coact_left == Matrix.from_entries(4, 2, [(0, 0, 1), (3, 1, 1)])
    # g acts on x by -1 from the left, by +1 from the right
    assert mp.act_left.entry(1, 1 * 2 + 1) == -1
    act_right = pipeline((ctx.include, ctx.sigma.mat), ctx.a.m.mat, ctx.project)
    assert act_right.entry(1, 1 * 2 + 1) == 1


def test_xi_trivial_values():
    from braidhopf.products import xi_is_trivial
    assert xi_is_trivial(build_context(*h4_c2()))
    assert xi_is_trivial(build_context(*s3_c2()))


def test_counit_of_unit_on_r():
    for make in (h4_c2, s3_c2):
        ctx = build_context(*make())
        assert compose(ctx.maps.unit, ctx.maps.counit) == Matrix.identity(1)


def test_r_is_a_coalgebra():
    from braidhopf.weakproj import r_coalgebra
    ctx = build_context(*s3_c2())
    assert all_pass(verify_coalgebra(r_coalgebra(ctx)))


# -- searching for pi -----------------------------------------------------------------

@pytest.mark.parametrize("ctx", [h4_c2, s3_c2, s3_c3])
def test_known_pi_solves_the_system_built_from_the_shared_conditions(ctx):
    a, b, sigma, pi = ctx()
    conditions = pi_affine_conditions(a, b, sigma)
    assert [name for name, _, _ in conditions] == [
        c.name for c in verify_weak_projection(a, b, sigma, pi)[-3:]]
    system, rhs = map_system(b.dim, a.dim, [(lhs, rhs) for _, lhs, rhs in conditions])
    # unknown k is pi[k // dim A, k % dim A]: the search reshapes candidates the same way
    vec_pi = Matrix.from_cols(b.dim * a.dim, [[pi.mat.entry(k // a.dim, k % a.dim)
                                               for k in range(b.dim * a.dim)]])
    assert system * vec_pi == Matrix.from_cols(system.rows, [rhs])


def test_search_finds_canonical_pi_h4():
    a, b, sigma, pi = h4_c2()
    result = search_weak_projection(a, b, sigma)
    assert result.pi is not None
    assert result.pi.mat == pi.mat
    assert by_name(result.checks)["linear_system_solvable"].value == "family_dim=1"


def test_search_finds_verified_pi_s3():
    # the affine family here is 2-dimensional and contains several genuine
    # weak projections; the search must return a fully verified member
    a, b, sigma, pi = s3_c2()
    result = search_weak_projection(a, b, sigma)
    assert result.pi is not None
    assert by_name(result.checks)["linear_system_solvable"].value == "family_dim=2"
    assert all_pass(verify_weak_projection(a, b, sigma, result.pi))


class CountingKernel(list):
    """A kernel basis that counts the vectors iteration draws from it."""
    drawn = 0

    def __iter__(self):
        for h in super().__iter__():
            self.drawn += 1
            yield h


@pytest.mark.parametrize("k", [1, 2, 3, None])
def test_the_search_builds_each_candidate_when_it_tries_it(monkeypatch, k):
    # s3_c2's family is 2-dimensional, so there are three candidates; the k-th
    # passes a stand-in verification (None: none does)
    kernels, tried = [], []
    solve = weakproj.solve_affine

    def counted(*args):
        particular, hom = solve(*args)
        kernels.append(CountingKernel(hom))
        return particular, kernels[-1]

    def verify(a, b, sigma, pi):
        tried.append(pi)
        return [bool_check("stand_in", len(tried) == k)]

    monkeypatch.setattr(weakproj, "solve_affine", counted)
    monkeypatch.setattr(weakproj, "verify_weak_projection", verify)
    result = search_weak_projection(*s3_c2()[:3])
    [kernel] = kernels
    assert len(kernel) == 2
    if k is None:
        assert (len(tried), kernel.drawn) == (3, 2)
        assert by_name(result.checks)["candidate_verified"].witness == "tried=3"
    else:
        assert (len(tried), kernel.drawn) == (k, k - 1)
        assert result.pi is tried[-1]


def test_search_reports_unsolvable_system(monkeypatch):
    a = sweedler_h4()
    b = group_algebra(cyclic_group(2))
    # sigma sending both basis vectors to 1 is not even injective
    sigma = Morphism(b.carrier, a.carrier,
                     Matrix.from_entries(4, 2, [(0, 0, 1), (0, 1, 1)]))
    eliminate, calls = linalg._eliminate, []

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    result = search_weak_projection(a, b, sigma)
    # the rank witness comes from the same elimination as the solve
    assert len(calls) == 1
    assert result.pi is None
    assert [(c.name, c.status, c.witness) for c in result.checks] == [
        ("linear_system_solvable", "fail", "rank=8:unknowns=8")]


# -- right B-linearity on the generating set of B ----------------------------------
# search_weak_projection writes pi(a sigma(b)) = pi(a) b for b in
# generating_set(m_B) only, when m_B is associative and A is a right B-module
# through sigma; otherwise for every b.

def replace_map(alg, name, mat):
    old = getattr(alg, name)
    return replace(alg, **{name: Morphism(old.dom, old.cod, mat)})


def bump(mat, i, j, value):
    return mat + Matrix.from_entries(mat.rows, mat.cols, [(i, j, value)])


def solved(a, b, sigma, gens):
    conditions = pi_affine_conditions(a, b, sigma, gens)
    return solve_affine(*map_system(b.dim, a.dim, [(lhs, rhs) for _, lhs, rhs in conditions]))


def system_rows(monkeypatch, a, b, sigma):
    """The row count of each system map_system builds in the search."""
    rows = []

    def recorded(*args):
        system = map_system(*args)
        rows.append(system[0].rows)
        return system

    monkeypatch.setattr(weakproj, "map_system", recorded)
    search_weak_projection(a, b, sigma)
    return rows


def full_rows(a, b):
    """pi_counital, pi_right_linear for every b, pi_section_of_sigma."""
    return a.dim + b.dim * a.dim * b.dim + b.dim * b.dim


@st.composite
def perturbed_contexts(draw):
    """h4_c2, s3_c2 or s3_c3 with one entry of sigma, m_A or m_B moved."""
    a, b, sigma, _ = draw(st.sampled_from([h4_c2, s3_c2, s3_c3]))()
    which = draw(st.sampled_from(["sigma", "m_a", "m_b"]))
    mat = {"sigma": sigma.mat, "m_a": a.m.mat, "m_b": b.m.mat}[which]
    moved = bump(mat, draw(st.integers(0, mat.rows - 1)), draw(st.integers(0, mat.cols - 1)),
                 draw(st.sampled_from([1, -1, 2, Fraction(1, 2)])))
    if which == "sigma":
        sigma = Morphism(sigma.dom, sigma.cod, moved)
    elif which == "m_a":
        a = replace_map(a, "m", moved)
    else:
        b = replace_map(b, "m", moved)
    return a, b, sigma


@given(perturbed_contexts())
@settings(max_examples=60, deadline=None)
def test_the_certified_reduced_system_solves_like_the_full_one(ctx):
    a, b, sigma = ctx
    gens = weakproj._module_certificate(a, b, sigma)
    if gens is not None:
        assert solved(a, b, sigma, gens) == solved(a, b, sigma, None)
    with mock.patch.object(weakproj, "_module_certificate", return_value=None):
        full = search_weak_projection(a, b, sigma)
    assert search_weak_projection(a, b, sigma) == full


@pytest.mark.parametrize("ctx", [h4_c2, s3_c2, s3_c3])
def test_the_library_contexts_are_certified_and_solve_a_smaller_system(monkeypatch, ctx):
    a, b, sigma, _ = ctx()
    gens = weakproj._module_certificate(a, b, sigma)
    assert gens == generating_set(b.m.mat) and len(gens) < b.dim
    # moving a product x y of m_A with y outside sigma(B) keeps the certificate
    image = {i for col in sigma.mat.columns() for i in col}
    outside = next(j for j in range(a.dim * a.dim) if j % a.dim not in image)
    assert weakproj._module_certificate(replace_map(a, "m", bump(a.m.mat, 0, outside, 1)),
                                        b, sigma) == gens
    reduced = a.dim + b.dim * a.dim * len(gens) + b.dim * b.dim
    assert system_rows(monkeypatch, a, b, sigma) == [reduced]


def test_a_non_associative_m_b_builds_the_full_system(monkeypatch):
    a, b, sigma, _ = s3_c3()
    # g1 g1 = g2 + e: (g1 g1) g2 = g1 + g2 but g1 (g1 g2) = g1
    b = replace_map(b, "m", bump(b.m.mat, 0, 1 * 3 + 1, 1))
    assert associativity_check(b.m.mat, generating_set(b.m.mat)).status == "fail"
    assert len(generating_set(b.m.mat)) < b.dim
    assert system_rows(monkeypatch, a, b, sigma) == [full_rows(a, b)]


def test_a_broken_module_identity_builds_the_full_system(monkeypatch):
    a, b, sigma, _ = s3_c3()
    # t c = c^2 t moved to c^2 t + e: (t sigma(g1)) sigma(g1) != t sigma(g2)
    a = replace_map(a, "m", bump(a.m.mat, 0, 3 * 6 + 1, 1))
    ida = Matrix.identity(a.dim)
    assert associativity_check(b.m.mat, generating_set(b.m.mat)).status == "pass"
    assert (pipeline((ida, sigma.mat, sigma.mat), (a.m.mat, ida), a.m.mat)
            != pipeline((ida, b.m.mat), (ida, sigma.mat), a.m.mat))
    assert system_rows(monkeypatch, a, b, sigma) == [full_rows(a, b)]
