import pytest

from contexts import h4_c2, s3_c2
from braidhopf.builders import (cyclic_group, group_algebra, s3_group,
                                sweedler_h4, symmetric_group)
from braidhopf.category import CatObject, Morphism, SUPER
from braidhopf.filtration import (b_adic_filtration, check_magnum_preconditions, coradical,
                                  full_subobject, quotient_projection, subspace_contains,
                                  wedge)
from braidhopf.hopf import Coalgebra
from braidhopf.linalg import Matrix
from braidhopf.weakproj import search_weak_projection, verify_weak_projection


def all_pass(checks):
    return all(c.status == "pass" for c in checks)


def by_name(checks):
    return {c.name: c for c in checks}


def sub(alg, cols):
    n = alg.dim
    return Matrix.from_cols(n, cols)


def spans_same(a, b):
    return subspace_contains(a, b) and subspace_contains(b, a)


@pytest.fixture(scope="module")
def h4():
    return sweedler_h4()


@pytest.fixture(scope="module")
def ks3():
    return group_algebra(s3_group())


# -- quotients and wedges -------------------------------------------------------

def test_quotient_projection_kills_the_subobject(h4):
    # unit vectors, skew embeddings, the zero subobject and the whole space
    for cols in ([(1, 0, 0, 0), (0, 1, 0, 0)], [(1, 1, 0, 0), (0, 0, 1, 2)],
                 [(2, 0, -1, 1)], [(1, 1, 1, 1), (1, -1, 0, 0), (0, 0, 1, -1)],
                 [], [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]):
        s = sub(h4, cols)
        q = quotient_projection(s)
        assert (q.rows, q.cols) == (4 - s.cols, 4)
        assert q * s == Matrix.from_entries(q.rows, s.cols, ())
        assert q.rank() == 4 - s.cols


def test_wedge_of_everything_is_everything(h4):
    full = full_subobject(h4.carrier)
    assert wedge(full, full, h4).cols == 4


def test_wedge_grouplikes_in_h4_is_everything(h4):
    b = sub(h4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert wedge(b, b, h4).cols == 4


def test_wedge_c2_in_s3_stays_c2(ks3):
    b = sub(ks3, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)])
    w = wedge(b, b, ks3)
    assert w.cols == 2
    assert spans_same(w, b)


def test_wedge_with_a_skew_embedding():
    # a subobject basis that is not made of unit vectors: span{1+g} in kC2
    kc2 = group_algebra(cyclic_group(2))
    skew = sub(kc2, [(1, 1)])
    w = wedge(skew, skew, kc2)
    assert w.cols == 1
    # the quotient kills 1+g, and (q (x) q)Delta annihilates exactly 1-g
    assert w == Matrix.from_cols(2, [(-1, 1)])


def test_wedge_is_monotone_when_y_contains_unit(h4, ks3):
    for alg, cols in ((h4, [(1, 0, 0, 0), (0, 1, 0, 0)]),
                      (ks3, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)])):
        x = sub(alg, cols)
        w = wedge(x, x, alg)
        assert subspace_contains(w, x)


# -- the filtration ----------------------------------------------------------------

def test_b_adic_h4(h4):
    b = sub(h4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    # the last dim is dim h4: the filtration exhausts h4
    assert b_adic_filtration(h4, b) == (2, 4)


def test_b_adic_s3(ks3):
    b = sub(ks3, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)])
    # stuck at 2 < 6 = dim kS3: not exhaustive
    assert b_adic_filtration(ks3, b) == (2, 2)


def test_b_adic_full(h4):
    assert b_adic_filtration(h4, full_subobject(h4.carrier)) == (4,)


def test_b_adic_rejects_non_subcoalgebra(h4):
    bad = sub(h4, [(0, 0, 1, 0)])   # span{x} is not a subcoalgebra
    assert b_adic_filtration(h4, bad) is None


# -- coradical ----------------------------------------------------------------------

def test_coradical_of_group_algebra_is_everything(ks3):
    assert coradical(ks3).cols == 6
    assert coradical(group_algebra(symmetric_group(4))).cols == 24


def test_coradical_of_h4_is_the_group_part(h4):
    cor = coradical(h4)
    assert cor.cols == 2
    assert spans_same(cor, Matrix.from_cols(4, [(1, 0, 0, 0), (0, 1, 0, 0)]))


def test_coradical_of_upper_triangular_coalgebra():
    # basis e11, e12, e22 with the comatrix comultiplication
    delta = Matrix.from_entries(9, 3, [
        (0 * 3 + 0, 0, 1),            # e11 -> e11 (x) e11
        (0 * 3 + 1, 1, 1),            # e12 -> e11 (x) e12 + e12 (x) e22
        (1 * 3 + 2, 1, 1),
        (2 * 3 + 2, 2, 1),            # e22 -> e22 (x) e22
    ])
    eps = Matrix.from_rows([[1, 0, 1]])
    from braidhopf.category import VEC
    carrier = CatObject(3)
    co = Coalgebra(VEC, carrier,
                   Morphism(carrier, VEC.tensor(carrier, carrier), delta),
                   Morphism(carrier, VEC.unit(), eps))
    cor = coradical(co)
    assert cor.cols == 2
    assert spans_same(cor, Matrix.from_cols(3, [(1, 0, 0), (0, 0, 1)]))


def test_coradical_unsupported_outside_vec():
    from braidhopf.builders import exterior_line
    with pytest.raises(ValueError, match="^coradical is computed in the Vec backend only$"):
        coradical(exterior_line(SUPER))


def ut2_coalgebra():
    from braidhopf.category import VEC
    carrier = CatObject(3)
    delta = Matrix.from_entries(9, 3, [(0, 0, 1), (1, 1, 1), (5, 1, 1), (8, 2, 1)])
    eps = Matrix.from_rows([[1, 0, 1]])
    return Coalgebra(VEC, carrier,
                     Morphism(carrier, VEC.tensor(carrier, carrier), delta),
                     Morphism(carrier, VEC.unit(), eps))


def test_coradical_is_a_subcoalgebra_with_golden_wedge(h4, ks3):
    from braidhopf.filtration import is_subcoalgebra
    # (member, dim of wedge(coradical, coradical)); H4's group part wedges
    # up to everything, the cosemisimple members stay put, and the single
    # nontrivial comatrix entry of ut2 dies in the diagonal quotient
    golden = [(group_algebra(cyclic_group(2)), 2), (ks3, 6), (h4, 4),
              (ut2_coalgebra(), 3)]
    for member, expected in golden:
        cor = coradical(member)
        assert is_subcoalgebra(member, cor)
        assert wedge(cor, cor, member).cols == expected


# -- the existence preconditions -------------------------------------------------------

def test_magnum_preconditions_h4():
    a, b, sigma, _ = h4_c2()
    checks = by_name(check_magnum_preconditions(a, b, sigma))
    for name in ("b_has_antipode", "b_total_integral", "filtration_exhaustive",
                 "coradical_inside_b"):
        assert checks[name].status == "pass", name
    # and the conclusion is corroborated by an actual search
    result = search_weak_projection(a, b, sigma)
    assert result.pi is not None
    assert all_pass(verify_weak_projection(a, b, sigma, result.pi))


def test_magnum_preconditions_s3_fail_as_expected():
    a, b, sigma, _ = s3_c2()
    checks = by_name(check_magnum_preconditions(a, b, sigma))
    assert checks["b_has_antipode"].status == "pass"
    assert checks["b_total_integral"].status == "pass"
    assert checks["filtration_exhaustive"].status == "fail"
    assert checks["coradical_inside_b"].status == "fail"


def test_magnum_preconditions_trivial():
    a = group_algebra(cyclic_group(3))
    sigma = Morphism(a.carrier, a.carrier, Matrix.identity(3))
    assert all_pass(check_magnum_preconditions(a, a, sigma))
