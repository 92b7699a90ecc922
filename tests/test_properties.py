"""Property tests for the structural invariants that hold on whole families."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from braidhopf.builders import cyclic_group, group_algebra
from braidhopf.category import (CatObject, SUPER, VEC, YetterDrinfeldBackend,
                                verify_braiding_axioms)
from braidhopf.filtration import b_adic_filtration, coradical
from braidhopf.hopf import full_axiom_report, is_cocommutative, solve_total_integral
from braidhopf.linalg import Matrix, kron


def all_pass(checks):
    return all(c.status == "pass" for c in checks)


group_orders = st.integers(min_value=1, max_value=6)
parities = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=4)


@given(group_orders)
@settings(max_examples=6, deadline=None)
def test_cyclic_group_algebras_pass_all_axioms(n):
    alg = group_algebra(cyclic_group(n))
    assert all_pass(full_axiom_report(alg))
    assert is_cocommutative(alg)


@given(group_orders)
@settings(max_examples=6, deadline=None)
def test_cyclic_group_algebras_have_the_identity_integral(n):
    group = cyclic_group(n)
    lam = solve_total_integral(group_algebra(group))
    assert lam is not None
    assert lam == Matrix.from_entries(1, n, [(0, group.identity, 1)])


@given(group_orders)
@settings(max_examples=6, deadline=None)
def test_group_algebras_are_their_own_coradical(n):
    alg = group_algebra(cyclic_group(n))
    assert coradical(alg).cols == n


@given(group_orders)
@settings(max_examples=6, deadline=None)
def test_integral_always_yields_a_valid_section(n):
    from braidhopf.hopf import build_cosep_section, verify_cosep_section
    alg = group_algebra(cyclic_group(n))
    theta = build_cosep_section(alg, solve_total_integral(alg))
    assert all_pass(verify_cosep_section(alg, theta))


@given(parities, parities)
@settings(max_examples=25, deadline=None)
def test_super_braiding_is_invertible_and_symmetric_on_even(gx, gy):
    x = CatObject(len(gx), grading=tuple(gx))
    y = CatObject(len(gy), grading=tuple(gy))
    c = SUPER.braiding_mat(x, y)
    assert c.inverse() == c.transpose()
    back = SUPER.braiding_mat(y, x)
    # c_{Y,X} c_{X,Y} acts by (-1)^{2|v||w|} = identity
    assert back * c == Matrix.identity(x.dim * y.dim)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1),
                          st.sampled_from([1, -1])),
                min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_yd_braiding_inverse_over_c2(data):
    # over an abelian group the action must preserve the grading, so any
    # diagonal +-1 involution together with any grading is a valid object
    g = cyclic_group(2)
    backend = YetterDrinfeldBackend(g)
    n = len(data)
    grading = tuple(d for d, _ in data)
    act_g = Matrix.from_entries(n, n, ((i, i, s) for i, (_, s) in enumerate(data)))
    obj = CatObject(n, grading=grading, action=(Matrix.identity(n), act_g))
    assert all_pass(backend.object_report(obj))
    checks = {c.name: c for c in verify_braiding_axioms(backend, obj, obj, obj)}
    assert checks["braiding_invertible"].status == "pass"


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=4))
@settings(max_examples=10, deadline=None)
def test_b_adic_on_subgroup_algebras_stabilizes_immediately(d, q):
    # kH inside kG for H < G: group algebras are cosemisimple, so the
    # filtration never grows
    n = d * q
    g = cyclic_group(n)
    alg = group_algebra(g)
    emb = Matrix.from_entries(n, d, ((i * q, i, 1) for i in range(d)))
    report = b_adic_filtration(alg, emb)
    assert report.dims == (d, d)
    assert report.exhaustive == (d == n)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None)
def test_flip_braiding_matches_kron_transpose_rule(dx, dy):
    x, y = CatObject(dx), CatObject(dy)
    c = VEC.braiding_mat(x, y)
    a = Matrix.from_rows([[Fraction(i + 2 * j + 1) for j in range(dx)] for i in range(dx)])
    b = Matrix.from_rows([[Fraction(3 * i + j + 2) for j in range(dy)] for i in range(dy)])
    # naturality of the flip: c (a (x) b) = (b (x) a) c
    assert c * kron(a, b) == kron(b, a) * c
