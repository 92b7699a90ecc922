"""Property tests for the structural invariants that hold on whole families."""

import os
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_category import verify_braiding_axioms
from braidhopf.builders import (conjugation_yd_object, cyclic_group, exterior_line,
                                group_algebra, s3_group, sweedler_h4, symmetric_group)
from braidhopf.category import CatObject, Morphism, SUPER, VEC, YetterDrinfeldBackend, holds
from braidhopf.filtration import b_adic_filtration, coradical
from braidhopf.hopf import (Coalgebra, associativity_check, build_cosep_section,
                            full_axiom_report, generating_set, is_cocommutative, make_bialgebra,
                            solve_total_integral, verify_cosep_section)
from braidhopf.linalg import Formula, Matrix, kernel_basis, kron
from braidhopf.report import eq_check
from braidhopf.textio import parse_algebra_file


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
    assert holds(backend.object_verdicts(obj))
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
    # so it exhausts kG only when H = G
    assert b_adic_filtration(alg, emb) == (d, d)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None)
def test_flip_braiding_matches_kron_transpose_rule(dx, dy):
    x, y = CatObject(dx), CatObject(dy)
    c = VEC.braiding_mat(x, y)
    a = Matrix.from_rows([[Fraction(i + 2 * j + 1) for j in range(dx)] for i in range(dx)])
    b = Matrix.from_rows([[Fraction(3 * i + j + 2) for j in range(dy)] for i in range(dy)])
    # naturality of the flip: c (a (x) b) = (b (x) a) c
    assert c * kron(a, b) == kron(b, a) * c


# -- associativity on a generating set equals the full scan ---------------------

def assert_reduced_equals_full(m):
    """The generating-set verdict is the n^3 scan's, witness bytes included."""
    ida = Matrix.identity(m.rows)
    full = eq_check("algebra_associativity", Formula((m, ida), m), Formula((ida, m), m))
    assert associativity_check(m, generating_set(m)) == full
    return full


def product_from(n, coeffs):
    """The product with e_i e_j = sum_k coeffs[(i * n + j) * n + k] e_k."""
    return Matrix.from_entries(n, n * n, ((c % n, c // n, v) for c, v in enumerate(coeffs) if v))


@st.composite
def random_products(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    coeffs = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=n ** 3,
                           max_size=n ** 3))
    return product_from(n, coeffs)


@given(random_products())
@settings(max_examples=200, deadline=None)
def test_reduced_associativity_equals_the_full_scan_on_random_products(m):
    assert_reduced_equals_full(m)


# e11, e12, e22: upper-triangular 2 x 2 matrices
UT2 = Matrix.from_entries(3, 9, [(0, 0, 1), (1, 1, 1), (1, 5, 1), (2, 8, 1)])
ASSOCIATIVE = [group_algebra(cyclic_group(3)).m.mat, sweedler_h4().m.mat, UT2]


@st.composite
def changed_bases(draw):
    m = draw(st.sampled_from(ASSOCIATIVE))
    n = m.rows
    # the identity keeps the sparse basis, where the first failures of the
    # reduced and the full identity lie in different columns
    p = draw(st.just(Matrix.identity(n)) | st.builds(Matrix.from_rows, st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
    p_inv = p.inverse()
    assume(p_inv is not None)
    # x . y = P^-1 m(Px (x) Py): the same algebra in the basis P e_1, ..., P e_n
    changed = p_inv * (m * kron(p, p))
    entry = draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, n * n - 1),
                                       st.sampled_from([1, -1, Fraction(1, 3)])))
    if entry is not None:
        changed = changed + Matrix.from_entries(n, n * n, [entry])
    return changed, entry is None


@given(changed_bases())
@settings(max_examples=100, deadline=None)
def test_reduced_associativity_equals_the_full_scan_after_a_change_of_basis(case):
    m, unperturbed = case
    full = assert_reduced_equals_full(m)
    if unperturbed:
        assert full.status == "pass"


@st.composite
def nilpotent_products(draw):
    # e_i e_j lies in the span of e_k, k > max(i, j): nilpotent, without unit,
    # and associative or not
    n = draw(st.integers(min_value=1, max_value=4))
    coeffs = [draw(st.sampled_from([0, 1, -1, 2])) if k > max(i, j) else 0
              for i in range(n) for j in range(n) for k in range(n)]
    return product_from(n, coeffs)


@given(nilpotent_products())
@settings(max_examples=100, deadline=None)
def test_reduced_associativity_equals_the_full_scan_on_nilpotent_products(m):
    assert_reduced_equals_full(m)


def left_normed_word_rank(m, gens):
    """sympy's rank of the left-normed words e_s, e_s e_t, (e_s e_t) e_u, ...
    in gens, without the package's echelon.

    A word is kept when it raises the rank of the words kept so far, and
    only kept words are multiplied further: a word in their span is a
    combination of kept words, and so is its product with any e_s.
    """
    sympy = pytest.importorskip("sympy")
    n = m.rows
    prods = sympy.Matrix(n, n * n, lambda i, j: sympy.Rational(m.entry(i, j).numerator,
                                                                 m.entry(i, j).denominator))
    kept = []
    todo = [sympy.eye(n)[:, s] for s in gens]
    while todo:
        word = todo.pop()
        if sympy.Matrix.hstack(*kept, word).rank() > len(kept):
            kept.append(word)
            todo += [sum((word[x] * prods[:, x * n + s] for x in range(n)), sympy.zeros(n, 1))
                     for s in gens]
    return len(kept)


@given(random_products() | nilpotent_products() | changed_bases().map(lambda case: case[0]))
@settings(max_examples=200, deadline=None)
def test_the_left_normed_words_in_the_generating_set_span_the_algebra(m):
    assert left_normed_word_rank(m, generating_set(m)) == m.rows


@given(random_products() | nilpotent_products() | changed_bases().map(lambda case: case[0]))
@settings(max_examples=100, deadline=None)
def test_generating_set_leaves_the_product_unchanged(m):
    """generating_set reduces the products of m it computes in place, so
    none of them may be a stored column of m."""
    copy = Matrix(m.rows, m.cols, [dict(c) for c in m.columns()])
    generating_set(m)
    assert m == copy


@given(st.integers(min_value=1, max_value=4))
@settings(max_examples=4, deadline=None)
def test_the_zero_product_needs_the_whole_basis(n):
    m = Matrix(n, n * n, [{} for _ in range(n * n)])
    assert generating_set(m) == list(range(n))
    assert assert_reduced_equals_full(m).status == "pass"


def tensor_cube(m):
    """The product of A (x) A (x) A, factor by factor: (x y z)(x' y' z') = xx' yy' zz'."""
    n = m.rows
    prods = list(m.columns())
    entries = []
    for a, b, c in ((a, b, c) for a in range(n * n) for b in range(n * n) for c in range(n * n)):
        (x, x2), (y, y2), (z, z2) = divmod(a, n), divmod(b, n), divmod(c, n)
        col = ((x * n + y) * n + z) * n ** 3 + (x2 * n + y2) * n + z2
        entries += [((i * n + j) * n + k, col, u * v * w) for i, u in prods[a].items()
                    for j, v in prods[b].items() for k, w in prods[c].items()]
    return Matrix.from_entries(n ** 3, n ** 6, entries)


def renamed(m, perm):
    """The product m with basis vector j renamed perm[j]."""
    n = m.rows
    return Matrix.from_entries(n, n * n, ((perm[i], perm[xy // n] * n + perm[xy % n], v)
                                          for xy, col in enumerate(m.columns())
                                          for i, v in col.items()))


# (product, |S|): one generator of C32; two 4-cycles from different cyclic
# subgroups of S4; g and x in each factor of h4 (x) h4 (x) h4
GENERATED = [(group_algebra(cyclic_group(32)).m.mat, 1),
             (group_algebra(symmetric_group(4)).m.mat, 2),
             (tensor_cube(sweedler_h4().m.mat), 6)]


@given(st.sampled_from(GENERATED).flatmap(
    lambda case: st.tuples(st.just(case), st.permutations(range(case[0].rows)))))
@settings(max_examples=30, deadline=None)
def test_renaming_the_basis_keeps_the_size_of_the_generating_set(case):
    (m, size), perm = case
    assert len(generating_set(renamed(m, perm))) == size


# -- identities multiplicative in one argument: on S equals the full scan -------

def yd_group_algebra(group):
    """kG in YD(G), v_g of degree g and h acting by conjugation.  For S3 the
    certificate's preconditions hold, and both compatibility and
    anti-multiplicativity fail, so their witnesses come from the fallback."""
    alg = group_algebra(group)
    return make_bialgebra(YetterDrinfeldBackend(group), conjugation_yd_object(group), alg.m.mat,
                          alg.u.mat, alg.delta.mat, alg.eps.mat, alg.s.mat)


SMALL_HOPF = [group_algebra(cyclic_group(2)), group_algebra(cyclic_group(3)),
              group_algebra(s3_group()), sweedler_h4(), exterior_line(SUPER),
              yd_group_algebra(s3_group())]


def some_section(h):
    """The coseparability section of h's integral, or of its counit when it has none."""
    lam = solve_total_integral(h)
    return build_cosep_section(h, h.eps.mat if lam is None else lam)


@st.composite
def perturbed_hopf(draw):
    """(h, theta) with at most one entry of m, Delta, S or theta changed."""
    h = draw(st.sampled_from(SMALL_HOPF))
    maps = {"m": h.m.mat, "delta": h.delta.mat, "s": h.s.mat, "theta": some_section(h)}
    which = draw(st.sampled_from([None, "m", "delta", "s", "theta"]))
    if which is not None:
        mat = maps[which]
        entry = (draw(st.integers(0, mat.rows - 1)), draw(st.integers(0, mat.cols - 1)),
                 draw(st.sampled_from([1, -1, Fraction(1, 3)])))
        maps[which] = mat + Matrix.from_entries(mat.rows, mat.cols, [entry])
    alg = make_bialgebra(h.backend, h.carrier, maps["m"], h.u.mat, maps["delta"],
                         h.eps.mat, maps["s"])
    return alg, maps["theta"]


@given(perturbed_hopf())
@settings(max_examples=200, deadline=None)
def test_identities_decided_on_the_generating_set_equal_the_full_scan(case):
    """Each check the certificate can reduce equals its full scan, witness included."""
    h, theta = case
    m, d, e, s = h.m.mat, h.delta.mat, h.eps.mat, h.s.mat
    ida, c = Matrix.identity(h.dim), h.braiding()
    full = [
        eq_check("algebra_associativity", Formula((m, ida), m), Formula((ida, m), m)),
        eq_check("bialgebra_compatibility", Formula(m, d), Formula((d, d), (ida, c, ida), (m, m))),
        eq_check("counit_multiplicative", Formula(m, e), kron(e, e)),
        eq_check("antipode_anti_multiplicative", Formula(m, s), Formula(c, (s, s), m)),
    ]
    reported = {check.name: check for check in full_axiom_report(h)}
    assert [reported[check.name] for check in full] == full
    right_linear = eq_check("right_linear", Formula((ida, ida, d), (ida, c, ida), (m, m), theta),
                            Formula((theta, ida), m))
    assert verify_cosep_section(h, theta)[-1] == right_linear


# -- coradical: the trace form from Delta's stored entries is the dense one ------

def dense_coradical(a):
    """The coradical with the trace form read entry by entry: n^3 reads of Delta."""
    n, d = a.dim, a.delta.mat
    traces = [sum((d.entry(i * n + j, j) for j in range(n)), 0) for i in range(n)]
    tform = [[sum((d.entry(i * n + j, k) * traces[k] for k in range(n)), 0)
              for j in range(n)] for i in range(n)]
    rad = kernel_basis(Matrix.from_rows(tform).transpose())
    if not rad:
        return Matrix.identity(n)
    return Matrix.from_cols(n, kernel_basis(Matrix.from_rows([list(v) for v in rad])))


with open(os.path.join(os.path.dirname(__file__), "..", "corpus", "algebras", "ut2.alg"),
          encoding="utf-8") as fh:
    UT2_COALGEBRA = parse_algebra_file(fh.read()).algebra
# cosemisimple ones, and two with a radical: h4 and ut2 (coradical dim 2 each)
COALGEBRAS = [group_algebra(cyclic_group(1)), group_algebra(cyclic_group(3)),
              group_algebra(s3_group()), sweedler_h4(), UT2_COALGEBRA]


@st.composite
def coalgebras_in_new_bases(draw):
    """(a, the coalgebra a is a change of basis of)."""
    c = draw(st.sampled_from(COALGEBRAS))
    n = c.dim
    p = draw(st.just(Matrix.identity(n)) | st.builds(Matrix.from_rows, st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
    p_inv = p.inverse()
    assume(p_inv is not None)
    # Delta'(x) = (P^-1 (x) P^-1) Delta(P x): the same coalgebra in the basis P e_1, ..., P e_n
    delta = kron(p_inv, p_inv) * (c.delta.mat * p)
    a = Coalgebra(VEC, c.carrier, Morphism(c.carrier, c.delta.cod, delta),
                  Morphism(c.carrier, c.eps.cod, c.eps.mat * p))
    return a, c


def random_comultiplications():
    """Vec coalgebra data whose Delta is dual to a random product and whose
    counit is zero: the trace form is defined for any Delta, and on one that
    is not coassociative it need not be symmetric."""
    def data(m):
        obj = CatObject(m.rows)
        return Coalgebra(VEC, obj, Morphism(obj, VEC.tensor(obj, obj), m.transpose()),
                         Morphism(obj, VEC.unit(), Matrix.from_entries(1, m.rows, ())))
    return random_products().map(data)


@given(coalgebras_in_new_bases() | random_comultiplications().map(lambda a: (a, a)))
@settings(max_examples=200, deadline=None)
def test_coradical_equals_the_dense_trace_form_computation(case):
    a, c = case
    cor = coradical(a)
    assert cor == dense_coradical(a)
    assert cor.cols == coradical(c).cols
