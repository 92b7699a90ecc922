from fractions import Fraction
from functools import reduce
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidhopf import hopf, linalg, weakproj
from braidhopf.builders import cyclic_group, group_algebra, s3_group, sweedler_h4
from braidhopf.linalg import (Formula, Matrix, ShapeMismatch, _frac, _Lin, compose,
                              equalizer, hstack, kernel_basis, kron, map_system, pipeline,
                              solve_affine, solve_matrix)
from braidhopf.report import CheckResult, eq_check
from braidhopf.weakproj import pi_affine_conditions
from contexts import h4_c2, s3_c2, s3_c3

F = Fraction


def mat(rows):
    return Matrix.from_rows(rows)


# -- strategies --------------------------------------------------------------

scalars = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def matrices(rows, cols):
    return st.lists(st.lists(scalars, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(Matrix.from_rows)


@st.composite
def systems(draw, square=False):
    """A matrix of random shape; half of them factor through a narrow middle,
    so rank deficiency is common."""
    rows, cols, mid = (draw(st.integers(1, 4)) for _ in range(3))
    if square:
        cols = rows
    if draw(st.booleans()):
        return draw(matrices(rows, mid)) * draw(matrices(mid, cols))
    return draw(matrices(rows, cols))


# -- basic arithmetic --------------------------------------------------------

def test_kron_identity():
    assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)


def test_kron_scalars():
    assert kron(mat([[2]]), mat([[3]])) == mat([[6]])


def test_kron_shape_and_corner():
    a = mat([[1, 2, 3], [4, 5, 6]])
    b = Matrix.from_rows([[F(1, 2)] * 5] * 4)
    k = kron(a, b)
    assert (k.rows, k.cols) == (8, 15)
    assert k.entry(0, 0) == a.entry(0, 0) * b.entry(0, 0)


@given(matrices(2, 3), matrices(2, 2), matrices(3, 2), matrices(2, 3))
@settings(max_examples=40)
def test_kron_mixed_product(a, b, c, d):
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_mul_shape_error():
    with pytest.raises(ShapeMismatch):
        mat([[1, 2]]) * mat([[1, 2]])


def test_transpose_roundtrip():
    a = mat([[1, 2, 3], [0, -1, 5]])
    assert a.transpose().transpose() == a


# -- kernels -----------------------------------------------------------------

def test_kernel_of_identity():
    assert kernel_basis(Matrix.identity(4)) == []


def test_kernel_of_zero():
    vs = kernel_basis(Matrix.from_entries(2, 2, ()))
    assert vs == [(F(1), F(0)), (F(0), F(1))]


def test_kernel_line():
    assert kernel_basis(mat([[1, 1]])) == [(F(-1), F(1))]


@given(matrices(3, 4))
@settings(max_examples=40)
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        col = Matrix.from_cols(4, [v])
        assert m * col == Matrix.from_entries(3, 1, ())


def test_kernel_determinism():
    m = mat([[1, 2, 3], [2, 4, 6]])
    assert kernel_basis(m) == kernel_basis(m)


# -- affine solving ----------------------------------------------------------

def test_solve_identity():
    sol = solve_affine(Matrix.identity(3), [1, 2, 3])
    assert sol == ((F(1), F(2), F(3)), [])


def test_solve_inconsistent():
    # no particular solution, and still the kernel of the coefficient matrix
    assert solve_affine(Matrix.from_entries(2, 2, ()), [1, 0]) == (None, [(1, 0), (0, 1)])


def test_solve_underdetermined():
    part, basis = solve_affine(mat([[1, 1]]), [1])
    assert part == (F(1), F(0))
    assert basis == [(F(-1), F(1))]


@given(matrices(3, 3), st.lists(scalars, min_size=3, max_size=3))
@settings(max_examples=40)
def test_solve_affine_is_solution(a, b):
    part, basis = solve_affine(a, b)
    if part is None:
        return
    col = Matrix.from_cols(3, [part])
    assert a * col == Matrix.from_cols(3, [tuple(b)])
    for h in basis:
        assert a * Matrix.from_cols(3, [h]) == Matrix.from_entries(3, 1, ())


# -- systems for an unknown map ----------------------------------------------

def int_matrices(rows, cols):
    return st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(Matrix.from_rows)


def row_major(m):
    return [m.entry(i, j) for i in range(m.rows) for j in range(m.cols)]


def reshape(vec, rows, cols):
    return Matrix.from_rows([vec[i * cols:(i + 1) * cols] for i in range(rows)])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_map_system_columns_are_the_conditions_on_basis_maps(data):
    """For X of shape r x c, four conditions (lhs, rhs): L X R = T1,
    (X (x) K) N = T2 and X + Q X P = T4 with constant right sides, and the
    affine L X R + C = L2 X R2.  X + Q X P reads X twice, so one form of X
    feeds two outputs of its left side.  The targets are drawn at random or
    made to hold at some X0."""
    r, c, s, t, kr, kc = (data.draw(st.integers(1, 3)) for _ in range(6))
    left, right = data.draw(int_matrices(s, r)), data.draw(int_matrices(c, t))
    left2, right2 = data.draw(int_matrices(s, r)), data.draw(int_matrices(c, t))
    k, n = data.draw(int_matrices(kr, kc)), data.draw(int_matrices(2, r * kr))
    q, p = data.draw(int_matrices(r, r)), data.draw(int_matrices(c, c))
    f1 = lambda x: compose(right, x, left)
    f2 = lambda x: pipeline((x, k), n)
    f3 = lambda x: compose(right2, x, left2)
    f4 = lambda x: x + compose(p, x, q)
    x0 = data.draw(int_matrices(r, c)) if data.draw(st.booleans()) else None
    if x0 is None:
        t1, t2 = data.draw(int_matrices(s, t)), data.draw(int_matrices(2, c * kc))
        const, t4 = data.draw(int_matrices(s, t)), data.draw(int_matrices(r, c))
    else:
        t1, t2, const, t4 = f1(x0), f2(x0), f3(x0) - f1(x0), f4(x0)
    conditions = [(f1, lambda x: t1), (f2, lambda x: t2), (lambda x: f1(x) + const, f3),
                  (f4, lambda x: t4)]
    system, rhs = map_system(r, c, conditions)

    assert (system, rhs) == map_system_by_basis_maps(r, c, conditions)
    assert (system.rows, system.cols) == (2 * s * t + 2 * c * kc + r * c, r * c)
    # the right-hand side is -d(0) with d = lhs - rhs
    assert rhs == row_major(t1) + row_major(t2) + row_major(-const) + row_major(t4)
    for col in range(r * c):
        e_k = Matrix.from_entries(r, c, [(col // c, col % c, 1)])
        # column k is d(E_k) - d(0): the constants drop out
        expected = (row_major(f1(e_k)) + row_major(f2(e_k)) + row_major(f1(e_k) - f3(e_k))
                    + row_major(f4(e_k)))
        assert [system.entry(i, col) for i in range(system.rows)] == expected

    part, basis = solve_affine(system, rhs)
    if x0 is not None:
        assert part is not None
    if part is None:
        return
    zero = Matrix.from_entries(r, c, ())
    for lhs, rhs_fn in conditions:
        assert lhs(reshape(part, r, c)) == rhs_fn(reshape(part, r, c))
        for h in basis:
            x = reshape(h, r, c)
            assert lhs(x) - lhs(zero) == rhs_fn(x) - rhs_fn(zero)


def test_map_system_on_a_constant_right_side_and_an_affine_left_side():
    # X is 1 x 2: X = [3, 4] has a constant right side, X + [1, 1] = 2 X an affine left side
    system, rhs = map_system(1, 2, [
        (lambda x: x, lambda x: mat([[3, 4]])),
        (lambda x: x + mat([[1, 1]]), lambda x: compose(x, mat([[2]]))),
    ])
    assert system == mat([[1, 0], [0, 1], [-1, 0], [0, -1]])
    assert rhs == [3, 4, -1, -1]


def entries(m):
    return [v for j in range(m.cols) for v in m.column(j).values()]


@given(int_matrices(2, 3), int_matrices(3, 2), int_matrices(2, 2))
@settings(max_examples=40)
def test_integer_input_keeps_int_entries(a, b, c):
    results = [a, Matrix.from_entries(2, 2, [(0, 0, 1), (0, 0, 2), (1, 1, F(6, 3))]),
               kron(a, b), a * b, pipeline(kron(c, c), (c, c), (a * b, c)), pipeline(b, a)]
    assert all(type(v) is int for m in results for v in entries(m))


def test_elimination_with_unit_pivots_keeps_int_entries():
    """Every pivot of these integer matrices is 1 or -1, so an echelon row
    led by -1 is negated rather than divided, and nothing becomes a Fraction."""
    a, c, b = mat([[-1, 2, 3], [0, 1, -4]]), mat([[-1, 2], [0, -1]]), mat([[1, 0], [2, 5]])
    inv, x = c.inverse(), solve_matrix(c, b)
    particular, kernel = solve_affine(a, [3, -2])
    assert c * inv == Matrix.identity(2) and c * x == b and kernel == kernel_basis(a)
    values = [*entries(inv), *entries(x), *particular, *(v for vec in kernel for v in vec)]
    assert len(values) == 13 and all(type(v) is int for v in values)


def test_frac_turns_an_integral_fraction_into_an_int():
    assert _frac(F(4, 2)) == 2 and type(_frac(F(4, 2))) is int
    assert type(_frac(True)) is int
    assert _frac(F(1, 2)) == F(1, 2)


def test_from_entries_keeps_an_integral_sum_int():
    got = Matrix.from_entries(1, 1, [(0, 0, F(1, 2))] * 2).entry(0, 0)
    assert got == 1 and type(got) is int
    with pytest.raises(TypeError):
        Matrix.from_entries(1, 1, [(0, 0, F(1, 2)), (0, 0, 0.5)])


def test_map_system_rejects_a_right_hand_side_of_the_wrong_shape():
    with pytest.raises(ShapeMismatch, match="left side is 2x2, right side is 2x3"):
        map_system(2, 2, [(lambda x: x, lambda x: Matrix.from_entries(2, 3, ()))])


def test_map_system_evaluates_each_side_once():
    calls = []

    def counted(name, f):
        return lambda x: calls.append(name) or f(x)

    a, b = mat([[1, 2], [0, 1]]), mat([[2, 0], [1, 1]])
    map_system(2, 2, [(counted("lhs1", lambda x: a * x), counted("rhs1", lambda x: x * b)),
                      (counted("lhs2", lambda x: x), counted("rhs2", lambda x: a))])
    assert sorted(calls) == ["lhs1", "lhs2", "rhs1", "rhs2"]


def test_map_system_rejects_a_condition_that_is_not_affine():
    with pytest.raises(TypeError):
        map_system(2, 2, [(lambda x: x * x, lambda x: Matrix.identity(2))])


forms = st.dictionaries(st.integers(-1, 3), scalars.filter(bool), max_size=4).map(_Lin)


def test_a_form_times_one_or_plus_zero_is_the_form_itself():
    x = _Lin({0: 2, 3: F(1, 2), -1: -1})
    assert x * 1 is x and 1 * x is x
    assert x + 0 is x and 0 + x is x


@given(forms, forms, scalars)
@settings(max_examples=60)
def test_no_form_arithmetic_changes_an_operand(x, y, s):
    """Forms are shared once x * 1 and x + 0 return x, so every operation
    must leave its operands' items, and their order, as they were."""
    before = list(x.items()), list(y.items())
    total, negated, scaled = x + y + s, -x, x * s
    assert [y + x + s, s + x + y, s * x] == [total, total, scaled]
    assert (list(x.items()), list(y.items())) == before
    summed = {k: x.get(k, 0) + y.get(k, 0) + (s if k == -1 else 0)
              for k in x.keys() | y.keys() | {-1}}
    assert total == {k: v for k, v in summed.items() if v}
    assert negated == {k: -v for k, v in x.items()}
    assert scaled == ({k: v * s for k, v in x.items()} if s else {})


def map_system_by_basis_maps(rows, cols, conditions):
    """The oracle: column k is d(E_k) - d(0) for the basis map E_k and the
    right-hand side is -d(0), with d = lhs - rhs evaluated on concrete
    matrices and its entries taken row-major."""
    def d(k=None):
        x = Matrix.from_entries(rows, cols, [] if k is None else [(k // cols, k % cols, 1)])
        return [v for lhs, rhs in conditions for v in row_major(lhs(x) - rhs(x))]

    d0 = d()
    columns = [[v - v0 for v, v0 in zip(d(k), d0)] for k in range(rows * cols)]
    return Matrix.from_cols(len(d0), columns), [-v for v in d0]


def test_map_system_matches_the_basis_map_construction_on_the_library_systems(monkeypatch):
    systems = []
    for ctx in (h4_c2, s3_c2, s3_c3):
        a, b, sigma, _ = ctx()
        # the full system, and the one search_weak_projection solves: right
        # B-linearity on the generating set of B only
        gens = weakproj._module_certificate(a, b, sigma)
        assert gens is not None
        for picks in (None, gens):
            systems.append((b.dim, a.dim, [(lhs, rhs) for _, lhs, rhs
                                           in pi_affine_conditions(a, b, sigma, picks)]))
    # the integral conditions are the ones solve_total_integral hands to map_system
    monkeypatch.setattr(hopf, "map_system", lambda *args: systems.append(args) or map_system(*args))
    for alg in (group_algebra(cyclic_group(2)), group_algebra(s3_group()), sweedler_h4()):
        hopf.solve_total_integral(alg)

    assert len(systems) == 9
    for rows, cols, conditions in systems:
        assert map_system(rows, cols, conditions) == map_system_by_basis_maps(rows, cols, conditions)


# -- idempotent splitting ----------------------------------------------------
# An idempotent e splits as e = i*p with p*i = 1 the way the diagram splits
# Pi2: i embeds the fixed points of e, and p solves i*p = e.

def split(e):
    i = equalizer(e, Matrix.identity(e.rows))
    return i, solve_matrix(i, e)


def test_split_identity():
    i, p = split(Matrix.identity(3))
    assert i == Matrix.identity(3) and p == Matrix.identity(3)


def test_split_zero():
    i, p = split(Matrix.from_entries(2, 2, ()))
    assert (i.rows, i.cols) == (2, 0)
    assert (p.rows, p.cols) == (0, 2)


def test_split_rank_one():
    e = mat([[1, 1], [0, 0]])
    i, p = split(e)
    assert i == mat([[1], [0]])
    assert p == mat([[1, 1]])
    assert i * p == e
    assert p * i == Matrix.identity(1)


@given(matrices(4, 2), matrices(2, 4))
@settings(max_examples=60)
def test_split_random_idempotents(a, b):
    ba = b * a
    if ba.rank() != 2:
        return
    e = a * ba.inverse() * b
    assert e * e == e
    i, p = split(e)
    assert i * p == e
    assert p * i == Matrix.identity(i.cols)


# -- equalizers --------------------------------------------------------------

def test_equalizer_of_equal_maps():
    f = mat([[1, 2], [3, 4]])
    assert equalizer(f, f) == Matrix.identity(2)


def test_equalizer_trivial():
    e = equalizer(Matrix.identity(2), Matrix.from_entries(2, 2, ()))
    assert (e.rows, e.cols) == (2, 0)


def test_equalizer_shape_error():
    with pytest.raises(ShapeMismatch):
        equalizer(Matrix.identity(2), Matrix.identity(3))


@given(matrices(3, 3), matrices(3, 3))
@settings(max_examples=40)
def test_equalizer_universal(f, g):
    m = equalizer(f, g)
    assert f * m == g * m
    # every column vector equalizing f and g lies in the span of m
    for v in kernel_basis(f - g):
        col = Matrix.from_cols(3, [v])
        assert hstack(m, col).rank() == m.rank()


# -- pipeline ----------------------------------------------------------------

def test_pipeline_matches_materialized():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    c = mat([[1, 1], [0, 1]])
    assert pipeline((a, b), (c, c)) == tensor_pair(c, c) * tensor_pair(a, b)


def tensor_pair(x, y):
    return kron(x, y)


def test_pipeline_with_plain_stage():
    a = mat([[1, 2], [3, 4]])
    b = mat([[5], [6]])
    assert pipeline(a, b.transpose() * a) == (b.transpose() * a) * a


def test_compose_order():
    a = mat([[1, 0], [1, 1]])
    b = mat([[0, 1], [1, 0]])
    assert compose(a, b) == b * a


def test_solve_matrix_roundtrip():
    a = mat([[1, 0], [0, 1], [1, 1]])
    b = a * mat([[2, 3], [4, 5]])
    x = solve_matrix(a, b)
    assert a * x == b


@given(matrices(2, 2), matrices(2, 2), matrices(2, 2))
@settings(max_examples=40)
def test_pipeline_factor_stage_equals_kron(a, b, c):
    lhs = pipeline((a, b), (c, c))
    rhs = kron(c, c) * kron(a, b)
    assert lhs == rhs


@given(matrices(2, 3), matrices(3, 2), matrices(2, 2))
@settings(max_examples=40)
def test_pipeline_three_factor_stage(a, b, c):
    assert pipeline((a, b, c)) == kron(kron(a, b), c)


@st.composite
def near_identities(draw, n):
    """An n-column factor that is not the identity but looks close to it: the
    identity with one diagonal entry 2, a permutation, the identity plus one
    off-diagonal entry, or a taller matrix whose top block is the identity."""
    kind = draw(st.sampled_from(["scaled", "taller"] +
                                (["permutation", "off_diagonal"] if n > 1 else [])))
    if kind == "scaled":
        i = draw(st.integers(0, n - 1))
        return Matrix.identity(n) + Matrix.from_entries(n, n, [(i, i, 1)])
    if kind == "permutation":
        shift = draw(st.integers(1, n - 1))
        return Matrix(n, n, [{(j + shift) % n: 1} for j in range(n)])
    if kind == "off_diagonal":
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        return Matrix.identity(n) + Matrix.from_entries(n, n, [(i, j, draw(scalars.filter(bool)))])
    return Matrix(n + draw(st.integers(1, 2)), n, [{j: 1} for j in range(n)])


def monomials(rows, cols):
    """A rows x cols matrix each of whose columns is empty or holds one entry
    (empty where the drawn value is 0)."""
    return st.lists(st.tuples(st.integers(0, rows - 1), scalars),
                    min_size=cols, max_size=cols).map(
        lambda col: Matrix.from_entries(rows, cols, [(i, j, v) for j, (i, v) in enumerate(col)]))


@st.composite
def factors(draw, cols, pool):
    """A factor with the given number of columns: random, identity (drawn
    twice as often, so that identities stand next to each other), near the
    identity, zero, monomial (each column empty or one entry, so that a
    column is carried as one entry through several stages before a random
    factor's column hands it to the dict path), or one drawn before (so that
    stages repeat factors)."""
    kind = draw(st.sampled_from(["random", "identity", "identity", "near_identity", "zero",
                                 "monomial", "repeat"]))
    if kind == "repeat" and pool.get(cols):
        return draw(st.sampled_from(pool[cols]))
    if kind == "identity":
        return Matrix.identity(cols)
    if kind == "near_identity":
        f = draw(near_identities(cols))
    elif kind == "monomial":
        f = draw(monomials(draw(st.sampled_from([2, 1, 3])), cols))
    else:
        rows = draw(st.sampled_from([2, 1, 3]))
        f = Matrix.from_entries(rows, cols, ()) if kind == "zero" else draw(matrices(rows, cols))
    pool.setdefault(cols, []).append(f)
    return f


def adapter(rows, cols):
    """A fixed plain stage: column j has 1 in row j % rows and -2 in row (j + 1) % rows."""
    return Matrix.from_entries(rows, cols, [e for j in range(cols)
                                            for e in ((j % rows, j, 1), ((j + 1) % rows, j, -2))])


@st.composite
def stage_lists(draw):
    """One to four drawn stages, each a plain matrix or a tuple of one to four
    factors with one to three columns each, so that 1x1 identities and runs of
    adjacent identities occur.  Where the dimension so far is not the domain
    of the next tuple stage, an adapter stage is inserted to map it there."""
    pool: dict = {}
    dim = None
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            dim = dim or draw(st.integers(1, 4))
            stage = draw(factors(dim, pool))
        else:
            col_dims = draw(st.lists(st.sampled_from([2, 1, 3]), min_size=1, max_size=4))
            if dim and dim != prod(col_dims):
                stages.append(adapter(prod(col_dims), dim))
            stage = tuple(draw(factors(d, pool)) for d in col_dims)
        stages.append(stage)
        dim = stage.rows if isinstance(stage, Matrix) else prod(f.rows for f in stage)
    return stages


def materialized(stages):
    """The oracle: each tuple stage formed by kron, the stages composed."""
    return compose(*[s if isinstance(s, Matrix) else reduce(kron, s) for s in stages])


@given(stage_lists())
@settings(max_examples=200, deadline=None)
def test_pipeline_equals_the_product_of_materialized_stages(stages):
    assert pipeline(*stages) == materialized(stages)


@st.composite
def perturbed(draw, stages):
    """The stages with one entry of one plain stage or factor changed by a
    nonzero amount; the formula's value may or may not change."""
    k = draw(st.integers(0, len(stages) - 1))
    parts = [stages[k]] if isinstance(stages[k], Matrix) else list(stages[k])
    f = draw(st.integers(0, len(parts) - 1))
    m = parts[f]
    i, j = draw(st.integers(0, m.rows - 1)), draw(st.integers(0, m.cols - 1))
    parts[f] = m + Matrix.from_entries(m.rows, m.cols, [(i, j, draw(scalars.filter(bool)))])
    return stages[:k] + [parts[0] if isinstance(stages[k], Matrix) else tuple(parts)] + stages[k + 1:]


def entry_scan(lhs, rhs):
    """The eq_check result read entry by entry, column-major."""
    for j in range(lhs.cols):
        for i in range(lhs.rows):
            a, b = lhs.entry(i, j), rhs.entry(i, j)
            if a != b:
                return CheckResult("x", "fail", witness=f"({i},{j}):lhs={a}:rhs={b}")
    return CheckResult("x", "pass")


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_eq_check_on_formulas_matches_pipeline_and_the_oracle(data):
    stages = data.draw(stage_lists())
    other = data.draw(perturbed(stages))
    lhs, rhs = materialized(stages), materialized(other)
    expected = eq_check("x", lhs, rhs)
    assert expected == entry_scan(lhs, rhs)
    assert eq_check("x", Formula(*stages), Formula(*other)) == expected
    assert eq_check("x", pipeline(*stages), pipeline(*other)) == expected
    assert eq_check("x", Formula(*stages), rhs) == expected
    assert eq_check("x", lhs, Formula(*other)) == expected
    f = Formula(*stages)
    assert (f.rows, f.cols, f.nnz) == (lhs.rows, lhs.cols, lhs.nnz)
    assert [f.column(j) for j in range(f.cols)] == [lhs.column(j) for j in range(lhs.cols)]


class Recording:
    """An iterator over js that records each number drawn from it."""

    def __init__(self, js):
        self.js, self.drawn = iter(js), []

    def __iter__(self):
        return self

    def __next__(self):
        self.drawn.append(next(self.js))
        return self.drawn[-1]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_first_difference_on_selected_columns_reads_only_them(data):
    stages = data.draw(stage_lists())
    other = data.draw(perturbed(stages))
    lhs, rhs = materialized(stages), materialized(other)
    js = sorted(data.draw(st.sets(st.integers(0, lhs.cols - 1))))
    # the oracle: the first differing entry among the columns js, column-major
    expected = next(((i, j, lhs.entry(i, j), rhs.entry(i, j)) for j in js
                     for i in range(lhs.rows) if lhs.entry(i, j) != rhs.entry(i, j)), None)
    for x, y in [(Formula(*stages), Formula(*other)), (lhs, Formula(*other)),
                 (Formula(*stages), rhs), (lhs, rhs)]:
        selector = Recording(js)
        assert Matrix.first_difference(x, y, selector) == expected
        # no number past the differing column's is drawn
        assert selector.drawn == (js if expected is None else js[:js.index(expected[1]) + 1])


def test_a_stage_takes_the_dict_path_with_the_value_the_column_reached_it_with():
    """Column 0 reaches the stage (a, b) as the one entry 5.  b's column,
    read first, is the one entry 3 and a's has two entries, so the stage
    applies the dict path to {0: 5}, not to the 15 it had built from b."""
    a, b = mat([[1], [2]]), mat([[3]])
    assert Formula(mat([[5]]), (a, b)).column(0) == {0: 15, 1: 30}
    assert pipeline(mat([[5]]), (a, b)) == kron(a, b) * mat([[5]])


def test_pipeline_needs_a_stage():
    with pytest.raises(ValueError, match="^pipeline needs at least one stage$"):
        pipeline()


class Unreadable:
    """Stands in for a matrix's columns; reading any of them fails the test."""

    def __getitem__(self, j):
        raise AssertionError("a column was read before the shapes were checked")

    def __iter__(self):
        raise AssertionError("a column was read before the shapes were checked")


def test_pipeline_checks_every_stage_shape_before_reading_a_column():
    a, b = Matrix.identity(2), mat([[1, 2], [3, 4]])
    c = kron(b, b)
    for m in (a, b, c):
        m._cols = Unreadable()
    with pytest.raises(ShapeMismatch, match="^stage expects domain 3, got 4$"):
        pipeline((a, b), c, Matrix.from_entries(1, 3, ()))


def test_formula_raises_the_pipeline_errors_before_reading_a_column():
    with pytest.raises(ValueError, match="^pipeline needs at least one stage$"):
        Formula()
    a, b = Matrix.identity(2), mat([[1, 2], [3, 4]])
    c = kron(b, b)
    for m in (a, b, c):
        m._cols = Unreadable()
    with pytest.raises(ShapeMismatch, match="^stage expects domain 3, got 4$"):
        Formula((a, b), c, Matrix.from_entries(1, 3, ()))


class Reads(tuple):
    """A matrix's stored columns, recording the index of each one read."""

    def __new__(cls, cols):
        self = super().__new__(cls, cols)
        self.read = []
        return self

    def __getitem__(self, j):
        self.read.append(j)
        return super().__getitem__(j)

    def __iter__(self):
        self.read.append("all")
        return super().__iter__()


def recorded(m):
    """A copy of m whose stored columns record each read."""
    copy = Matrix(m.rows, m.cols, m._cols)
    copy._cols = Reads(copy._cols)
    return copy


def test_building_a_formula_reads_no_factor_column(monkeypatch):
    # columns of one and of two entries, so a column takes the pair path
    # through a tuple stage for some j and the dict path for others
    m, ida = mat([[1, 0, F(1, 2), 1], [0, 2, 0, -1]]), Matrix.identity(2)
    dict_path = []
    apply = linalg._apply_compiled

    def counted(compiled, vec):
        dict_path.append(vec)
        return apply(compiled, vec)

    monkeypatch.setattr(linalg, "_apply_compiled", counted)
    rec, plain = recorded(m), recorded(m)
    cases = [(Formula((rec, ida), plain), compose(kron(m, ida), m), lambda j: {j // 2}),
             (Formula((rec, rec)), kron(m, m), lambda j: {j // 4, j % 4})]
    assert rec._cols.read == plain._cols.read == []
    for f, expected, digits in cases:
        took_dict_path = set()
        for j in range(f.cols):
            rec._cols.read.clear()
            before = len(dict_path)
            assert f.column(j) == expected.column(j)
            assert set(rec._cols.read) == digits(j)
            took_dict_path.add(len(dict_path) > before)
        assert took_dict_path == {False, True}
        assert f.materialize() == expected


def test_formula_column_reads_j_as_the_materialized_matrix_does():
    a, b = mat([[1, 2], [3, 4]]), mat([[0, 1], [5, 6]])
    for f in (Formula((a, b)), Formula((Matrix.identity(2), b)), Formula(kron(a, b)),
              Formula((a, b), kron(b, a))):
        m = f.materialize()
        assert [f.column(j) for j in range(-4, 4)] == [m.column(j) for j in range(-4, 4)]
        for j in (4, 5, -5, 17):
            with pytest.raises(IndexError):
                m.column(j)
            with pytest.raises(IndexError):
                f.column(j)


def test_a_formulas_columns_belong_to_the_caller():
    # column 0 has two entries, column 1 one; mutating what a formula yields
    # must reach neither its stages' stored columns nor a later read
    m, n = mat([[1, 2], [3, 0]]), mat([[1, 1], [0, 1]])
    for f in (Formula(m), Formula(m, n)):
        stored, expected = [m.column(j) for j in range(2)], f.materialize()
        for col in f.columns():
            col.clear()
            col[5] = 7
        assert [m.column(j) for j in range(2)] == stored
        assert list(f.columns()) == list(expected.columns())


def test_eq_check_stops_at_the_first_differing_column(monkeypatch):
    evaluated = []
    evaluate = Formula._evaluate

    def counted(self, js):
        for col in evaluate(self, js):
            evaluated.append(self)
            yield col

    def refuse(self):
        raise AssertionError("a checked formula was materialized")

    monkeypatch.setattr(Formula, "_evaluate", counted)
    monkeypatch.setattr(Formula, "materialize", refuse)
    b = mat([[1, 2], [3, 4]])
    lhs = Formula((b, b, b), (b, b, b))
    rhs = Formula((b + mat([[1, 0], [0, 0]]), b, b), (b, b, b))
    assert eq_check("x", lhs, rhs) == CheckResult("x", "fail", witness="(0,0):lhs=343:rhs=392")
    assert [evaluated.count(lhs), evaluated.count(rhs)] == [1, 1]


# -- differential tests against sympy's exact matrices ------------------------

def to_sympy(m):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(m.rows, m.cols,
                        lambda i, j: sympy.Rational(m.entry(i, j).numerator,
                                                    m.entry(i, j).denominator))


def from_sympy(column):
    return tuple(F(int(x.p), int(x.q)) for x in column)


@given(systems())
@settings(max_examples=60, deadline=None)
def test_rank_matches_sympy(m):
    assert m.rank() == to_sympy(m).rank()


@given(systems())
@settings(max_examples=60, deadline=None)
def test_kernel_basis_matches_sympy_nullspace(m):
    assert kernel_basis(m) == [from_sympy(v) for v in to_sympy(m).nullspace()]


@given(systems(square=True))
@settings(max_examples=60, deadline=None)
def test_inverse_matches_sympy(m):
    # a non-square matrix has no two-sided inverse
    assert hstack(m, m).inverse() is None
    sym = to_sympy(m)
    if sym.det() == 0:
        assert m.inverse() is None
        return
    inv = sym.inv()
    assert m.inverse() == Matrix.from_cols(m.rows, [from_sympy(inv.col(j)) for j in range(m.cols)])


@given(systems(), st.integers(1, 3), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_matrix_matches_columnwise_solves(a, k, consistent, data):
    # a consistent right hand side half the time, an arbitrary one otherwise
    b = (a * data.draw(matrices(a.cols, k)) if consistent
         else data.draw(matrices(a.rows, k)))
    x = solve_matrix(a, b)
    sols = [solve_affine(a, [b.entry(i, j) for i in range(b.rows)]) for j in range(k)]
    sym_a = to_sympy(a)
    assert (x is None) == (sym_a.rank() != sym_a.row_join(to_sympy(b)).rank())
    # consistent or not, each solve returns the null space of a
    assert all(sol[1] == [from_sympy(v) for v in sym_a.nullspace()] for sol in sols)
    if x is None:
        assert any(sol[0] is None for sol in sols)
    else:
        assert x == Matrix.from_cols(a.cols, [sol[0] for sol in sols])


# -- the pivot row is free ---------------------------------------------------
# The reduced row echelon form is unique, so no result may depend on the
# order of the equations.  A permutation matrix P reorders them.

def permute_rows(m, perm):
    return Matrix.from_rows([[m.entry(p, j) for j in range(m.cols)] for p in perm])


@given(st.booleans(), st.integers(1, 3), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_row_order_changes_no_result(square, k, consistent, data):
    a = data.draw(systems(square=square))
    b = (a * data.draw(matrices(a.cols, k)) if consistent
         else data.draw(matrices(a.rows, k)))
    perm = data.draw(st.permutations(range(a.rows)))
    pa, pb = permute_rows(a, perm), permute_rows(b, perm)
    assert pa.rank() == a.rank()
    assert kernel_basis(pa) == kernel_basis(a)
    assert solve_matrix(pa, pb) == solve_matrix(a, b)
    # the inverse of P a is a^-1 P^-1
    inv, pinv = a.inverse(), pa.inverse()
    assert (pinv is None) == (inv is None)
    if inv is not None:
        assert pinv * permute_rows(Matrix.identity(a.rows), perm) == inv
