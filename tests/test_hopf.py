import pytest

from braidhopf import hopf
from braidhopf.builders import (cyclic_group, exterior_line, group_algebra,
                                s3_group, sweedler_h4, symmetric_group)
from braidhopf.category import SUPER, VEC, CatObject, YetterDrinfeldBackend
from braidhopf.hopf import (associativity_check, build_cosep_section,
                            full_axiom_report, generating_set,
                            integral_from_section, is_cocommutative,
                            make_bialgebra,
                            solve_total_integral, verify_algebra,
                            verify_antipode, verify_bialgebra,
                            verify_coalgebra, verify_cosep_section)
from braidhopf.linalg import Formula, Matrix
from braidhopf.report import eq_check
from contexts import yd_exterior_line, yd_kc2


def all_pass(checks):
    return all(c.status == "pass" for c in checks)


def failing_names(checks):
    return [c.name for c in checks if c.status == "fail"]


def corrupt(mat, i, j, value):
    delta = Matrix.from_entries(mat.rows, mat.cols, [(i, j, value)])
    return mat + delta


@pytest.fixture(scope="module")
def kc2():
    return group_algebra(cyclic_group(2))


@pytest.fixture(scope="module")
def ks3():
    return group_algebra(s3_group())


@pytest.fixture(scope="module")
def h4():
    return sweedler_h4()


# -- axiom suites ---------------------------------------------------------------

def test_group_algebras_pass_everything(kc2, ks3):
    for alg in (kc2, group_algebra(cyclic_group(3)), ks3):
        assert all_pass(full_axiom_report(alg))


def test_sweedler_passes_everything(h4):
    assert all_pass(full_axiom_report(h4))


def test_corrupted_multiplication_breaks_associativity(h4):
    bad = make_bialgebra(VEC, h4.carrier, corrupt(h4.m.mat, 0, 5, 1),
                         h4.u.mat, h4.delta.mat, h4.eps.mat, h4.s.mat)
    names = failing_names(verify_algebra(bad, generating_set(bad.m.mat)))
    assert "algebra_associativity" in names


# -- associativity on a generating set (Light's test) -------------------------

def full_associativity_scan(m):
    ida = Matrix.identity(m.rows)
    return eq_check("algebra_associativity", Formula((m, ida), m), Formula((ida, m), m))


def test_the_unit_alone_does_not_certify_associativity():
    # basis 1, a, b with 1 a two-sided unit, ab = 1 and every other product of
    # a and b zero: (ab)a = a but a(ba) = 0
    m = Matrix.from_entries(3, 9, [(0, 0, 1), (1, 1, 1), (2, 2, 1),
                                   (1, 3, 1), (2, 6, 1), (0, 1 * 3 + 2, 1)])
    ida, unit = Matrix.identity(3), Matrix(3, 1, [{0: 1}])
    # the reduced identity over S = {1} alone passes, since 1 is a unit ...
    assert eq_check("s", Formula((unit, ida, ida), (m, ida), m),
                    Formula((unit, ida, ida), (ida, m), m)).status == "pass"
    # ... but the words in {1} do not span, so the certificate takes a and b too
    assert generating_set(m) == [0, 1, 2]
    check = associativity_check(m, generating_set(m))
    assert check.status == "fail"
    assert check == full_associativity_scan(m)
    assert check.witness == "(1,14):lhs=0:rhs=1"     # (a a) b = 0, a (a b) = a


def test_a_cyclic_group_algebra_is_generated_by_one_element():
    # a generator's powers span all 32 dimensions, so it is tried first
    assert generating_set(group_algebra(cyclic_group(32)).m.mat) == [1]


def test_ks5_passes_its_axiom_suite_on_a_small_generating_set():
    ks5 = group_algebra(symmetric_group(5))
    assert len(generating_set(ks5.m.mat)) < 120
    checks = verify_bialgebra(ks5) + verify_antipode(ks5)
    assert len(checks) == 17 and all_pass(checks)


# -- identities multiplicative in one argument, on the generating set ----------

KC3 = group_algebra(cyclic_group(3))


def c3_with(backend=VEC, carrier=None, m=None, delta=None, s=None):
    """kC3 on 1, g, g^2, with any of its data replaced."""
    return make_bialgebra(backend, carrier or KC3.carrier, m or KC3.m.mat, KC3.u.mat,
                          delta or KC3.delta.mat, KC3.eps.mat, s or KC3.s.mat)


# g^2 g^2 = 2g: not associative, and Delta is multiplicative on S = {g} only
SKEWED = corrupt(KC3.m.mat, 1, 8, 1)
# the automorphism g <-> g^2 of C3, and a map that does not commute with it
INVERT = Matrix.from_entries(3, 3, [(0, 0, 1), (2, 1, 1), (1, 2, 1)])
SWAP_1_G = Matrix.from_entries(3, 3, [(1, 0, 1), (0, 1, 1), (2, 2, 1)])
YD_C2 = YetterDrinfeldBackend(cyclic_group(2))

# case -> (algebra, the checks whose preconditions fail)
PRECONDITION_CASES = {
    "all hold": (c3_with(), set()),
    "m not associative": (c3_with(m=SKEWED), {"bialgebra_compatibility", "counit_multiplicative",
                                              "antipode_anti_multiplicative", "right_linear"}),
    # g g = g^2 lands in the wrong parity
    "m not a morphism": (c3_with(SUPER, CatObject(3, grading=(0, 1, 1))),
                         {"bialgebra_compatibility", "counit_multiplicative",
                          "antipode_anti_multiplicative", "right_linear"}),
    # the identity acts by INVERT: no Yetter-Drinfeld object, though m commutes with it
    "carrier not an object": (c3_with(YD_C2, CatObject(3, grading=(0, 0, 0),
                                                       action=(INVERT, INVERT))),
                              {"bialgebra_compatibility", "counit_multiplicative",
                               "antipode_anti_multiplicative", "right_linear"}),
    "antipode not equivariant": (c3_with(YD_C2, CatObject(3, grading=(0, 0, 0),
                                                   action=(Matrix.identity(3), INVERT)),
                                  s=SWAP_1_G),
                          {"antipode_anti_multiplicative"}),
    # Delta(g) gains 1 (x) 1: not multiplicative on S
    "Delta not multiplicative": (c3_with(delta=corrupt(KC3.delta.mat, 0, 1, 1)),
                                 {"right_linear"}),
}

REDUCED = ("bialgebra_compatibility", "counit_multiplicative", "antipode_anti_multiplicative",
           "right_linear")


def full_scans(monkeypatch, run) -> set[str]:
    """The checks among REDUCED that run() leaves to the full scan, an
    eq_check of the whole identity."""
    names = set()

    def recording(name, lhs, rhs, **kwargs):
        names.add(name)
        return eq_check(name, lhs, rhs, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(hopf, "eq_check", recording)
        run()
    return names & set(REDUCED)


@pytest.mark.parametrize("case", sorted(PRECONDITION_CASES))
def test_a_failing_precondition_leaves_the_check_to_the_full_scan(monkeypatch, case):
    alg, fallbacks = PRECONDITION_CASES[case]
    theta = build_cosep_section(KC3, solve_total_integral(KC3))
    assert full_scans(monkeypatch, lambda: (full_axiom_report(alg),
                                            verify_cosep_section(alg, theta))) == fallbacks


def test_compatibility_on_a_non_associative_product_is_the_full_scans():
    alg = c3_with(m=SKEWED)
    m, d = alg.m.mat, alg.delta.mat
    ida, c, g = Matrix.identity(3), alg.braiding(), Matrix(3, 1, [{1: 1}])
    assert generating_set(m) == [1]
    # Delta(g x) = Delta(g) Delta(x) for every x ...
    assert eq_check("s", Formula((g, ida), m, d),
                    Formula((g, ida), (d, d), (ida, c, ida), (m, m))).status == "pass"
    # ... but Delta(g^2 g^2) = 2 g (x) g and Delta(g^2) Delta(g^2) = 4 g (x) g
    check = {c.name: c for c in verify_bialgebra(alg)}["bialgebra_compatibility"]
    assert check == eq_check("bialgebra_compatibility", Formula(m, d),
                             Formula((d, d), (ida, c, ida), (m, m)))
    assert check.witness == "(4,8):lhs=2:rhs=4"


def test_a_reduced_failure_reads_no_full_column_twice_or_past_it(monkeypatch):
    read = []

    class Counting(Formula):
        def _evaluate(self, js):
            for col in super()._evaluate(js):
                read.append(col)
                yield col

    monkeypatch.setattr(hopf, "Formula", Counting)
    # first failure (g g) g^2 = 2g, g (g g^2) = g at column (1, 1, 2) = 14,
    # inside the slice of the generator g; the columns of 1 before it pass
    check = associativity_check(SKEWED, generating_set(SKEWED))
    monkeypatch.undo()
    assert check == full_associativity_scan(SKEWED)
    assert check.witness == "(1,14):lhs=2:rhs=1"
    assert len(read) == 2 * 15


@pytest.mark.parametrize("alg", [KC3, group_algebra(s3_group())], ids=["kC3", "kS3"])
def test_a_certified_check_reads_its_generators_columns_once_per_side(monkeypatch, alg):
    """Each check decided on S reads, once on each side of its identity on
    A^(x)k, exactly the |S| n^(k-1) columns whose index in its slot is in S:
    slot 0 for the four checks of the axiom suite, slot 2 (stride 1) for
    right_linear."""
    read, reads = [], {}

    class Counting(Formula):
        def _evaluate(self, js):
            def recorded():
                for j in js:
                    read.append((self, j))
                    yield j
            return super()._evaluate(recorded())

    decide = hopf._decide

    def counted(name, lhs, rhs, *args):
        read.clear()
        check = decide(name, lhs, rhs, *args)
        reads[name] = tuple([j for f, j in read if f is side] for side in (lhs, rhs))
        return check

    theta = build_cosep_section(alg, solve_total_integral(alg))
    monkeypatch.setattr(hopf, "Formula", Counting)
    monkeypatch.setattr(hopf, "_decide", counted)
    checks = full_axiom_report(alg) + verify_cosep_section(alg, theta)
    monkeypatch.undo()
    assert all_pass(checks)
    gens, n = generating_set(alg.m.mat), alg.dim
    assert len(gens) < n
    expected = {}
    for name, k, slot in [("algebra_associativity", 3, 0), ("bialgebra_compatibility", 2, 0),
                          ("counit_multiplicative", 2, 0), ("antipode_anti_multiplicative", 2, 0),
                          ("right_linear", 3, 2)]:
        columns = [c for c in range(n ** k) if c // n ** (k - 1 - slot) % n in gens]
        assert len(columns) == len(gens) * n ** (k - 1)
        expected[name] = (columns, columns)
    assert reads == expected


def test_the_axiom_suite_reads_the_carriers_object_checks_once(monkeypatch):
    """The antipode's certificate is the bialgebra checks' one, not a second
    reading of the preconditions."""
    read = []
    verdicts = YetterDrinfeldBackend.object_verdicts

    def counted(self, x):
        read.append(x)
        yield from verdicts(self, x)

    h = yd_kc2()
    assert len(generating_set(h.m.mat)) < h.dim
    monkeypatch.setattr(YetterDrinfeldBackend, "object_verdicts", counted)
    assert all_pass(full_axiom_report(h))
    assert read == [h.carrier]


@pytest.mark.parametrize("h", [exterior_line(SUPER), yd_exterior_line()],
                         ids=["super", "yd"])
def test_a_generating_set_that_is_the_whole_basis_reads_no_precondition(monkeypatch, h):
    """S = {1, x}: the certificate could only repeat the full scan, so
    cosep-section reads no column of its preconditions on S."""
    selected = []
    first_difference = Matrix.first_difference

    def recording(x, y, js=None):
        selected.append(js is not None)
        return first_difference(x, y, js)

    assert generating_set(h.m.mat) == [0, 1]
    monkeypatch.setattr(Matrix, "first_difference", recording)
    checks = verify_cosep_section(h, build_cosep_section(h, h.eps.mat))
    monkeypatch.undo()
    assert selected and not any(selected)
    assert [(c.name, c.status, c.witness) for c in checks] == [
        ("two_sided_expression", "fail", "(1,1):lhs=1:rhs=0"),
        ("left_colinear", "fail", "(2,1):lhs=1:rhs=0"),
        ("right_colinear", "pass", None),
        ("section_of_delta", "pass", None),
        ("right_linear", "pass", None),
    ]


def test_exterior_line_passes_in_super():
    assert all_pass(full_axiom_report(exterior_line(SUPER)))


def test_exterior_line_fails_bialgebra_in_vec():
    alg = exterior_line(VEC)
    checks = verify_bialgebra(alg)
    assert failing_names(checks) == ["bialgebra_compatibility"]
    bad = [c for c in checks if c.status == "fail"][0]
    # the obstruction is 2 x(x)x on input x(x)x
    assert bad.witness == "(3,3):lhs=0:rhs=2"
    # the algebra and coalgebra halves are still fine
    assert all_pass(verify_algebra(alg, generating_set(alg.m.mat)) + verify_coalgebra(alg))


def test_antipode_report_on_group_algebra(ks3):
    assert all_pass(verify_antipode(ks3))


def test_exterior_antipode_in_super():
    assert all_pass(verify_antipode(exterior_line(SUPER)))


# -- cocommutativity --------------------------------------------------------------

def test_group_algebras_cocommutative(kc2, ks3):
    assert is_cocommutative(kc2) and is_cocommutative(ks3)


def test_sweedler_not_cocommutative(h4):
    assert not is_cocommutative(h4)


def test_exterior_line_cocommutative_in_super():
    assert is_cocommutative(exterior_line(SUPER))


# -- integrals ---------------------------------------------------------------------

def test_integral_on_kc2(kc2):
    assert solve_total_integral(kc2) == Matrix.from_rows([[1, 0]])


def test_integral_on_ks3(ks3):
    assert solve_total_integral(ks3) == Matrix.from_rows([[1, 0, 0, 0, 0, 0]])


def test_no_integral_on_sweedler(h4):
    assert solve_total_integral(h4) is None


def test_integral_equations_hold(ks3):
    lam = solve_total_integral(ks3)
    n = ks3.dim
    from braidhopf.linalg import pipeline
    lhs = pipeline(ks3.delta.mat, (Matrix.identity(n), lam))
    assert lhs == ks3.u.mat * lam
    assert lam * ks3.u.mat == Matrix.identity(1)


# -- coseparability section ---------------------------------------------------------

def test_section_is_kronecker_delta_on_group_likes(kc2):
    theta = build_cosep_section(kc2, solve_total_integral(kc2))
    # theta(g (x) h) = delta_{g,h} h
    assert theta == Matrix.from_entries(2, 4, [(0, 0, 1), (1, 3, 1)])


def test_section_checks_pass_on_group_algebras(kc2, ks3):
    for alg in (kc2, group_algebra(cyclic_group(3)), ks3):
        theta = build_cosep_section(alg, solve_total_integral(alg))
        assert all_pass(verify_cosep_section(alg, theta))


def test_section_roundtrips_integral(ks3):
    lam = solve_total_integral(ks3)
    theta = build_cosep_section(ks3, lam)
    assert integral_from_section(ks3, theta) == lam


def test_degenerate_map_is_not_a_section(kc2):
    fake = kc2.u.mat * Matrix.from_rows([[1, 1, 1, 1]])
    checks = verify_cosep_section(kc2, fake)
    assert "section_of_delta" in failing_names(checks)

