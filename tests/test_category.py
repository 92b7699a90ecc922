import pytest

from braidhopf.builders import (conjugation_yd_object, cyclic_group, s3_group,
                                symmetric_group)
from braidhopf.category import (CatObject, FiniteGroup, Morphism, SignGradedBackend, SUPER,
                                SuperVecBackend, VEC, VecBackend, YetterDrinfeldBackend,
                                holds)
from braidhopf.linalg import Formula, Matrix
from braidhopf.report import bool_check, eq_check


def all_pass(checks):
    return all(c.status == "pass" for c in checks)


def verify_braiding_axioms(backend, x, y, z, sample_morphisms=()):
    """Hexagons on (x, y, z), invertibility, and naturality on given pairs.

    On every object the parser accepts the hexagons are theorems, so these
    checks test the backends, not user input; no command runs them.
    """
    xy = backend.tensor(x, y)
    yz = backend.tensor(y, z)
    c_xy_z = backend.braiding_mat(xy, z)
    c_x_yz = backend.braiding_mat(x, yz)
    c_xz = backend.braiding_mat(x, z)
    c_yz = backend.braiding_mat(y, z)
    c_xy = backend.braiding_mat(x, y)
    idx = Matrix.identity(x.dim)
    idy = Matrix.identity(y.dim)
    idz = Matrix.identity(z.dim)
    checks = [
        eq_check("hexagon_first", c_xy_z, Formula((idx, c_yz), (c_xz, idy))),
        eq_check("hexagon_second", c_x_yz, Formula((c_xy, idz), (idy, c_xz))),
        bool_check("braiding_invertible", c_xy.inverse() is not None, witness="singular"),
    ]
    for k, (f, g) in enumerate(sample_morphisms):
        lhs = Formula((f.mat, g.mat), backend.braiding_mat(f.cod, g.cod))
        rhs = Formula(backend.braiding_mat(f.dom, g.dom), (g.mat, f.mat))
        checks.append(eq_check(f"naturality_{k}", lhs, rhs))
    return checks


# -- groups -------------------------------------------------------------------

def test_cyclic_group_table():
    g = cyclic_group(2)
    assert g.identity == 0
    assert g.mul(1, 1) == 0
    assert g.inverses == (0, 1)


def test_group_law_is_verified():
    with pytest.raises(ValueError):
        FiniteGroup.from_table("bad", ["e", "a"], [[0, 1], [1, 1]])


# an order-5 loop: a Latin square with identity e and inverses, not associative
L5_TABLE = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_a_loop_names_its_first_non_associative_triple():
    # the unit alone passes (e x) y = e (x y); a and b must be checked too
    assert all(L5_TABLE[L5_TABLE[0][x]][y] == L5_TABLE[0][L5_TABLE[x][y]]
               for x in range(5) for y in range(5))
    with pytest.raises(ValueError) as err:
        FiniteGroup.from_table("L5", list("eabcd"), L5_TABLE)
    assert str(err.value) == "group L5: associativity fails at (a,a,b)"


def test_s3_has_expected_relations():
    g = s3_group()
    c, t = g.index("c"), g.index("t")
    # t c t^-1 = c^-1
    assert g.conjugate(t, c) == g.index("c2")
    assert g.mul(t, c) == g.index("c2t")
    assert g.mul(c, t) == g.index("ct")


def test_symmetric_group_order():
    assert len(symmetric_group(4).elements) == 24


# -- objects and tensor -------------------------------------------------------

def test_tensor_unit_object():
    y = CatObject(5)
    assert VEC.tensor(VEC.unit(), y).dim == 5


def test_tensor_dims_multiply():
    assert VEC.tensor(CatObject(2), CatObject(6)).dim == 12


def test_super_tensor_parity():
    line = CatObject(1, grading=(1,))
    sq = SUPER.tensor(line, line)
    assert sq.dim == 1 and sq.grading == (0,)


def test_super_is_graded_by_parity_only():
    # the parity braiding is right only for the two-element group
    assert SUPER.group.elements == ("0", "1")
    with pytest.raises(TypeError):
        SuperVecBackend(group=cyclic_group(3))


def test_super_requires_grading():
    with pytest.raises(ValueError, match="^backend requires a grading on every object$"):
        SUPER.tensor(CatObject(1), CatObject(1, grading=(1,)))


# -- braidings ----------------------------------------------------------------

def test_vec_braiding_is_flip_and_symmetric():
    x, y = CatObject(2), CatObject(3)
    c = VEC.braiding_mat(x, y)
    c_back = VEC.braiding_mat(y, x)
    assert c_back * c == Matrix.identity(6)
    # flip on basis: e_i (x) f_j -> f_j (x) e_i
    assert c.entry(0 * 2 + 1, 1 * 3 + 0) == 1


def test_super_odd_lines_give_minus_one():
    line = CatObject(1, grading=(1,))
    c = SUPER.braiding_mat(line, line)
    assert c == Matrix.from_rows([[-1]])


def test_sign_graded_backend_matches_super_on_c2():
    g = cyclic_group(2)
    backend = SignGradedBackend.make(g, [[1, 1], [1, -1]])
    x = CatObject(2, grading=(0, 1))
    assert backend.braiding_mat(x, x) == SUPER.braiding_mat(x, x)


def test_sign_graded_rejects_non_bicharacter():
    g = cyclic_group(2)
    with pytest.raises(ValueError):
        SignGradedBackend.make(g, [[1, -1], [1, 1]])


def test_yd_braiding_acts_then_flips():
    g = cyclic_group(2)
    backend = YetterDrinfeldBackend(g)
    # v spans an odd line with trivial action; w a 2-dim object with a sign flip
    neg = Matrix.from_rows([[1, 0], [0, -1]])
    v = CatObject(1, grading=(1,), action=(Matrix.identity(1), Matrix.identity(1)))
    w = CatObject(2, grading=(0, 0), action=(Matrix.identity(2), neg))
    c = backend.braiding_mat(v, w)
    flip = VEC.braiding_mat(CatObject(1), CatObject(2))
    from braidhopf.linalg import kron
    assert c == flip * kron(Matrix.identity(1), neg)
    checks = {ch.name: ch for ch in verify_braiding_axioms(backend, v, w, v)}
    assert checks["braiding_invertible"].status == "pass"


def test_braiding_axioms_vec():
    objs = [CatObject(1), CatObject(2), CatObject(3)]
    assert all_pass(verify_braiding_axioms(VEC, *objs))


def test_braiding_axioms_super_odd():
    line = CatObject(1, grading=(1,))
    plane = CatObject(2, grading=(0, 1))
    assert all_pass(verify_braiding_axioms(SUPER, line, plane, line))


class SingularBraiding(VecBackend):
    """Vec with the zero map as braiding: hexagons and naturality hold, invertibility does not."""

    def braiding_mat(self, x, y):
        return Matrix.from_entries(x.dim * y.dim, x.dim * y.dim, ())


def test_singular_braiding_fails_invertibility_without_raising():
    objs = [CatObject(1), CatObject(2), CatObject(2)]
    f = Morphism(objs[1], objs[1], Matrix.identity(2))
    checks = {c.name: c for c in verify_braiding_axioms(SingularBraiding(), *objs, [(f, f)])}
    assert checks["braiding_invertible"].status == "fail"
    assert checks["braiding_invertible"].witness == "singular"
    assert all(c.status == "pass" for name, c in checks.items() if name != "braiding_invertible")


def test_braiding_axioms_yd_s3_regular():
    g = s3_group()
    backend = YetterDrinfeldBackend(g)
    reg = conjugation_yd_object(g)
    assert holds(backend.object_verdicts(reg))
    assert all_pass(verify_braiding_axioms(backend, reg, reg, reg))


def test_yd_naturality_with_class_sum_projection():
    g = s3_group()
    backend = YetterDrinfeldBackend(g)
    reg = conjugation_yd_object(g)
    # projection onto the 3-cycle components is a valid endomorphism
    cls = [g.index("c"), g.index("c2")]
    proj = Matrix.from_entries(6, 6, ((i, i, 1) for i in cls))
    f = Morphism(reg, reg, proj)
    assert all_pass(backend.morphism_report(f))
    assert all_pass(verify_braiding_axioms(backend, reg, reg, reg, [(f, f)]))


# -- morphism validity ----------------------------------------------------------

def test_identity_is_valid_everywhere():
    x = CatObject(2, grading=(0, 1))
    f = Morphism(x, x, Matrix.identity(2))
    assert all_pass(SUPER.morphism_report(f))


def test_flip_on_super_square_is_degree_preserving():
    line = CatObject(1, grading=(1,))
    sq = SUPER.tensor(line, line)
    f = Morphism(sq, sq, Matrix.identity(1))
    assert all_pass(SUPER.morphism_report(f))


def test_grade_mixing_map_fails_with_witness():
    x = CatObject(2, grading=(0, 1))
    f = Morphism(x, x, Matrix.from_rows([[0, 1], [1, 0]]))
    checks = SUPER.morphism_report(f)
    assert any(c.status == "fail" and c.witness for c in checks)


def test_grade_preserving_witness_is_the_first_entry_joining_two_grades():
    x = CatObject(3, grading=(0, 1, 1))
    f = Morphism(x, x, Matrix.from_rows([[1, 2, 0], [0, 1, 5], [7, 0, 1]]))
    [check] = SUPER.morphism_report(f)
    assert (check.name, check.status, check.witness) == ("grade_preserving", "fail",
                                                         "(2,0):lhs=7:rhs=0")


def test_yd_reports_add_the_action_checks_after_the_grade_checks():
    g = s3_group()
    backend = YetterDrinfeldBackend(g)
    reg = conjugation_yd_object(g)
    assert [name for name, _ in backend.object_verdicts(reg)] == [
        "grading_wellformed", "action_identity", "action_homomorphism",
        "yetter_drinfeld_compatibility"]
    f = Morphism(reg, reg, Matrix.identity(reg.dim))
    assert [c.name for c in backend.morphism_report(f)] == ["grade_preserving", "equivariance"]


def test_yd_equivariance_violation_detected():
    g = cyclic_group(2)
    backend = YetterDrinfeldBackend(g)
    neg = Matrix.from_rows([[1, 0], [0, -1]])
    w = CatObject(2, grading=(0, 0), action=(Matrix.identity(2), neg))
    swap = Morphism(w, w, Matrix.from_rows([[0, 1], [1, 0]]))
    checks = backend.morphism_report(swap)
    assert any(c.name == "equivariance" and c.status == "fail" for c in checks)


def test_yd_object_report_catches_bad_action():
    g = cyclic_group(2)
    backend = YetterDrinfeldBackend(g)
    bad = CatObject(1, grading=(0,), action=(Matrix.identity(1), Matrix.from_rows([[2]])))
    assert not holds(backend.object_verdicts(bad))


def test_yd_object_report_fails_a_grade_outside_the_group_without_raising():
    backend = YetterDrinfeldBackend(cyclic_group(2))
    one = Matrix.identity(1)
    for grading in ((5,), (-1,), (0, 1)):
        verdicts = backend.object_verdicts(CatObject(1, grading=grading, action=(one, one)))
        assert [(name, "pass" if w is None else "fail") for name, w in verdicts] == [
            ("grading_wellformed", "fail"), ("action_identity", "pass"),
            ("action_homomorphism", "pass"), ("yetter_drinfeld_compatibility", "fail")]
    assert holds(backend.object_verdicts(CatObject(1, grading=(1,), action=(one, one))))


def test_yd_braiding_requires_an_action():
    backend = YetterDrinfeldBackend(cyclic_group(2))
    x = CatObject(1, grading=(0,))
    with pytest.raises(ValueError, match="^backend requires a group action on every object$"):
        backend.braiding_mat(x, x)
