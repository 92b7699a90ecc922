"""End-to-end runs through genuinely braided (signed) backends.

The canonical contexts live in the plain backend; these tests push the
whole projector/diagram/cross-product pipeline through SuperVec and a
Yetter-Drinfeld backend so the sign bookkeeping is exercised everywhere.
"""

from braidhopf.builders import exterior_line
from braidhopf.category import Morphism, SUPER, holds
from braidhopf.hopf import (full_axiom_report, make_bialgebra,
                            solve_total_integral)
from braidhopf.linalg import Matrix
from braidhopf.products import build_cross_product, cross_product_report
from braidhopf.weakproj import (build_context, run_bd_suite, structure_report,
                                verify_weak_projection)
from contexts import yd_exterior_line


def all_pass(checks):
    return all(c.status == "pass" for c in checks if not c.informational)


def trivial_hopf(backend):
    carrier = backend.unit()
    one = Matrix.identity(1)
    return make_bialgebra(backend, carrier, one, one, one, one, one)


def super_trivial_context():
    a = exterior_line(SUPER)
    b = trivial_hopf(SUPER)
    sigma = Morphism(b.carrier, a.carrier, a.u.mat)
    pi = Morphism(a.carrier, b.carrier, a.eps.mat)
    return a, b, sigma, pi


def test_trivial_subalgebra_is_a_weak_projection_in_super():
    assert all_pass(verify_weak_projection(*super_trivial_context()))


def test_bd_suite_with_super_braiding():
    checks = run_bd_suite(*super_trivial_context())
    assert all_pass(checks)


def test_super_diagram_recovers_the_whole_object():
    ctx = build_context(*super_trivial_context())
    assert ctx.r_dim == 2
    assert ctx.r_obj.grading == (0, 1)
    assert all_pass(structure_report(ctx))
    # R inherits the exterior line structure on the nose
    a = ctx.a
    assert ctx.maps.mul == a.m.mat
    assert ctx.maps.comul == a.delta.mat


def test_super_cross_product_over_the_trivial_base():
    ctx = build_context(*super_trivial_context())
    data = build_cross_product(ctx)
    assert all_pass(cross_product_report(data))
    assert data.product.m.mat == ctx.a.m.mat


def test_exterior_line_is_a_yd_bialgebra():
    alg = yd_exterior_line()
    assert holds(alg.backend.object_verdicts(alg.carrier))
    assert all_pass(full_axiom_report(alg))


def test_yd_exterior_line_has_no_total_integral():
    # the primitive x obstructs cosemisimplicity: the first integral
    # condition on x forces lam(1) = 0 against lam(u) = 1
    assert solve_total_integral(yd_exterior_line()) is None
    assert solve_total_integral(exterior_line(SUPER)) is None
