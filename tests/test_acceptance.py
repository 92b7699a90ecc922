"""The acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS/FAIL line so a plain `pytest -s
tests/test_acceptance.py` reads as a checklist.
"""

import contextlib
import re

import pytest

from contexts import group_table_pair, h4_c2, s3_c2, s3_c3
from test_category import verify_braiding_axioms
from braidhopf.builders import (conjugation_yd_object, cyclic_group,
                                exterior_line, group_algebra, s3_group,
                                subgroup_closure, sweedler_h4, symmetric_group)
from braidhopf.category import (CatObject, Morphism, SignGradedBackend, SUPER,
                                VEC, YetterDrinfeldBackend, holds)
from braidhopf.filtration import (b_adic_filtration, check_magnum_preconditions,
                                  coradical, subspace_contains)
from braidhopf.hopf import (build_cosep_section, full_axiom_report,
                            make_bialgebra, solve_total_integral,
                            verify_bialgebra, verify_cosep_section)
from braidhopf.linalg import Matrix, compose, kron, pipeline
from braidhopf.products import (MatchedPair, actions_from_psi,
                                bosonization_checks,
                                build_cross_product, build_double_cross,
                                check_matched_pair, cross_product_report,
                                derive_actions_cocomm, derive_actions_general,
                                make_factorization, r_bialgebra)
from braidhopf.report import ConstructionFailed
from braidhopf.weakproj import (build_context, compute_diagram,
                                projection_operators, run_bd_suite, search_weak_projection,
                                structure_report, verify_weak_projection)


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {title}: PASS")


def all_pass(checks):
    return all(c.status == "pass" for c in checks)


def by_name(checks):
    return {c.name: c for c in checks}


def failing(checks):
    return [c.name for c in checks if c.status == "fail" and not c.informational]


def witness_is_faithful(check, lhs_mat, rhs_mat):
    """The reported witness entry must reproduce the inequality exactly."""
    m = re.match(r"\((\d+),(\d+)\):lhs=(.+):rhs=(.+)$", check.witness)
    i, j = int(m.group(1)), int(m.group(2))
    return (str(lhs_mat.entry(i, j)) == m.group(3)
            and str(rhs_mat.entry(i, j)) == m.group(4)
            and m.group(3) != m.group(4))


GOLDEN_HOPF_REPORT = (
    "algebra_associativity", "algebra_unit_left", "algebra_unit_right",
    "coalgebra_coassociativity", "coalgebra_counit_left", "coalgebra_counit_right",
    "morphism_m", "morphism_u", "morphism_delta", "morphism_eps",
    "bialgebra_compatibility", "unit_comultiplicative", "counit_multiplicative",
    "counit_of_unit", "antipode_axiom", "antipode_anti_multiplicative",
    "antipode_anti_comultiplicative",
)


def test_criterion_1_axiom_suites():
    with criterion(1, "axiom suites"):
        reports = {
            "kc2": full_axiom_report(group_algebra(cyclic_group(2))),
            "kc3": full_axiom_report(group_algebra(cyclic_group(3))),
            "ks3": full_axiom_report(group_algebra(s3_group())),
            "h4": full_axiom_report(sweedler_h4()),
            "ext_super": full_axiom_report(exterior_line(SUPER)),
        }
        for name, rep in reports.items():
            assert tuple(c.name for c in rep) == GOLDEN_HOPF_REPORT
            assert all_pass(rep), (name, failing(rep))
        vec_report = verify_bialgebra(exterior_line(VEC))
        assert failing(vec_report) == ["bialgebra_compatibility"]
        assert by_name(vec_report)["bialgebra_compatibility"].witness == "(3,3):lhs=0:rhs=2"


def test_criterion_2_braiding():
    with criterion(2, "braiding axioms on all backends"):
        # Vec on mixed dimensions, with an arbitrary morphism pair
        v2, v3 = CatObject(2), CatObject(3)
        f = Morphism(v2, v3, Matrix.from_rows([[1, 2], [0, 1], [3, 0]]))
        g = Morphism(v3, v2, Matrix.from_rows([[1, 0, 2], [0, 1, 1]]))
        assert all_pass(verify_braiding_axioms(VEC, v2, v3, v2, [(f, g), (g, f)]))

        # SuperVec on odd lines and a mixed plane
        line = CatObject(1, grading=(1,))
        plane = CatObject(2, grading=(0, 1))
        par = Morphism(plane, plane, Matrix.from_rows([[2, 0], [0, 3]]))
        assert all_pass(verify_braiding_axioms(SUPER, line, plane, line, [(par, par)]))

        # sign graded over C2 with the parity bicharacter
        sg = SignGradedBackend.make(cyclic_group(2), [[1, 1], [1, -1]])
        assert all_pass(verify_braiding_axioms(sg, plane, plane, line))

        # Yetter-Drinfeld over C2 and over S3 on its regular object
        c2 = cyclic_group(2)
        ydc2 = YetterDrinfeldBackend(c2)
        neg = Matrix.from_rows([[1, 0], [0, -1]])
        vline = CatObject(1, grading=(1,), action=(Matrix.identity(1), Matrix.identity(1)))
        w = CatObject(2, grading=(0, 0), action=(Matrix.identity(2), neg))
        assert holds(ydc2.object_verdicts(vline)) and holds(ydc2.object_verdicts(w))
        assert all_pass(verify_braiding_axioms(ydc2, vline, w, vline))

        s3 = s3_group()
        yds3 = YetterDrinfeldBackend(s3)
        reg = conjugation_yd_object(s3)
        assert holds(yds3.object_verdicts(reg))
        cls = [s3.index("c"), s3.index("c2")]
        proj = Morphism(reg, reg, Matrix.from_entries(6, 6, ((i, i, 1) for i in cls)))
        assert all_pass(yds3.morphism_report(proj))
        assert all_pass(verify_braiding_axioms(yds3, reg, reg, reg, [(proj, proj)]))

        # the shipped demonstration objects behave the same way
        import itertools
        import os
        from braidhopf.textio import parse_algebra_file
        corpus = os.path.join(os.path.dirname(__file__), "..", "corpus", "objects")
        with open(os.path.join(corpus, "yd_s3_regular.obj")) as fh:
            file_reg = parse_algebra_file(fh.read())
        assert all_pass(verify_braiding_axioms(file_reg.backend, file_reg.obj,
                                               file_reg.obj, file_reg.obj))
        with open(os.path.join(corpus, "yd_c2_line.obj")) as fh:
            fl = parse_algebra_file(fh.read())
        with open(os.path.join(corpus, "yd_c2_plane.obj")) as fh:
            fp = parse_algebra_file(fh.read())
        for x, y, z in itertools.product((fl.obj, fp.obj), repeat=3):
            assert all_pass(verify_braiding_axioms(fl.backend, x, y, z))


def test_criterion_3_integrals_and_sections():
    with criterion(3, "total integrals and coseparability sections"):
        for group in (cyclic_group(2), cyclic_group(3), s3_group()):
            alg = group_algebra(group)
            lam = solve_total_integral(alg)
            assert lam is not None
            # the normalized integral is the coefficient of the identity
            assert lam == Matrix.from_entries(1, alg.dim, [(0, group.identity, 1)])
            theta = build_cosep_section(alg, lam)
            section_report = verify_cosep_section(alg, theta)
            assert all_pass(section_report), failing(section_report)
            assert len(section_report) == 5
        assert solve_total_integral(sweedler_h4()) is None


def test_criterion_4_bd_suite():
    with criterion(4, "projector identity suite"):
        for make in (h4_c2, s3_c2):
            checks = by_name(run_bd_suite(*make()))
            for name in ("pi1_idempotent", "pi1_multiplicative", "bd1", "bd2", "bd3",
                         "bd4", "bd5", "bd6", "unit_projected", "counit_projected",
                         "bd12"):
                assert checks[name].status == "pass", name
            # both orderings are evaluated; the one the splitting needs passes,
            # the printed one is flagged as a discrepancy
            assert checks["bd13"].status == "pass"
            assert checks["bd13_printed_rhs"].status == "fail"
            assert checks["bd13_printed_rhs"].informational


def test_criterion_5_diagram():
    with criterion(5, "diagram dimensions and splitting"):
        for make, expected_dim in ((h4_c2, 2), (s3_c2, 3)):
            a, b, sigma, pi = make()
            ctx = build_context(a, b, sigma, pi)
            assert ctx.r_dim == expected_dim
            assert ctx.include * ctx.project == projection_operators(a, b, sigma, pi)[1]
            assert ctx.project * ctx.include == Matrix.identity(expected_dim)
            assert ctx.r_dim * b.dim == a.dim
            assert all_pass(structure_report(ctx))


def test_criterion_6_cross_product():
    with criterion(6, "cross product literal vs transported"):
        for make in (h4_c2, s3_c2):
            ctx = build_context(*make())
            data = build_cross_product(ctx)     # raises on any literal mismatch
            report = cross_product_report(data)
            assert all_pass(report), failing(report)


def test_criterion_7_matched_pairs():
    with criterion(7, "matched pairs and double cross products"):
        s3 = s3_group()
        # kS3 with B = kC2 and R = kC3
        a = group_algebra(s3)
        b2 = group_algebra(cyclic_group(2, ["e", "t"]))
        r3 = group_algebra(cyclic_group(3, ["e", "c", "c2"]))
        sigma = Morphism(b2.carrier, a.carrier,
                         Matrix.from_entries(6, 2, [(0, 0, 1), (3, 1, 1)]))
        include = Morphism(r3.carrier, a.carrier,
                           Matrix.from_entries(6, 3, [(0, 0, 1), (1, 1, 1), (2, 2, 1)]))
        _, checks = derive_actions_general(make_factorization(a, b2, r3, sigma, include))
        assert all_pass(checks), failing(checks)

        # kS3 with B = kC3 and the transposition line as R
        b3 = group_algebra(cyclic_group(3, ["e", "c", "c2"]))
        r2 = group_algebra(cyclic_group(2, ["e", "t"]))
        sigma3 = Morphism(b3.carrier, a.carrier,
                          Matrix.from_entries(6, 3, [(0, 0, 1), (1, 1, 1), (2, 2, 1)]))
        include2 = Morphism(r2.carrier, a.carrier,
                            Matrix.from_entries(6, 2, [(0, 0, 1), (3, 1, 1)]))
        fc2 = make_factorization(a, b3, r2, sigma3, include2)
        _, checks2 = derive_actions_general(fc2)
        mp2 = actions_from_psi(fc2)
        assert all_pass(checks2), failing(checks2)
        # c <| t = c^2: the right action is genuinely nontrivial
        assert mp2.act_b.entry(2, 1 * 2 + 1) == 1

        # the 24-dimensional exact factorization
        s4 = symmetric_group(4)
        d4 = list(subgroup_closure(s4, "d4", ["p1230", "p2103"]).elements)
        c3 = list(subgroup_closure(s4, "c3", ["p1203"]).elements)
        pair = group_table_pair(s4, d4, c3)
        assert all_pass(check_matched_pair(pair))
        dc = build_double_cross(pair)
        assert dc.dim == 24
        dc_report = verify_bialgebra(dc)
        assert all_pass(dc_report), failing(dc_report)


def test_criterion_8_cocommutative_theorem():
    with criterion(8, "cocommutative double cross product theorem"):
        ctx = build_context(*s3_c2())
        a, b, mp = ctx.a, ctx.b, ctx.maps
        # the coaction on R is trivial and pi (x) pi kills Delta_A on R
        assert mp.coact_left == kron(b.u.mat, Matrix.identity(ctx.r_dim))
        assert (pipeline(ctx.include, a.delta.mat, (ctx.pi.mat, ctx.pi.mat))
                == compose(mp.counit, kron(b.u.mat, b.u.mat)))
        r_checks = verify_bialgebra(r_bialgebra(ctx))
        assert all_pass(r_checks), failing(r_checks)
        pair = derive_actions_cocomm(ctx)
        pair_checks = check_matched_pair(pair)
        assert all_pass(pair_checks), failing(pair_checks)
        # the shortcut actions are the ones the general derivation extracts
        include = Morphism(ctx.r_obj, a.carrier, ctx.include)
        general = actions_from_psi(make_factorization(a, b, pair.r, ctx.sigma, include))
        assert pair.act_r == general.act_r
        assert pair.act_b == general.act_b

        with pytest.raises(ConstructionFailed, match="not cocommutative"):
            derive_actions_cocomm(build_context(*h4_c2()))


def test_criterion_9_bosonization():
    with criterion(9, "bosonization"):
        checks = by_name(bosonization_checks(build_context(*s3_c2())))
        for name in ("act_b_trivial", "pi_left_linear", "triviality_iff_left_linear",
                     "left_action_is_adjoint", "smash_equals_double_cross_mul",
                     "smash_iso_multiplicative", "smash_iso_comultiplicative",
                     "smash_iso_invertible"):
            assert checks[name].status == "pass", name
        # the other factorization exercises the contrapositive direction
        contra = by_name(bosonization_checks(build_context(*s3_c3())))
        assert contra["act_b_trivial"].status == "fail"
        assert contra["pi_left_linear"].status == "fail"
        assert contra["triviality_iff_left_linear"].status == "pass"


def test_criterion_10_filtration_coradical_preconditions():
    with criterion(10, "filtration, coradical, existence preconditions"):
        h4 = sweedler_h4()
        ks3 = group_algebra(s3_group())
        b_h4 = Matrix.from_cols(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        assert b_adic_filtration(h4, b_h4) == (2, 4)       # exhausts dim 4
        b_s3 = Matrix.from_cols(6, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)])
        assert b_adic_filtration(ks3, b_s3) == (2, 2)      # stuck below dim 6

        cor = coradical(h4)
        assert cor.cols == 2
        assert subspace_contains(b_h4, cor)
        assert subspace_contains(cor, b_h4)
        for kg in (group_algebra(cyclic_group(3)), ks3):
            assert coradical(kg).cols == kg.dim

        a, b, sigma, _ = h4_c2()
        assert all_pass(check_magnum_preconditions(a, b, sigma))
        found = search_weak_projection(a, b, sigma)
        assert found.pi is not None
        assert all_pass(verify_weak_projection(a, b, sigma, found.pi))


def test_criterion_11_mutation_sensitivity():
    with criterion(11, "mutation sensitivity"):
        hits = 0

        def corrupt(mat, i, j, v=1):
            return mat + Matrix.from_entries(mat.rows, mat.cols, [(i, j, v)])

        # 1: associativity, with a faithful witness
        h4 = sweedler_h4()
        bad = make_bialgebra(VEC, h4.carrier, corrupt(h4.m.mat, 0, 5),
                             h4.u.mat, h4.delta.mat, h4.eps.mat, h4.s.mat)
        rep = by_name(verify_bialgebra(bad))
        assert rep["algebra_associativity"].status == "fail"
        ida = Matrix.identity(4)
        assert witness_is_faithful(rep["algebra_associativity"],
                                   pipeline((bad.m.mat, ida), bad.m.mat),
                                   pipeline((ida, bad.m.mat), bad.m.mat))
        hits += 1

        # 2: coassociativity
        bad = make_bialgebra(VEC, h4.carrier, h4.m.mat, h4.u.mat,
                             corrupt(h4.delta.mat, 5, 2), h4.eps.mat, h4.s.mat)
        rep = by_name(verify_bialgebra(bad))
        assert rep["coalgebra_coassociativity"].status == "fail"
        assert witness_is_faithful(rep["coalgebra_coassociativity"],
                                   pipeline(bad.delta.mat, (bad.delta.mat, ida)),
                                   pipeline(bad.delta.mat, (ida, bad.delta.mat)))
        hits += 1

        # 3: antipode axiom on kC2
        kc2 = group_algebra(cyclic_group(2))
        bad = make_bialgebra(VEC, kc2.carrier, kc2.m.mat, kc2.u.mat,
                             kc2.delta.mat, kc2.eps.mat, corrupt(kc2.s.mat, 0, 1))
        from braidhopf.hopf import verify_antipode
        rep = by_name(verify_antipode(bad))
        assert rep["antipode_axiom"].status == "fail"
        hits += 1

        # 4: braiding naturality against a non-equivariant map
        c2 = cyclic_group(2)
        ydc2 = YetterDrinfeldBackend(c2)
        neg = Matrix.from_rows([[1, 0], [0, -1]])
        w = CatObject(2, grading=(0, 0), action=(Matrix.identity(2), neg))
        vline = CatObject(1, grading=(1,),
                          action=(Matrix.identity(1), Matrix.identity(1)))
        swap = Morphism(w, w, Matrix.from_rows([[0, 1], [1, 0]]))
        idv = Morphism(vline, vline, Matrix.identity(1))
        rep = verify_braiding_axioms(ydc2, vline, w, w, [(idv, swap)])
        assert any(c.name == "naturality_0" and c.status == "fail" for c in rep)
        hits += 1

        # 5: degenerate section is rejected
        theta = kc2.u.mat * Matrix.from_rows([[1, 1, 1, 1]])
        rep = by_name(verify_cosep_section(kc2, theta))
        assert rep["section_of_delta"].status == "fail"
        hits += 1

        # 6: corrupted sigma breaks the projector suite at bd2
        a, b, sigma, pi = h4_c2()
        bad_sigma = Morphism(sigma.dom, sigma.cod, corrupt(sigma.mat, 0, 1))
        rep = by_name(run_bd_suite(a, b, bad_sigma, pi))
        assert rep["bd2"].status == "fail"
        phi = compose(pi.mat, b.s.mat, bad_sigma.mat)
        pi2 = pipeline(a.delta.mat, (Matrix.identity(4), phi), a.m.mat)
        assert witness_is_faithful(rep["bd2"], compose(pi2, pi.mat),
                                   compose(a.eps.mat, b.u.mat))
        hits += 1

        # 7: corrupted pi makes the idempotent unsplittable
        bad_pi = Morphism(pi.dom, pi.cod, corrupt(pi.mat, 0, 2))
        with pytest.raises(ConstructionFailed,
                           match="^image of Pi2 is not contained in the coinvariants$"):
            compute_diagram(a, b, bad_pi,
                            projection_operators(a, b, sigma, bad_pi)[1])
        hits += 1

        # 8: corrupted cocycle makes the cross product transcription loud
        ctx = build_context(a, b, sigma, pi)
        broken_maps = ctx.maps.__class__(**{**ctx.maps.__dict__,
                                            "cocycle": corrupt(ctx.maps.cocycle, 0, 3)})
        broken_ctx = ctx.__class__(**{**ctx.__dict__, "maps": broken_maps})
        with pytest.raises(ConstructionFailed,
                           match=r"^m literal vs transported differ at \(0,10\): 1 vs 0$"):
            build_cross_product(broken_ctx)
        hits += 1

        # 9: corrupted right action breaks matched pair axiom 5
        s3 = s3_group()
        pair = group_table_pair(s3, ["e", "c", "c2"], ["e", "t"])
        bad_pair = MatchedPair(pair.r, pair.b, pair.act_r, corrupt(pair.act_b, 0, 4))
        rep = by_name(check_matched_pair(bad_pair))
        assert rep["mp5_mixed_multiplicativity_b"].status == "fail"
        hits += 1

        # 10: the same corruption breaks the double cross product's axioms
        assert not all_pass(verify_bialgebra(build_double_cross(bad_pair)))
        hits += 1

        # 11: a non-subcoalgebra input has no filtration
        span_x = Matrix.from_cols(4, [(0, 0, 1, 0)])
        assert b_adic_filtration(h4, span_x) is None
        hits += 1

        # 12: killing the antipode breaks the existence preconditions
        bad_b = make_bialgebra(VEC, b.carrier, b.m.mat, b.u.mat, b.delta.mat,
                               b.eps.mat, corrupt(b.s.mat, 0, 1))
        rep = by_name(check_magnum_preconditions(a, bad_b, sigma))
        assert rep["b_has_antipode"].status == "fail"
        hits += 1

        assert hits >= 10
