import pytest

from contexts import c4_c2, group_table_pair, h4_c2, s3_c2, s3_c3, trivial, yd_kc2
from braidhopf.builders import (cyclic_group, exterior_line, group_algebra, s3_group,
                                subgroup_closure, sweedler_h4, symmetric_group)
from braidhopf.category import SUPER, Morphism
from braidhopf.hopf import verify_bialgebra
from braidhopf import products
from braidhopf.linalg import Matrix, compose, kron, pipeline
from braidhopf.products import (CrossProductData, MatchedPair, actions_from_psi,
                                build_cross_product, build_double_cross,
                                build_smash, bosonization_checks,
                                check_matched_pair, cross_product_report,
                                derive_actions_cocomm, derive_actions_general,
                                make_factorization, r_bialgebra, xi_is_trivial)
from braidhopf.report import ConstructionFailed
from braidhopf.weakproj import build_context


def all_pass(checks):
    return all(c.status == "pass" for c in checks)


def by_name(checks):
    return {c.name: c for c in checks}


def conj_action_oracle(group, b_names, r_names):
    """b |> r = b r b^{-1} computed straight from the Cayley table."""
    b_idx = [group.index(n) for n in b_names]
    r_idx = [group.index(n) for n in r_names]
    nr, nb = len(r_idx), len(b_idx)
    entries = []
    for bi, bv in enumerate(b_idx):
        for ri, rv in enumerate(r_idx):
            entries.append((r_idx.index(group.conjugate(bv, rv)), bi * nr + ri, 1))
    return Matrix.from_entries(nr, nb * nr, entries)


# -- cross products ------------------------------------------------------------

@pytest.mark.parametrize("make", [h4_c2, s3_c2])
def test_cross_product_literal_equals_transported(make):
    ctx = build_context(*make())
    data = build_cross_product(ctx)
    report = by_name(cross_product_report(data))
    assert report["literal_equals_transported"].status == "pass"
    assert report["iso_fwd_bwd"].status == "pass"
    assert report["iso_bwd_fwd"].status == "pass"
    assert all_pass(cross_product_report(data))
    assert data.product.dim == ctx.a.dim


def test_cross_product_trivial_context_is_b_itself():
    a = group_algebra(cyclic_group(2))
    ctx = build_context(*trivial(a))
    data = build_cross_product(ctx)
    # R = 1, so under the x-major index collapse the product IS B
    assert data.product.dim == a.dim
    assert data.product.m.mat == a.m.mat
    assert data.product.delta.mat == a.delta.mat
    assert all_pass(verify_bialgebra(data.product))


def test_cross_product_h4_is_h4_transported():
    ctx = build_context(*h4_c2())
    data = build_cross_product(ctx)
    a = ctx.a
    fwd, bwd = data.iso_fwd, data.iso_bwd
    assert compose(bwd, fwd) == Matrix.identity(4)
    # conjugating the product multiplication back gives A's multiplication
    assert pipeline_roundtrip(data, a)


def pipeline_roundtrip(data: CrossProductData, a) -> bool:
    m_back = pipeline((data.iso_bwd, data.iso_bwd), data.product.m.mat, data.iso_fwd)
    return m_back == a.m.mat


def test_transcription_mismatch_is_loud():
    ctx = build_context(*h4_c2())
    broken = ctx.maps.__class__(**{**ctx.maps.__dict__,
                                   "cocycle": ctx.maps.cocycle + Matrix.from_entries(2, 4, [(0, 3, 1)])})
    bad_ctx = ctx.__class__(**{**ctx.__dict__, "maps": broken})
    with pytest.raises(ConstructionFailed,
                       match=r"^m literal vs transported differ at \(0,10\): 1 vs 0$"):
        build_cross_product(bad_ctx)


# -- matched pairs --------------------------------------------------------------

def test_trivial_matched_pair_of_commuting_factors():
    r = group_algebra(cyclic_group(2))
    b = group_algebra(cyclic_group(3))
    act_r = kron(b.eps.mat, Matrix.identity(2))   # b |> r = eps(b) r
    act_b = kron(Matrix.identity(3), r.eps.mat)   # b <| r = eps(r) b
    mp = MatchedPair(r, b, act_r, act_b)
    assert all_pass(check_matched_pair(mp))
    dc = build_double_cross(mp)
    assert all_pass(verify_bialgebra(dc))
    # trivial actions give the tensor product bialgebra
    idr, idb = Matrix.identity(2), Matrix.identity(3)
    flip = r.backend.braiding_mat(b.carrier, r.carrier)
    tens_m = pipeline((idr, flip, idb), (r.m.mat, b.m.mat))
    assert dc.m.mat == tens_m


def test_s3_factorization_matched_pair():
    g = s3_group()
    mp = group_table_pair(g, ["e", "c", "c2"], ["e", "t"])
    assert all_pass(check_matched_pair(mp))
    # the left action is conjugation, straight from the group oracle
    assert mp.act_r == conj_action_oracle(g, ["e", "t"], ["e", "c", "c2"])
    dc = build_double_cross(mp)
    assert all_pass(verify_bialgebra(dc))


def test_s3_pair_with_corrupted_right_action_breaks():
    # replacing an action by the fully trivial one just gives the (valid)
    # tensor-product pair, so the mutation has to hit an actual entry
    g = s3_group()
    mp = group_table_pair(g, ["e", "c", "c2"], ["e", "t"])
    bad_tl = mp.act_b + Matrix.from_entries(2, 6, [(0, 1 * 3 + 1, 1)])
    names = [c.name for c in check_matched_pair(MatchedPair(mp.r, mp.b, mp.act_r, bad_tl))
             if c.status == "fail"]
    assert "mp5_mixed_multiplicativity_b" in names


def test_fully_trivialized_pair_is_the_tensor_pair():
    g = s3_group()
    mp = group_table_pair(g, ["e", "c", "c2"], ["e", "t"])
    triv_tr = kron(mp.b.eps.mat, Matrix.identity(3))
    assert all_pass(check_matched_pair(MatchedPair(mp.r, mp.b, triv_tr, mp.act_b)))


def _s4_over_d4_c3():
    g = symmetric_group(4)
    return (g, list(subgroup_closure(g, "d4", ["p1230", "p2103"]).elements),
            list(subgroup_closure(g, "c3", ["p1203"]).elements))


def test_s4_factorization_24_dim():
    g, d4, c3 = _s4_over_d4_c3()
    assert len(d4) == 8 and len(c3) == 3
    mp = group_table_pair(g, d4, c3)
    assert all_pass(check_matched_pair(mp))
    dc = build_double_cross(mp)
    assert dc.dim == 24
    assert all_pass(verify_bialgebra(dc))


@pytest.mark.parametrize("group, r_names, b_names", [
    (s3_group(), ["e", "c", "c2"], ["e", "t"]),
    _s4_over_d4_c3(),
], ids=["s3", "s4"])
def test_group_table_pair_equals_the_pair_derived_from_psi(group, r_names, b_names):
    # the group-table refactoring of b*r against psi = phi^-1 m_A (sigma (x) i)
    pair = group_table_pair(group, r_names, b_names)
    a = group_algebra(group)

    def inclusion(sub, names):
        mat = Matrix.from_entries(a.dim, sub.dim,
                                  ((group.index(n), j, 1) for j, n in enumerate(names)))
        return Morphism(sub.carrier, a.carrier, mat)
    fc = make_factorization(a, pair.b, pair.r, inclusion(pair.b, b_names),
                            inclusion(pair.r, r_names))
    derived = actions_from_psi(fc)
    assert derived.act_r == pair.act_r
    assert derived.act_b == pair.act_b
    if group.name == "s4":   # both actions are nontrivial here
        assert pair.act_r != kron(pair.b.eps.mat, Matrix.identity(pair.r.dim))
        assert pair.act_b != kron(Matrix.identity(pair.b.dim), pair.r.eps.mat)


def test_matched_pair_axioms_iff_double_cross_bialgebra():
    # the two verdicts agree on the honest pair and on every single-entry
    # mutation of either action
    g = s3_group()
    mp = group_table_pair(g, ["e", "c", "c2"], ["e", "t"])
    assert all_pass(check_matched_pair(mp))
    assert all_pass(verify_bialgebra(build_double_cross(mp)))
    saw_failure = False
    for which in ("act_r", "act_b"):
        base = getattr(mp, which)
        for i in range(base.rows):
            for j in range(base.cols):
                bad = base + Matrix.from_entries(base.rows, base.cols, [(i, j, 1)])
                pair = MatchedPair(mp.r, mp.b,
                                   bad if which == "act_r" else mp.act_r,
                                   bad if which == "act_b" else mp.act_b)
                ok_pair = all_pass(check_matched_pair(pair))
                ok_product = all_pass(verify_bialgebra(build_double_cross(pair)))
                assert ok_pair == ok_product
                saw_failure = saw_failure or not ok_pair
    assert saw_failure


# -- deriving actions -----------------------------------------------------------

def test_derive_actions_general_s3_over_c2():
    a = group_algebra(s3_group())
    b = group_algebra(cyclic_group(2))
    r = group_algebra(cyclic_group(3, names=["e", "g1", "g2"]))
    sigma = Morphism(b.carrier, a.carrier, Matrix.from_entries(6, 2, [(0, 0, 1), (3, 1, 1)]))
    include = Morphism(r.carrier, a.carrier,
                       Matrix.from_entries(6, 3, [(0, 0, 1), (1, 1, 1), (2, 2, 1)]))
    fc = make_factorization(a, b, r, sigma, include)
    _, checks = derive_actions_general(fc)
    mp = actions_from_psi(fc)
    assert all_pass(checks)
    assert mp.act_r == conj_action_oracle(s3_group(), ["e", "t"], ["e", "c", "c2"])
    # right action is trivial: C3 is normal
    assert mp.act_b == kron(Matrix.identity(2), r.eps.mat)


def test_derive_actions_general_s3_over_c3():
    a = group_algebra(s3_group())
    b = group_algebra(cyclic_group(3, names=["e", "g1", "g2"]))
    r = group_algebra(cyclic_group(2, names=["e", "t"]))
    sigma = Morphism(b.carrier, a.carrier,
                     Matrix.from_entries(6, 3, [(0, 0, 1), (1, 1, 1), (2, 2, 1)]))
    include = Morphism(r.carrier, a.carrier,
                       Matrix.from_entries(6, 2, [(0, 0, 1), (3, 1, 1)]))
    fc = make_factorization(a, b, r, sigma, include)
    _, checks = derive_actions_general(fc)
    mp = actions_from_psi(fc)
    assert all_pass(checks)
    # g1 <| t = g2 (conjugation by t inverts the 3-cycle)
    assert mp.act_b.entry(2, 1 * 2 + 1) == 1
    # the left action is trivial here
    assert mp.act_r == kron(b.eps.mat, Matrix.identity(2))


def test_make_factorization_rejects_non_square_phi():
    # R (x) B is 4-dimensional, A is 6-dimensional
    a = group_algebra(s3_group())
    c2 = group_algebra(cyclic_group(2))
    into_a = Morphism(c2.carrier, a.carrier, Matrix.from_entries(6, 2, [(0, 0, 1), (3, 1, 1)]))
    with pytest.raises(ConstructionFailed, match=r"^m_A\(i \(x\) sigma\) is singular$"):
        make_factorization(a, c2, c2, into_a, into_a)


def test_make_factorization_rejects_singular_square_phi():
    # sigma sends both elements of C2 to e, so m_A (i (x) sigma) has rank 3 of 6
    a = group_algebra(s3_group())
    b = group_algebra(cyclic_group(2))
    r = group_algebra(cyclic_group(3, names=["e", "g1", "g2"]))
    sigma = Morphism(b.carrier, a.carrier, Matrix.from_entries(6, 2, [(0, 0, 1), (0, 1, 1)]))
    include = Morphism(r.carrier, a.carrier,
                       Matrix.from_entries(6, 3, [(0, 0, 1), (1, 1, 1), (2, 2, 1)]))
    with pytest.raises(ConstructionFailed, match="singular"):
        make_factorization(a, b, r, sigma, include)


def test_derive_actions_on_tensor_bialgebra():
    r = group_algebra(cyclic_group(2, names=["e", "t"]))
    b = group_algebra(cyclic_group(3, names=["e", "g1", "g2"]))
    # A = R (x) B as a tensor product bialgebra via the trivial pair
    act_r = kron(b.eps.mat, Matrix.identity(2))
    act_b = kron(Matrix.identity(3), r.eps.mat)
    a = build_double_cross(MatchedPair(r, b, act_r, act_b))
    sigma = Morphism(b.carrier, a.carrier, kron(r.u.mat, Matrix.identity(3)))
    include = Morphism(r.carrier, a.carrier, kron(Matrix.identity(2), b.u.mat))
    fc = make_factorization(a, b, r, sigma, include)
    _, checks = derive_actions_general(fc)
    mp = actions_from_psi(fc)
    assert all_pass(checks)
    assert mp.act_r == act_r and mp.act_b == act_b


def test_derive_actions_cocomm_s3():
    ctx = build_context(*s3_c2())
    a, b, mp = ctx.a, ctx.b, ctx.maps
    assert mp.coact_left == kron(b.u.mat, Matrix.identity(ctx.r_dim))
    assert (pipeline(ctx.include, a.delta.mat, (ctx.pi.mat, ctx.pi.mat))
            == compose(mp.counit, kron(b.u.mat, b.u.mat)))
    assert all_pass(verify_bialgebra(r_bialgebra(ctx)))
    pair = derive_actions_cocomm(ctx)
    assert all_pass(check_matched_pair(pair))
    include = Morphism(ctx.r_obj, a.carrier, ctx.include)
    general = actions_from_psi(make_factorization(a, b, pair.r, ctx.sigma, include))
    assert pair.act_r == general.act_r
    assert pair.act_b == general.act_b
    assert pair.act_r == conj_action_oracle(s3_group(), ["e", "t"], ["e", "c", "c2"])


def test_derive_actions_cocomm_rejects_h4():
    ctx = build_context(*h4_c2())
    with pytest.raises(ConstructionFailed, match="not cocommutative"):
        derive_actions_cocomm(ctx)


def test_xi_trivial_on_both_contexts():
    assert xi_is_trivial(build_context(*s3_c2()))
    assert xi_is_trivial(build_context(*h4_c2()))


def test_c4_context_has_a_nontrivial_cocycle():
    # the coset section of C4 over {e, w2} squares to w2, a genuine cocycle
    ctx = build_context(*c4_c2())
    assert not xi_is_trivial(ctx)
    assert ctx.maps.cocycle.entry(1, 1 * 2 + 1) == 1   # xi(w (x) w) = w2
    with pytest.raises(ConstructionFailed, match="cocycle"):
        derive_actions_cocomm(ctx)


def test_cross_product_with_nontrivial_cocycle():
    # the cocycle slot of the long multiplication formula actually fires
    ctx = build_context(*c4_c2())
    data = build_cross_product(ctx)
    assert all_pass(cross_product_report(data))
    assert data.product.dim == 4


# -- smash products and bosonization -----------------------------------------------

def test_bosonization_s3_over_c2():
    ctx = build_context(*s3_c2())
    checks = by_name(bosonization_checks(ctx))
    assert checks["act_b_trivial"].status == "pass"
    assert checks["pi_left_linear"].status == "pass"
    assert checks["triviality_iff_left_linear"].status == "pass"
    assert checks["left_action_is_adjoint"].status == "pass"
    assert checks["smash_equals_double_cross_mul"].status == "pass"
    for name in ("smash_iso_multiplicative", "smash_iso_unital",
                 "smash_iso_comultiplicative", "smash_iso_counital",
                 "smash_iso_invertible", "pi_of_i"):
        assert checks[name].status == "pass", name


def test_bosonization_does_not_run_the_general_derivation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the smash route derived the general factorization")
    monkeypatch.setattr(products, "make_factorization", refuse)
    monkeypatch.setattr(products, "derive_actions_general", refuse)
    checks = bosonization_checks(build_context(*s3_c2()))
    assert [c.name for c in checks[:11]] == [
        "act_b_trivial", "pi_left_linear", "triviality_iff_left_linear", "pi_of_i",
        "left_action_is_adjoint", "smash_equals_double_cross_mul",
        "smash_iso_multiplicative", "smash_iso_unital", "smash_iso_comultiplicative",
        "smash_iso_counital", "smash_iso_invertible"]
    assert len(checks) == 11 + 14      # plus the prefixed bialgebra suite of the smash product
    assert all_pass(checks)


def test_bosonization_contrapositive_s3_over_c3():
    ctx = build_context(*s3_c3())
    checks = by_name(bosonization_checks(ctx))
    assert checks["act_b_trivial"].status == "fail"
    assert checks["pi_left_linear"].status == "fail"
    # both sides of the iff fail together, so the iff itself holds
    assert checks["triviality_iff_left_linear"].status == "pass"
    assert checks["left_action_is_adjoint"].status == "skipped"


def test_smash_with_trivial_action_is_tensor_product():
    r = group_algebra(cyclic_group(2))
    b = group_algebra(cyclic_group(3))
    smash = build_smash(r, b, kron(b.eps.mat, Matrix.identity(2)))
    assert all_pass(verify_bialgebra(smash))
    idr, idb = Matrix.identity(2), Matrix.identity(3)
    flip = r.backend.braiding_mat(b.carrier, r.carrier)
    assert smash.m.mat == pipeline((idr, flip, idb), (r.m.mat, b.m.mat))


# -- psi against the literal formulas ------------------------------------------------
# products multiplies through psi : B (x) R -> R (x) B, evaluated once.  These are
# the formulas that expand psi inside every column, kept as the independent
# reference.

def literal_double_cross_mul(mp):
    r, b = mp.r, mp.b
    idr, idb = Matrix.identity(r.dim), Matrix.identity(b.dim)
    c_br = r.backend.braiding_mat(b.carrier, r.carrier)
    return pipeline(
        (idr, b.delta.mat, r.delta.mat, idb),
        (idr, idb, c_br, idr, idb),
        (idr, mp.act_r, mp.act_b, idb),
        (r.m.mat, b.m.mat),
    )


def literal_smash_mul(r, b, act_r):
    idr, idb = Matrix.identity(r.dim), Matrix.identity(b.dim)
    c_br = r.backend.braiding_mat(b.carrier, r.carrier)
    return pipeline(
        (idr, b.delta.mat, idr, idb),
        (idr, idb, c_br, idb),
        (idr, act_r, idb, idb),
        (r.m.mat, b.m.mat),
    )


def literal_cross_mul(ctx):
    b, mp = ctx.b, ctx.maps
    idr, idb = Matrix.identity(ctx.r_dim), Matrix.identity(b.dim)
    c_br = ctx.a.backend.braiding_mat(b.carrier, ctx.r_obj)
    c_rr = ctx.a.backend.braiding_mat(ctx.r_obj, ctx.r_obj)
    return pipeline(
        (idr, b.delta.mat, mp.comul, idb),
        (idr, idb, c_br, idr, idb),
        (idr, mp.act_left, mp.act_b, idb),
        (mp.comul, mp.comul, idb, idb),
        (idr, mp.coact_left, idr, idr, idb, idb),
        (idr, idb, c_rr, idr, idb, idb),
        (idr, mp.act_left, idr, idr, b.m.mat),
        (mp.mul, mp.cocycle, idb),
        (idr, b.m.mat),
    )


def tensor_pair(r, b):
    """The matched pair with both actions trivial: R (x) B as a tensor product."""
    return MatchedPair(r, b, kron(b.eps.mat, Matrix.identity(r.dim)),
                       kron(Matrix.identity(b.dim), r.eps.mat))


@pytest.mark.parametrize("make", [
    lambda: tensor_pair(sweedler_h4(), sweedler_h4()),
    lambda: tensor_pair(sweedler_h4(), group_algebra(s3_group())),
    lambda: group_table_pair(s3_group(), ["e", "c", "c2"], ["e", "t"]),
    lambda: group_table_pair(*_s4_over_d4_c3()),
    lambda: tensor_pair(exterior_line(SUPER), exterior_line(SUPER)),
], ids=["h4_h4", "h4_ks3", "s3_table", "s4_table", "ext_super_ext_super"])
def test_products_through_psi_equal_their_literal_formulas(make):
    pair = make()
    assert build_double_cross(pair).m.mat == literal_double_cross_mul(pair)
    assert products._double_cross_mul(pair) == literal_double_cross_mul(pair)
    smash = build_smash(pair.r, pair.b, pair.act_r)
    assert smash.m.mat == literal_smash_mul(pair.r, pair.b, pair.act_r)


def test_the_signed_braiding_reaches_psi():
    # x (x) x in ext_super (x) ext_super: the odd x of B passes the odd x of R
    pair = tensor_pair(exterior_line(SUPER), exterior_line(SUPER))
    m = build_double_cross(pair).m.mat
    x1, one_x = 1 * 2 + 0, 0 * 2 + 1          # x (x) 1 and 1 (x) x in R (x) B
    assert m.entry(3, one_x * 4 + x1) == -1   # (1 (x) x)(x (x) 1) = -x (x) x
    assert m.entry(3, x1 * 4 + one_x) == 1


@pytest.mark.parametrize("make", [h4_c2, s3_c2, c4_c2, lambda: trivial(yd_kc2())],
                         ids=["h4_c2", "s3_c2", "c4_c2", "yd_kc2"])
def test_cross_product_through_psi_equals_the_nine_stage_formula(make):
    ctx = build_context(*make())
    assert build_cross_product(ctx).product.m.mat == literal_cross_mul(ctx)


def test_smash_and_double_cross_differ_when_the_right_action_is_not_trivial():
    # smash_equals_double_cross_mul compares two formulas; S3 over C3, where
    # act_b is not trivial, shows they are not one
    pair = derive_actions_cocomm(build_context(*s3_c3()))
    assert pair.act_b != kron(Matrix.identity(pair.b.dim), pair.r.eps.mat)
    assert build_smash(pair.r, pair.b, pair.act_r).m.mat != products._double_cross_mul(pair)
