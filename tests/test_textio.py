import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidhopf.builders import cyclic_group, group_algebra, sweedler_h4
from braidhopf.category import VEC, CatObject
from braidhopf.hopf import full_axiom_report
from braidhopf.linalg import Matrix
from braidhopf.textio import (_MAPS, LoadedAlgebra, ParseError, inclusion_by_names,
                              parse_algebra_file, parse_morphism_file, parse_scalar,
                              render_algebra, render_morphism, tensor_names)

H4_TEXT = """
# Sweedler's four dimensional example
hopf h4
backend vec
field rational
dim 4
basis one g x gx
mul one one -> one 1
mul one g -> g 1
mul one x -> x 1
mul one gx -> gx 1
mul g one -> g 1
mul g g -> one 1
mul g x -> gx 1
mul g gx -> x 1
mul x one -> x 1
mul x g -> gx -1
mul gx one -> gx 1
mul gx g -> x -1
unit -> one 1
comul one -> one one 1
comul g -> g g 1
comul x -> x one 1
comul x -> g x 1
comul gx -> gx g 1
comul gx -> one gx 1
counit one -> 1
counit g -> 1
antipode one -> one 1
antipode g -> g 1
antipode x -> gx -1
antipode gx -> x 1
"""


def test_parse_h4_matches_builder():
    loaded = parse_algebra_file(H4_TEXT)
    ref = sweedler_h4()
    assert loaded.kind == "hopf" and loaded.name == "h4"
    assert loaded.basis == ("one", "g", "x", "gx")
    assert loaded.algebra.m.mat == ref.m.mat
    assert loaded.algebra.delta.mat == ref.delta.mat
    assert loaded.algebra.s.mat == ref.s.mat
    assert all(c.status == "pass" for c in full_axiom_report(loaded.algebra))


def test_duplicate_entries_are_summed():
    text = H4_TEXT + "\nmul x g -> gx 2\nmul x g -> gx -1\n"
    loaded = parse_algebra_file(text)
    # -1 + 2 - 1 = 0, so the entry disappears
    assert loaded.algebra.m.mat.entry(3, 2 * 4 + 1) == 0


def test_unknown_basis_name_reports_line():
    bad = "hopf t\nbackend vec\ndim 1\nbasis z\nmul z w -> z 1\n"
    with pytest.raises(ParseError) as err:
        parse_algebra_file(bad)
    assert err.value.line == 5


@pytest.mark.parametrize("text, message", [
    ("hopf t\nbackend vec\ndim 2\nbasis z y\ncomul y -> y Z 1\n",
     "line 5: undeclared basis name 'Z'"),
    ("object v\nbackend vec\ndim 2\nbasis z y\ngrade w -> 0\n",
     "line 5: undeclared basis name 'w'"),
    ("hopf t\nbackend vec\ndim 1\nmul z z -> z 1\nbasis z\n",
     "line 4: basis must be declared before entries"),
    ("hopf t\nbackend vec\ndim 1\nunit -> z 1\nbasis z\n",
     "line 4: basis must be declared before entries"),
    ("hopf t\nbackend vec\ndim 1\ncomul z -> z z 1\nbasis z\n",
     "line 4: basis must be declared before entries"),
    ("hopf t\nbackend vec\ndim 1\ncounit z -> 1\nbasis z\n",
     "line 4: basis must be declared before entries"),
    ("hopf t\nbackend vec\ndim 1\nantipode z -> z 1\nbasis z\n",
     "line 4: basis must be declared before entries"),
    ("hopf t\nbackend vec\ndim 1\nmul w w -> z z 1/0\nbasis z\n",
     "line 4: usage: mul <i> <j> -> <k> <coeff>"),
    ("hopf t\nbackend vec\ndim 1\nunit -> z z 1/0\nbasis z\n",
     "line 4: usage: unit -> <i> <coeff>"),
    ("hopf t\nbackend vec\ndim 1\ncomul w -> z z z 1/0\nbasis z\n",
     "line 4: usage: comul <i> -> <j> <k> <coeff>"),
    ("hopf t\nbackend vec\ndim 1\ncounit w -> z 1/0\nbasis z\n",
     "line 4: usage: counit <i> -> <coeff>"),
    ("hopf t\nbackend vec\ndim 1\nantipode w -> z z 1/0\nbasis z\n",
     "line 4: usage: antipode <i> -> <j> <coeff>"),
], ids=["comul", "grade", "before_basis", "before_basis_unit", "before_basis_comul",
        "before_basis_counit", "before_basis_antipode", "before_basis_mul_usage_first",
        "before_basis_unit_usage_first", "before_basis_comul_usage_first",
        "before_basis_counit_usage_first", "before_basis_antipode_usage_first"])
def test_a_basis_name_outside_the_basis_line_names_its_line(text, message):
    with pytest.raises(ParseError) as err:
        parse_algebra_file(text)
    assert str(err.value) == message


def test_group_law_violation_caught():
    bad = ("hopf t\nbackend vec\ngroup brk\nelements e a\ntable e a\ntable a a\n"
           "dim 1\nbasis z\nunit -> z 1\ncomul z -> z z 1\ncounit z -> 1\n"
           "antipode z -> z 1\nmul z z -> z 1\n")
    with pytest.raises(ParseError, match="inverse|identity"):
        parse_algebra_file(bad)


def test_hopf_requires_antipode():
    text = "\n".join(l for l in H4_TEXT.splitlines() if not l.startswith("antipode"))
    with pytest.raises(ParseError, match="antipode"):
        parse_algebra_file(text)


def test_bialgebra_kind_rejects_antipode():
    text = H4_TEXT.replace("hopf h4", "bialgebra h4")
    with pytest.raises(ParseError, match="antipode"):
        parse_algebra_file(text)


def test_fraction_coefficients():
    text = ("bialgebra t\nbackend vec\ndim 1\nbasis z\nmul z z -> z 2/3\n"
            "unit -> z 3/2\ncomul z -> z z 1\ncounit z -> 1\n")
    loaded = parse_algebra_file(text)
    assert loaded.algebra.m.mat.entry(0, 0) == Fraction(2, 3)
    assert loaded.algebra.u.mat.entry(0, 0) == Fraction(3, 2)


@pytest.mark.parametrize("tok, value", [("3", 3), ("-4/2", -2), ("6/3", 2), ("2/3", Fraction(2, 3))])
def test_parse_scalar_gives_an_int_for_an_integral_coefficient(tok, value):
    got = parse_scalar(tok, 1)
    assert got == value and type(got) is type(value)


def test_grade_entries_need_a_graded_backend():
    text = ("bialgebra t\nbackend vec\ndim 1\nbasis z\ngrade z -> 1\n"
            "mul z z -> z 1\nunit -> z 1\ncomul z -> z z 1\ncounit z -> 1\n")
    with pytest.raises(ParseError, match="graded backend"):
        parse_algebra_file(text)


def test_object_file_with_yd_backend():
    text = ("object v\nbackend yd c2\ngroup c2\nelements e g\ntable e g\ntable g e\n"
            "dim 1\nbasis v\ngrade v -> g\naction g v -> v -1\n")
    loaded = parse_algebra_file(text)
    assert loaded.algebra is None
    assert loaded.obj.grading == (1,)
    assert loaded.obj.action[1] == Matrix.from_rows([[-1]])


def test_bichar_backend_round_trip():
    text = ("bialgebra l\nbackend graded c2 chi\ngroup c2\nelements e g\n"
            "table e g\ntable g e\nbichar chi\ntable 1 1\ntable 1 -1\n"
            "dim 2\nbasis one x\ngrade x -> g\n"
            "mul one one -> one 1\nmul one x -> x 1\nmul x one -> x 1\n"
            "unit -> one 1\ncomul one -> one one 1\ncomul x -> x one 1\n"
            "comul x -> one x 1\ncounit one -> 1\n")
    loaded = parse_algebra_file(text)
    assert loaded.backend.kind == "graded"
    rendered = render_algebra(loaded)
    again = parse_algebra_file(rendered)
    assert again.algebra.m.mat == loaded.algebra.m.mat
    assert again.obj.grading == loaded.obj.grading


def test_render_parse_round_trip_group_algebra():
    alg = group_algebra(cyclic_group(3, ["e", "c", "c2"]))
    loaded = LoadedAlgebra("hopf", "c3", VEC, ("e", "c", "c2"), alg.carrier, alg)
    text = render_algebra(loaded)
    again = parse_algebra_file(text)
    assert again.algebra.m.mat == alg.m.mat
    assert again.algebra.s.mat == alg.s.mat
    assert render_algebra(again) == text


def test_morphism_file_round_trip():
    a = parse_algebra_file(H4_TEXT)
    mat = Matrix.from_entries(4, 4, [(0, 0, 1), (2, 1, Fraction(1, 2))])
    text = render_morphism(mat, list(a.basis), list(a.basis))
    mor = parse_morphism_file(text, a, a)
    assert mor.mat == mat


def test_morphism_unknown_codomain_name():
    a = parse_algebra_file(H4_TEXT)
    with pytest.raises(ParseError, match="codomain"):
        parse_morphism_file("map one -> nope 1\n", a, a)


@pytest.mark.parametrize("text, message", [
    ("# sigma\nmap one -> one 1\nmap nope -> g 1\n", "line 3: unknown domain basis name 'nope'"),
    ("map one -> one 1\n\nmap g -> nope 1\n", "line 3: unknown codomain basis name 'nope'"),
])
def test_morphism_file_names_the_unknown_basis_name_and_its_line(text, message):
    a = parse_algebra_file(H4_TEXT)
    with pytest.raises(ParseError) as err:
        parse_morphism_file(text, a, a)
    assert (str(err.value), err.value.line) == (message, 3)


def test_a_repeated_basis_name_resolves_to_its_first_position():
    a = parse_algebra_file(H4_TEXT)
    u = LoadedAlgebra("object", "u", VEC, ("u", "u"), CatObject(2), None)
    mor = parse_morphism_file("map u -> x 1\n", u, a)
    assert mor.mat == Matrix.from_entries(4, 2, [(2, 0, 1)])


def test_inclusion_by_names_needs_every_name_in_the_codomain():
    a = parse_algebra_file(H4_TEXT)
    b = LoadedAlgebra("object", "b", VEC, ("one", "y"), CatObject(2), None)
    with pytest.raises(ParseError) as err:
        inclusion_by_names(b, a)
    assert err.value.line is None
    assert str(err.value) == ("basis name 'y' of b not found in h4; "
                              "pass an explicit morphism file")


def test_morphism_unspecified_columns_are_zero():
    a = parse_algebra_file(H4_TEXT)
    mor = parse_morphism_file("map g -> g 1\n", a, a)
    assert mor.mat.column(0) == {}


def test_tensor_names_dotted():
    assert tensor_names(["a", "b"], ["u"]) == ["a.u", "b.u"]


def test_inclusion_by_names():
    a = parse_algebra_file(H4_TEXT)
    btext = ("hopf c2\nbackend vec\ndim 2\nbasis one g\n"
             "mul one one -> one 1\nmul one g -> g 1\nmul g one -> g 1\nmul g g -> one 1\n"
             "unit -> one 1\ncomul one -> one one 1\ncomul g -> g g 1\n"
             "counit one -> 1\ncounit g -> 1\nantipode one -> one 1\nantipode g -> g 1\n")
    b = parse_algebra_file(btext)
    mor = inclusion_by_names(b, a)
    assert mor.mat == Matrix.from_entries(4, 2, [(0, 0, 1), (1, 1, 1)])


# -- the grammar, pinned message by message --------------------------------------

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
HEAD = "hopf t\nbackend vec\ndim 1\nbasis z\n"


# Malformed map lines, one of each kind for each keyword: no arrow, the arrow
# one place early or late, a token too many or too few, '->' or an undeclared
# name in each name slot, and a bad coefficient, alone or after an undeclared
# name.  A well-formed line is read by direct lookups; each of these must
# still get the message of its first fault in the order the checks run.
MALFORMED_MAP_LINES = [
    ("mul z -> z z 1", "usage: mul <i> <j> -> <k> <coeff>"),
    ("mul z z z -> 1", "usage: mul <i> <j> -> <k> <coeff>"),
    ("mul z z -> z z 1", "usage: mul <i> <j> -> <k> <coeff>"),
    ("mul z z z -> z 1", "usage: mul <i> <j> -> <k> <coeff>"),
    ("mul z z -> z", "usage: mul <i> <j> -> <k> <coeff>"),
    ("mul z z -> 1", "usage: mul <i> <j> -> <k> <coeff>"),
    ("mul -> z -> z 1", "usage: mul <i> <j> -> <k> <coeff>"),
    ("mul z z -> -> 1", "undeclared basis name '->'"),
    ("mul w z -> z 1", "undeclared basis name 'w'"),
    ("mul z w -> z 1", "undeclared basis name 'w'"),
    ("mul z z -> w 1", "undeclared basis name 'w'"),
    ("mul z z -> z 1/0", "bad coefficient '1/0'"),
    ("mul z z -> z one", "bad coefficient 'one'"),
    ("unit z 1", "expected '->'"),
    ("unit z -> 1", "usage: unit -> <i> <coeff>"),
    ("unit -> z z 1", "usage: unit -> <i> <coeff>"),
    ("unit -> z", "usage: unit -> <i> <coeff>"),
    ("unit -> 1", "usage: unit -> <i> <coeff>"),
    ("unit -> -> 1", "undeclared basis name '->'"),
    ("unit -> w 1", "undeclared basis name 'w'"),
    ("unit -> z 1/0", "bad coefficient '1/0'"),
    ("unit -> z one", "bad coefficient 'one'"),
    ("comul z z z 1", "expected '->'"),
    ("comul -> z z z 1", "usage: comul <i> -> <j> <k> <coeff>"),
    ("comul z z -> z 1", "usage: comul <i> -> <j> <k> <coeff>"),
    ("comul z -> z z z 1", "usage: comul <i> -> <j> <k> <coeff>"),
    ("comul z z -> z z 1", "usage: comul <i> -> <j> <k> <coeff>"),
    ("comul z -> z z", "usage: comul <i> -> <j> <k> <coeff>"),
    ("comul -> -> z z 1", "usage: comul <i> -> <j> <k> <coeff>"),
    ("comul z -> -> z 1", "undeclared basis name '->'"),
    ("comul w -> z z 1", "undeclared basis name 'w'"),
    ("comul z -> w z 1", "undeclared basis name 'w'"),
    ("comul z -> z w 1", "undeclared basis name 'w'"),
    ("comul z -> z z 1/0", "bad coefficient '1/0'"),
    ("comul z -> z z one", "bad coefficient 'one'"),
    ("counit z 1", "expected '->'"),
    ("counit -> z 1", "usage: counit <i> -> <coeff>"),
    ("counit z 1 ->", "usage: counit <i> -> <coeff>"),
    ("counit z z -> 1", "usage: counit <i> -> <coeff>"),
    ("counit z ->", "usage: counit <i> -> <coeff>"),
    ("counit -> -> 1", "usage: counit <i> -> <coeff>"),
    ("counit w -> 1", "undeclared basis name 'w'"),
    ("counit z -> 1/0", "bad coefficient '1/0'"),
    ("counit z -> one", "bad coefficient 'one'"),
    ("antipode z z 1", "expected '->'"),
    ("antipode -> z z 1", "usage: antipode <i> -> <j> <coeff>"),
    ("antipode z z -> 1", "usage: antipode <i> -> <j> <coeff>"),
    ("antipode z -> z z 1", "usage: antipode <i> -> <j> <coeff>"),
    ("antipode z z -> z 1", "usage: antipode <i> -> <j> <coeff>"),
    ("antipode z -> z", "usage: antipode <i> -> <j> <coeff>"),
    ("antipode -> -> z 1", "usage: antipode <i> -> <j> <coeff>"),
    ("antipode z -> -> 1", "undeclared basis name '->'"),
    ("antipode w -> z 1", "undeclared basis name 'w'"),
    ("antipode z -> w 1", "undeclared basis name 'w'"),
    ("antipode z -> z 1/0", "bad coefficient '1/0'"),
    ("antipode z -> z one", "bad coefficient 'one'"),
    ("mul w w -> z 1/0", "undeclared basis name 'w'"),
    ("comul w -> z z 1/0", "undeclared basis name 'w'"),
    ("counit w -> 1/0", "undeclared basis name 'w'"),
    ("antipode w -> z 1/0", "undeclared basis name 'w'"),
]


@pytest.mark.parametrize("line, usage", [
    ("mul z -> z 1", "usage: mul <i> <j> -> <k> <coeff>"),
    ("unit z -> z 1", "usage: unit -> <i> <coeff>"),
    ("comul z -> z 1", "usage: comul <i> -> <j> <k> <coeff>"),
    ("counit z -> z 1", "usage: counit <i> -> <coeff>"),
    ("antipode z -> 1", "usage: antipode <i> -> <j> <coeff>"),
    ("dim 1", "duplicate dim line"),
    ("basis z", "duplicate basis line"),
    # a map line's first error: the arrow, then its place and the token
    # count, then the names left to right
    ("mul z z z 1", "expected '->'"),
    ("mul z -> -> z 1", "usage: mul <i> <j> -> <k> <coeff>"),
    ("comul z -> z -> 1", "undeclared basis name '->'"),
    *MALFORMED_MAP_LINES,
])
def test_wrong_arity_gives_the_usage_line(line, usage):
    with pytest.raises(ParseError) as err:
        parse_algebra_file(HEAD + line + "\n")
    assert str(err.value) == f"line 5: {usage}"


@pytest.mark.parametrize("token", ["\u00b2", "\u2460", "\u0663", "\uff13", "-1", "two"])
def test_a_dim_that_is_not_a_decimal_number_gives_the_usage_line(token):
    # superscript and circled digits pass str.isdigit but not int(); Arabic-Indic
    # and full-width digits pass int() but are not ASCII
    with pytest.raises(ParseError) as err:
        parse_algebra_file(f"hopf t\nbackend vec\ndim {token}\nbasis z\n")
    assert str(err.value) == "line 3: usage: dim <n>"


GROUP_C2 = "group c2\nelements e g\ntable e g\ntable g e\n"
BICHAR_CHI = "bichar chi\ntable 1 1\ntable 1 -1\n"
with open(os.path.join(CORPUS, "algebras", "ext_super.alg"), encoding="utf-8") as fh:
    EXT_SUPER_TEXT = fh.read()


@pytest.mark.parametrize("text, message", [
    (EXT_SUPER_TEXT + "grade x -> 0\n", "line 17: duplicate grade for 'x'"),
    ("object v\nbackend yd c2\n" + GROUP_C2 + GROUP_C2, "line 7: duplicate group 'c2'"),
    ("object v\nbackend graded c2 chi\n" + GROUP_C2 + BICHAR_CHI + BICHAR_CHI,
     "line 10: duplicate bichar 'chi'"),
    ("object v\nbackend yd c2\ngroup c2\nelements e g\nelements e g\n",
     "line 5: duplicate elements line"),
], ids=["grade", "group", "bichar", "elements"])
def test_a_repeated_declaration_is_a_parse_error(text, message):
    # a second grade, group, bichar or elements line would override the first
    with pytest.raises(ParseError) as err:
        parse_algebra_file(text)
    assert str(err.value) == message


@pytest.mark.parametrize("table, message", [
    ("table e g\ntable g q\n", "line 6: table entry is not a declared element"),
    ("table e g\ntable g\n", "line 6: table row of wrong length"),
], ids=["undeclared", "short_row"])
def test_a_bad_group_table_row_names_its_line(table, message):
    with pytest.raises(ParseError) as err:
        parse_algebra_file("object v\nbackend yd c2\ngroup c2\nelements e g\n" + table
                           + "dim 1\nbasis v\n")
    assert str(err.value) == message


@pytest.mark.parametrize("name", ["a.b", "->"])
def test_a_basis_name_with_a_dot_or_named_arrow_is_a_parse_error(name):
    # tensor basis names are dotted pairs, so B = {a, a.b} and R = {b.c, c}
    # would both name a.b.c in B (x) R; and a basis named '->' could never be
    # written in a counit line
    with pytest.raises(ParseError) as err:
        parse_algebra_file(f"object v\nbackend vec\ndim 2\nbasis z {name}\n")
    assert str(err.value) == f"line 4: basis name {name!r} contains '.' or is '->'"


@pytest.mark.parametrize("backend, blocks, message", [
    (None, "", "missing backend line"),
    ("", "", "line 2: unknown backend ''"),
    ("foo", "", "line 2: unknown backend 'foo'"),
    ("vec x", "", "line 2: usage: backend vec"),
    ("super x", "", "line 2: usage: backend super"),
    ("graded c2", GROUP_C2, "line 2: usage: backend graded <group> <bichar>"),
    ("yd", GROUP_C2, "line 2: usage: backend yd <group>"),
    ("yd c2 chi", GROUP_C2 + BICHAR_CHI, "line 2: usage: backend yd <group>"),
    ("graded c3 chi", GROUP_C2 + BICHAR_CHI, "line 2: unknown group 'c3'"),
    ("yd c3", GROUP_C2, "line 2: unknown group 'c3'"),
    ("graded c2 psi", GROUP_C2 + BICHAR_CHI, "line 2: unknown bichar 'psi'"),
    # the arity is checked before the group, and the group before the bichar
    ("graded c3", GROUP_C2, "line 2: usage: backend graded <group> <bichar>"),
    ("graded c3 psi", GROUP_C2 + BICHAR_CHI, "line 2: unknown group 'c3'"),
    # a group block's fault comes before the backend line's
    ("foo", "group c2\nelements e g\ntable e g\n",
     "line 3: group c2 needs one table row per element"),
], ids=["missing", "empty", "foo", "vec", "super", "graded", "yd", "yd_long", "graded_group",
        "yd_group", "bichar", "arity_first", "group_first", "block_first"])
def test_a_bad_backend_line_gives_its_message(backend, blocks, message):
    head = "object v\n" if backend is None else f"object v\nbackend {backend}\n"
    with pytest.raises(ParseError) as err:
        parse_algebra_file(head + blocks + "dim 1\nbasis v\n")
    assert str(err.value) == message


with open(os.path.join(CORPUS, "algebras", "c2.alg"), encoding="utf-8") as fh:
    C2_TEXT = fh.read()


@pytest.mark.parametrize("text, message", [
    (C2_TEXT + "group z\nelements e\ntable e\n",
     "line 16: group 'z' is not named by the backend line"),
    ("object v\nbackend yd c2\n" + GROUP_C2 + BICHAR_CHI + "dim 1\nbasis v\n",
     "line 7: bichar 'chi' is not named by the backend line"),
    ("object v\nbackend graded c2 chi\n" + GROUP_C2 + BICHAR_CHI
     + GROUP_C2.replace("group c2", "group c2b") + "dim 1\nbasis v\n",
     "line 10: group 'c2b' is not named by the backend line"),
    # of several unnamed blocks, the first in file order is reported
    ("object v\nbackend vec\nbichar chi\ntable 1\ngroup z\nelements e\ntable e\n"
     "dim 1\nbasis v\n",
     "line 3: bichar 'chi' is not named by the backend line"),
], ids=["vec_group", "yd_bichar", "graded_second_group", "vec_bichar_before_group"])
def test_a_block_the_backend_line_does_not_name_is_a_parse_error(text, message):
    # rendering writes back only the named blocks, so another one would be lost
    with pytest.raises(ParseError) as err:
        parse_algebra_file(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("object t\nbackend vec\ndim 1\nbasis z\nmul z z -> z 1\n",
     "object files cannot carry mul entries"),
    ("coalgebra t\nbackend vec\ndim 1\nbasis z\ncomul z -> z z 1\ncounit z -> 1\n"
     "unit -> z 1\n", "coalgebra files cannot carry unit entries"),
    (H4_TEXT.replace("hopf h4", "bialgebra h4"), "bialgebra files cannot carry antipode entries"),
    ("\n".join(l for l in H4_TEXT.splitlines() if not l.startswith("antipode")),
     "hopf files need antipode entries"),
])
def test_kind_rules_give_their_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_algebra_file(text)
    assert err.value.line is None and str(err.value) == message


def test_antipode_lines_that_cancel_still_count_as_antipode_lines():
    # the kind rules ask whether a keyword has a line, not whether its entries
    # sum to non-zero
    text = HEAD + "antipode z -> z 1\nantipode z -> z -1\n"
    assert parse_algebra_file(text).algebra.s.mat.nnz == 0
    with pytest.raises(ParseError) as err:
        parse_algebra_file(text.replace("hopf t", "bialgebra t"))
    assert str(err.value) == "bialgebra files cannot carry antipode entries"


def test_repeated_halves_sum_to_an_int():
    text = HEAD + "mul z z -> z 1/2\n" * 2 + "antipode z -> z 1\n"
    got = parse_algebra_file(text).algebra.m.mat.entry(0, 0)
    assert got == 1 and type(got) is int


COEFFICIENTS = ["0", "1", "-1", "2", "-2", "1/2", "-1/2", "1/3"]


@st.composite
def map_lines(draw):
    """A basis of 2 or 3 names and, per keyword, (in, out, coefficient) lines
    over it; few names make repeated positions common."""
    n = draw(st.integers(2, 3))
    lines = {}
    for kw, (_, k_in, k_out) in _MAPS.items():
        entry = st.tuples(st.lists(st.integers(0, n - 1), min_size=k_in, max_size=k_in),
                          st.lists(st.integers(0, n - 1), min_size=k_out, max_size=k_out),
                          st.sampled_from(COEFFICIENTS))
        lines[kw] = draw(st.lists(entry, min_size=kw == "antipode", max_size=12))
    return n, lines


def kron_index(idx, n):
    return sum(i * n ** p for p, i in enumerate(reversed(idx)))


@given(map_lines())
@settings(max_examples=100, deadline=None)
def test_map_lines_parse_to_the_matrices_from_entries_builds(drawn):
    n, lines = drawn
    names = "abc"[:n]
    text = f"hopf t\nbackend vec\ndim {n}\nbasis {' '.join(names)}\n" + "".join(
        " ".join([kw, *(names[i] for i in ins), "->", *(names[o] for o in outs), c]) + "\n"
        for kw, entries in lines.items() for ins, outs, c in entries)
    loaded = parse_algebra_file(text)
    for kw, (field, k_in, k_out) in _MAPS.items():
        mat = getattr(loaded.algebra, field).mat
        assert mat == Matrix.from_entries(
            n ** k_out, n ** k_in,
            [(kron_index(outs, n), kron_index(ins, n), Fraction(c)) for ins, outs, c in lines[kw]])
        assert all(type(v) is int or v.denominator != 1
                   for col in mat.columns() for v in col.values())


CORPUS_DEFINITIONS = sorted(
    os.path.join(sub, name) for sub in ("algebras", "objects")
    for name in os.listdir(os.path.join(CORPUS, sub)))


def test_corpus_has_eighteen_definition_files():
    assert len(CORPUS_DEFINITIONS) == 18


@pytest.mark.parametrize("relpath", CORPUS_DEFINITIONS)
def test_corpus_definitions_render_back_to_their_text(relpath):
    with open(os.path.join(CORPUS, relpath), encoding="utf-8") as fh:
        text = fh.read()
    assert render_algebra(parse_algebra_file(text)) == text
