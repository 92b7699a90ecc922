"""The definition-file grammar: parsing and canonical rendering.

Files are line oriented; '#' starts a comment.  An algebra file looks like

    hopf h4                      # or: bialgebra / coalgebra / object <name>
    backend vec                  # vec | super | graded <group> <bichar> | yd <group>
    field rational               # optional; rational is the only legal value
    dim 4
    basis one g x gx
    mul g g -> one 1             # repeatable, duplicate entries are summed
    unit -> one 1
    comul x -> x one 1
    counit one -> 1
    antipode x -> gx -1          # hopf files only
    grade v -> 1                 # an element of the backend's group; super's are 0 and 1
    action g v -> w -1/2         # yd files only

Each structure-map line is one matrix entry of a map A^(x in) -> A^(x out),
with `in` basis names, `->`, `out` basis names and the coefficient; tensors of
basis vectors are indexed in Kronecker (base-dim) order.  The arities (in, out)
are mul (2, 1), unit (0, 1), comul (1, 2), counit (1, 0), antipode (1, 1).
A well-formed map line takes direct lookups straight into its matrix column;
only a malformed one reaches the checks that name its first fault.  A
repeated entry is summed and normalized (an integral sum is an int), a zero
sum dropped.  Whether a keyword has a line, not what its entries sum to,
decides which maps a kind may carry and that a hopf file carries an antipode.
The header, backend, dim and basis lines appear once each, and so does the
grade line of a basis name.

Group and bicharacter blocks may appear in the same file, one block per name
and one elements line per group; the backend line must name every block:

    group c2
    elements e g
    table e g
    table g e

    bichar chi
    table 1 1
    table 1 -1

Morphism files contain `map <dom-basis> -> <cod-basis> <coeff>` lines;
unspecified columns are zero.  Basis names of tensor-product objects are
dotted pairs like `g.x`, so a declared basis name contains no `.` and is
not `->`.  Numbers are exact and in ASCII digits: a coefficient
is -?[0-9]+(/[0-9]+)?, a bichar entry -?[0-9]+ and a dim [0-9]+.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .category import (Backend, CatObject, FiniteGroup, Morphism,
                       SignGradedBackend, SUPER, VEC, YetterDrinfeldBackend)
from .hopf import make_bialgebra, make_coalgebra
from .linalg import Matrix, _frac

COUNT = re.compile("[0-9]+")                  # dim; a bichar entry is -?COUNT
_COEFFICIENT = re.compile("-?[0-9]+(/[0-9]+)?")


class ParseError(ValueError):
    def __init__(self, line: int | None, message: str):
        self.line = line
        if line is None:
            super().__init__(message)
        else:
            super().__init__(f"line {line}: {message}")


@dataclass(eq=False, repr=False)
class LoadedAlgebra:
    """A parsed definition file."""

    kind: str                        # hopf | bialgebra | coalgebra | object
    name: str
    backend: Backend
    basis: tuple[str, ...]
    obj: CatObject
    algebra: object | None           # HopfAlgebra / BraidedBialgebra / Coalgebra / None

    @property
    def dim(self) -> int:
        return len(self.basis)


def parse_scalar(tok: str, line: int) -> int | Fraction:
    """An integer or p/q coefficient; an integral one comes back as an int."""
    num, _, den = tok.partition("/")
    if _COEFFICIENT.fullmatch(tok) and int(den or 1):
        return _frac(Fraction(int(num), int(den))) if den else int(num)
    raise ParseError(line, f"bad coefficient {tok!r}")


def _tokenize(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


# keyword -> (field, in, out): each entry is one matrix entry of A^(x in) -> A^(x out)
_MAPS = {"mul": ("m", 2, 1), "unit": ("u", 0, 1), "comul": ("delta", 1, 2),
         "counit": ("eps", 1, 0), "antipode": ("s", 1, 1)}
# the keywords each kind may carry, in _MAPS order
_CARRIES = {"object": (), "coalgebra": ("comul", "counit"),
            "bialgebra": ("mul", "unit", "comul", "counit"), "hopf": tuple(_MAPS)}


def parse_algebra_file(text: str) -> LoadedAlgebra:
    kind = name = None
    backend_spec: list[str] | None = None
    backend_line = None
    dim = None
    basis: dict[str, int] | None = None   # basis name -> its position, in order
    columns: dict[str, list[dict]] = {}   # keyword -> its matrix's {row: value} columns
    scalars: dict[str, int | Fraction] = {}   # coefficient token -> its value
    grades: dict[str, tuple[str, int]] = {}
    actions: list = []
    blocks: dict[tuple[str, str], dict] = {}   # ("group"|"bichar", name) -> its lines
    block = None                      # the key of the open block

    def need_basis(tok: str, line: int) -> int:
        if basis is None:
            raise ParseError(line, "basis must be declared before entries")
        try:
            return basis[tok]
        except KeyError:
            raise ParseError(line, f"undeclared basis name {tok!r}")

    def split_arrow(toks: list[str], line: int) -> tuple[list[str], list[str]]:
        if "->" not in toks:
            raise ParseError(line, "expected '->'")
        k = toks.index("->")
        return toks[:k], toks[k + 1:]

    for line, toks in _tokenize(text):
        head = toks[0]
        if (spec := _MAPS.get(head)) is not None:
            _, k_in, k_out = spec
            flat = 0   # the names' tensor in A^(x in+out): column j, then row i
            try:       # a well-formed line: k_in names, '->', k_out names, coefficient
                if basis is None or len(toks) != k_in + k_out + 3 or toks[k_in + 1] != "->":
                    raise KeyError
                for tok in toks[1:k_in + 1] + toks[k_in + 2:-1]:
                    flat = basis[tok] + flat * dim
            except KeyError:   # a malformed one: these checks name its first fault
                lhs, rhs = split_arrow(toks[1:], line)
                if len(lhs) != k_in or len(rhs) != k_out + 1:
                    slots = [f"<{c}>" for c in "ijk"[:k_in + k_out]]
                    raise ParseError(line, " ".join(["usage:", head, *slots[:k_in], "->",
                                                     *slots[k_in:], "<coeff>"]))
                for tok in lhs + rhs[:-1]:
                    need_basis(tok, line)
            v = scalars.get(toks[-1])
            if v is None:
                v = scalars[toks[-1]] = parse_scalar(toks[-1], line)
            if head not in columns:
                columns[head] = [{} for _ in range(dim ** k_in)]
            j, i = divmod(flat, dim ** k_out)
            col = columns[head][j]
            if i in col:
                v = _frac(col.pop(i) + v)
            if v:
                col[i] = v
        elif head in _CARRIES:
            if kind is not None:
                raise ParseError(line, "duplicate header (one definition per file)")
            if len(toks) != 2:
                raise ParseError(line, f"usage: {head} <name>")
            kind, name = head, toks[1]
            block = None
        elif head in ("group", "bichar"):
            if len(toks) != 2:
                raise ParseError(line, f"usage: {head} <name>")
            block = (head, toks[1])
            if block in blocks:
                raise ParseError(line, f"duplicate {head} {toks[1]!r}")
            blocks[block] = {"elements": None, "table": [], "line": line}
        elif head == "elements":
            if block is None or block[0] != "group":
                raise ParseError(line, "'elements' outside a group block")
            if blocks[block]["elements"] is not None:
                raise ParseError(line, "duplicate elements line")
            blocks[block]["elements"] = toks[1:]
        elif head == "table":
            if block is None:
                raise ParseError(line, "'table' outside a group or bichar block")
            blocks[block]["table"].append((line, toks[1:]))
        elif head == "backend":
            if backend_spec is not None:
                raise ParseError(line, "duplicate backend line")
            backend_spec, backend_line = toks[1:], line
        elif head == "field":
            if toks[1:] != ["rational"]:
                raise ParseError(line, "only 'field rational' is supported")
        elif head == "dim":
            if dim is not None:
                raise ParseError(line, "duplicate dim line")
            if len(toks) != 2 or not COUNT.fullmatch(toks[1]):
                raise ParseError(line, "usage: dim <n>")
            dim = int(toks[1])
        elif head == "basis":
            if basis is not None:
                raise ParseError(line, "duplicate basis line")
            if dim is None:
                raise ParseError(line, "dim must precede basis")
            if len(toks[1:]) != dim:
                raise ParseError(line, f"expected {dim} basis names, got {len(toks[1:])}")
            if len(set(toks[1:])) != dim:
                raise ParseError(line, "duplicate basis names")
            for tok in toks[1:]:
                if "." in tok or tok == "->":
                    raise ParseError(line, f"basis name {tok!r} contains '.' or is '->'")
            basis = {tok: i for i, tok in enumerate(toks[1:])}
        elif head == "grade":
            lhs, rhs = split_arrow(toks[1:], line)
            if len(lhs) != 1 or len(rhs) != 1:
                raise ParseError(line, "usage: grade <i> -> <degree>")
            need_basis(lhs[0], line)
            if lhs[0] in grades:
                raise ParseError(line, f"duplicate grade for {lhs[0]!r}")
            grades[lhs[0]] = (rhs[0], line)
        elif head == "action":
            lhs, rhs = split_arrow(toks[1:], line)
            if len(lhs) != 2 or len(rhs) != 2:
                raise ParseError(line, "usage: action <g> <i> -> <j> <coeff>")
            actions.append((lhs[0], need_basis(lhs[1], line),
                            need_basis(rhs[0], line), parse_scalar(rhs[1], line), line))
        else:
            raise ParseError(line, f"unknown keyword {head!r}")

    if kind is None:
        raise ParseError(None, "missing header line (hopf/bialgebra/coalgebra/object)")
    if dim is None or basis is None:
        raise ParseError(None, "missing dim or basis declaration")

    groups = {}
    for (block_kind, gname), g in blocks.items():
        if block_kind != "group":
            continue
        if g["elements"] is None:
            raise ParseError(g["line"], f"group {gname} has no elements line")
        elems = g["elements"]
        if len(g["table"]) != len(elems):
            raise ParseError(g["line"], f"group {gname} needs one table row per element")
        index = {t: k for k, t in enumerate(elems)}
        table = []
        for tline, row in g["table"]:
            if len(row) != len(elems):
                raise ParseError(tline, "table row of wrong length")
            try:
                table.append([index[t] for t in row])
            except KeyError:
                raise ParseError(tline, "table entry is not a declared element")
        try:
            groups[gname] = FiniteGroup.from_table(gname, elems, table)
        except ValueError as exc:
            raise ParseError(g["line"], str(exc))

    backend = _build_backend(backend_spec, backend_line, groups, blocks)
    # the backend line names at most one group (its second token) and one
    # bichar (its third); rendering writes back only those
    named = set(zip(("group", "bichar"), backend_spec[1:3]))
    for key, blk in blocks.items():
        if key not in named:
            raise ParseError(blk["line"], f"{key[0]} {key[1]!r} is not named by the backend line")
    obj = _build_object(backend, dim, basis, grades, actions)
    for check, witness in backend.object_verdicts(obj):
        if witness is not None:
            raise ParseError(None, f"invalid object data: {check}")

    for kw in _MAPS:
        if kw in columns and kw not in _CARRIES[kind]:
            raise ParseError(None, f"{kind} files cannot carry {kw} entries")
    if kind == "hopf" and "antipode" not in columns:
        raise ParseError(None, "hopf files need antipode entries")
    mats = {}
    for kw in _CARRIES[kind]:
        field, k_in, k_out = _MAPS[kw]
        mats[field] = Matrix(dim ** k_out, dim ** k_in,
                             columns.get(kw) or [{} for _ in range(dim ** k_in)])
    if kind == "object":
        alg = None
    elif kind == "coalgebra":
        alg = make_coalgebra(backend, obj, **mats)
    else:
        alg = make_bialgebra(backend, obj, **mats)
    return LoadedAlgebra(kind, name, backend, tuple(basis), obj, alg)


# backend kind -> its usage after "backend": the words a backend line carries there
_BACKENDS = {"vec": "vec", "super": "super", "graded": "graded <group> <bichar>",
             "yd": "yd <group>"}


def _build_backend(spec, line, groups, blocks):
    if spec is None:
        raise ParseError(None, "missing backend line")
    kind = spec[0] if spec else ""
    usage = _BACKENDS.get(kind)
    if usage is None:
        raise ParseError(line, f"unknown backend {kind!r}")
    if len(spec) != len(usage.split()):
        raise ParseError(line, f"usage: backend {usage}")
    if kind == "vec":
        return VEC
    if kind == "super":
        return SUPER
    group = groups.get(spec[1])
    if group is None:
        raise ParseError(line, f"unknown group {spec[1]!r}")
    if kind == "yd":
        return YetterDrinfeldBackend(group)
    if ("bichar", spec[2]) not in blocks:
        raise ParseError(line, f"unknown bichar {spec[2]!r}")
    rows = []
    for tline, row in blocks["bichar", spec[2]]["table"]:
        if not all(COUNT.fullmatch(v.removeprefix("-")) for v in row):
            raise ParseError(tline, "bichar entries must be 1 or -1")
        rows.append([int(v) for v in row])
    try:
        return SignGradedBackend.make(group, rows)
    except ValueError as exc:
        raise ParseError(line, str(exc))


def _element(group: FiniteGroup, tok: str, line: int | None) -> int:
    try:
        return group.index(tok)
    except ValueError:
        raise ParseError(line, f"unknown group element {tok!r}")


def _build_object(backend, dim, basis, grades, actions):
    grading = None
    action = None
    if backend.kind == "vec":
        if grades:
            first = next(iter(grades.values()))
            raise ParseError(first[1], "grade entries need a graded backend")
    else:
        group = backend.group
        identity = group.elements[group.identity]
        grading = tuple(_element(group, *grades.get(b, (identity, None))) for b in basis)
    if backend.kind == "yd":
        mats = {g: [] for g in range(len(group.elements))}
        for gtok, i, j, v, line in actions:
            mats[_element(group, gtok, line)].append((j, i, v))
        action = tuple(
            Matrix.from_entries(dim, dim, mats[g]) if mats[g] else Matrix.identity(dim)
            for g in range(len(group.elements)))
    elif actions:
        raise ParseError(actions[0][4], "action entries need the yd backend")
    return CatObject(dim, grading=grading, action=action)


def parse_morphism_file(text: str, dom: LoadedAlgebra, cod: LoadedAlgebra) -> Morphism:
    """Entries `map <i> -> <j> <coeff>` over the basis names of dom and cod;
    unspecified columns are zero."""
    dom_at, cod_at = _positions(dom.basis), _positions(cod.basis)
    entries = []
    for line, toks in _tokenize(text):
        if toks[0] != "map":
            raise ParseError(line, f"unknown keyword {toks[0]!r} in morphism file")
        if len(toks) != 5 or toks[2] != "->":
            raise ParseError(line, "usage: map <i> -> <j> <coeff>")
        src, dst, coeff = toks[1], toks[3], parse_scalar(toks[4], line)
        if src not in dom_at:
            raise ParseError(line, f"unknown domain basis name {src!r}")
        if dst not in cod_at:
            raise ParseError(line, f"unknown codomain basis name {dst!r}")
        entries.append((cod_at[dst], dom_at[src], coeff))
    return Morphism(dom.obj, cod.obj, Matrix.from_entries(cod.dim, dom.dim, entries))


def _positions(names) -> dict[str, int]:
    """{name: its first position in names}."""
    return {nm: k for k, nm in reversed(list(enumerate(names)))}


def tensor_names(a: list[str], b: list[str]) -> list[str]:
    return [f"{x}.{y}" for x in a for y in b]


def inclusion_by_names(b: LoadedAlgebra, a: LoadedAlgebra) -> Morphism:
    """Canonical inclusion when every basis name of b occurs in a."""
    entries, a_at = [], _positions(a.basis)
    for j, nm in enumerate(b.basis):
        if nm not in a_at:
            raise ParseError(None, f"basis name {nm!r} of {b.name} not found in {a.name}; "
                                   "pass an explicit morphism file")
        entries.append((a_at[nm], j, 1))
    return Morphism(b.obj, a.obj, Matrix.from_entries(a.dim, b.dim, entries))


# -- canonical rendering -------------------------------------------------------

def _entry_lines(kw: str, mat: Matrix, col_names: list[tuple], row_names: list[tuple]) -> list[str]:
    """`<kw> <col names> -> <row names> <coeff>` for each nonzero entry, column-major."""
    return [" ".join((kw, *col, "->", *row_names[i], str(v)))
            for j, col in enumerate(col_names) for i, v in sorted(mat.column(j).items())]


def render_group(g: FiniteGroup) -> str:
    lines = [f"group {g.name}", "elements " + " ".join(g.elements)]
    for row in g.table:
        lines.append("table " + " ".join(g.elements[k] for k in row))
    return "\n".join(lines)


def render_algebra(loaded: LoadedAlgebra) -> str:
    """Canonical text form; sparse entries in ascending index order."""
    basis = loaded.basis
    lines = [f"{loaded.kind} {loaded.name}"]
    backend = loaded.backend
    if backend.kind == "vec":
        lines.append("backend vec")
    elif backend.kind == "super":
        lines.append("backend super")
    elif backend.kind == "graded":
        lines += [f"backend graded {backend.group.name} chi", render_group(backend.group),
                  "bichar chi"]
        lines += ["table " + " ".join(str(v) for v in row) for row in backend.bichar]
    else:
        lines += [f"backend yd {backend.group.name}", render_group(backend.group)]
    lines.append(f"dim {loaded.dim}")
    lines.append("basis " + " ".join(basis))
    obj = loaded.obj
    if obj.grading is not None:
        for b, deg in zip(basis, obj.grading):
            lines.append(f"grade {b} -> {backend.group.elements[deg]}")
    names = [list(product(basis, repeat=k)) for k in range(3)]   # bases of A^(x k)
    if obj.action is not None:
        for g, mat in enumerate(obj.action):
            lines += _entry_lines(f"action {backend.group.elements[g]}", mat, names[1], names[1])
    for kw in _CARRIES[loaded.kind]:
        field, k_in, k_out = _MAPS[kw]
        lines += _entry_lines(kw, getattr(loaded.algebra, field).mat, names[k_in], names[k_out])
    return "\n".join(lines) + "\n"


def render_morphism(mat: Matrix, dom_names: list[str], cod_names: list[str]) -> str:
    return "\n".join(_entry_lines("map", mat, [(nm,) for nm in dom_names],
                                   [(nm,) for nm in cod_names])) + "\n"
