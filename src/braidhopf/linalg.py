"""Exact rational matrices: the substrate every identity is decided on.

Entries are ``int`` or ``fractions.Fraction`` values.  Integer input stays
machine ``int`` through products, Kronecker products and pipelines, and
``_frac`` turns an integral ``Fraction`` into an ``int``; a ``Fraction``
appears only where the input or a division makes one.  An ``int`` and an
equal ``Fraction`` compare, hash and print alike, so every comparison in the
package is exact; there is no tolerance anywhere.  Matrices have dense
semantics (a rows x cols grid) but store one ``{row: value}`` dict per
column, which keeps the large Kronecker composites arising from tensor
formulas cheap.  ``Matrix.from_entries`` is the one constructor that
normalizes a value by ``_frac``, sums and stores it; ``from_rows`` and
``from_cols`` check their shapes and hand it their values.

Row reduction has one routine: an echelon, a ``{leading column: row with
leading entry 1}`` dict, that a vector is reduced by (``_reduce``) or
extended with (``_extend``).  ``_eliminate`` grows one from the rows of
[a | b], back-substitutes it and reads off both the solution of a x = b
and the kernel of a; rank, inverse, kernels, equalizers and every solve
each take the part they need.  ``generating_set`` grows one from products,
for span membership.  ``_eliminate``'s pivot rule: rows taken fewest
entries first, each reduced against the pivot rows so far, then
back-substituted; outputs are the unique reduced row echelon form.  Which
row carries a pivot changes no result, because that form is unique, so
identical inputs always produce identical bases and solutions.  A missing
answer (``inverse``, ``solve_matrix``, ``solve_affine``'s particular
solution) is ``None``, never an exception; ``ShapeMismatch`` means
operands whose shapes do not fit.

``Formula`` is the one evaluator of tensor formulas; ``kron`` keeps a loop
of its own so that the tests can check ``Formula`` against it.  A formula
is a list of stages, each a matrix or a tuple of matrices meaning their
Kronecker product, applied to one basis column at a time.  Each stage is
laid out once as steps: a plain stage is one step, and a tuple stage one
padded step I (x) f (x) I_lo per factor f that is not an identity, where
lo is the product of the rows of the factors to its right; the steps apply
rightmost first, and an identity factor survives only as a stride.  A
step splits an index into the digits left of f, f's digit and the low
part, and reads f's stored column at that digit only when a column being
evaluated needs it.  So the product is never materialized, and building a
formula reads no factor column.
A column with one entry travels between steps as an (index, value) pair,
not a dict: that is every column of a monomial map (a group algebra's
product, a flip), so such formulas build no dict until the column is
yielded.  Only a step that reads a column of two or more entries turns the
pair into a dict, and a step result of one entry turns back into a pair.
Checks stream: ``Matrix.first_difference`` (and through it
``report.eq_check``) reads a Formula column by column, holds one column of
each side and stops at the first column that differs.  Its optional column
selector, an ascending iterable of column numbers read lazily, restricts a
scan to those columns (``Matrix.columns(js)``, ``Formula.columns(js)``) and
keeps their numbers, which is how ``hopf`` reads an identity only at the
columns of a generating set.  ``pipeline`` is ``Formula(...).materialize()``,
for values that are read more than once.

``map_system`` builds every system whose unknown is a map X: each identity
the map must satisfy is a pair (lhs, rhs) of tensor formulas affine in X,
written as it is checked.  Each side is evaluated once, on an X of linear
forms in the unknowns (``_Lin``), and scattered with its sign: the entries
of d = lhs - rhs, never formed, are the rows of the system and their negated
constants the right-hand side.  Forms are never mutated, so a form times 1
or plus 0 is that form.  ``_eliminate`` solves it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import tee
from math import prod
from typing import Iterable, Iterator, Sequence


class ShapeMismatch(ValueError):
    pass


def _frac(x) -> int | Fraction:
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


class Matrix:
    """Immutable exact matrix over the rationals."""

    __slots__ = ("rows", "cols", "_cols")

    def __init__(self, rows: int, cols: int, coldicts: Sequence[dict]):
        if rows < 0 or cols < 0 or len(coldicts) != cols:
            raise ShapeMismatch(f"bad shape {rows}x{cols} with {len(coldicts)} columns")
        self.rows = rows
        self.cols = cols
        self._cols = tuple(coldicts)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(entries: Sequence[Sequence]) -> "Matrix":
        cols = len(entries[0]) if entries else 0
        if any(len(row) != cols for row in entries):
            raise ShapeMismatch("ragged rows")
        return Matrix.from_entries(len(entries), cols, ((i, j, v) for i, row in enumerate(entries)
                                                        for j, v in enumerate(row)))

    @staticmethod
    def from_cols(rows: int, columns: Sequence[Sequence]) -> "Matrix":
        if any(len(col) != rows for col in columns):
            raise ShapeMismatch("column of wrong length")
        return Matrix.from_entries(rows, len(columns), ((i, j, v) for j, col in enumerate(columns)
                                                        for i, v in enumerate(col)))

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Iterable[tuple[int, int, object]]) -> "Matrix":
        """The rows x cols matrix of the (i, j, value) entries: each value is
        normalized by ``_frac``, a repeated (i, j) summed, a zero dropped."""
        coldicts: list[dict] = [dict() for _ in range(cols)]
        for i, j, v in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch(f"entry ({i},{j}) outside {rows}x{cols}")
            fv = _frac(coldicts[j].get(i, 0) + _frac(v))
            if fv:
                coldicts[j][i] = fv
            elif i in coldicts[j]:
                del coldicts[j][i]
        return Matrix(rows, cols, coldicts)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [{i: 1} for i in range(n)])

    # -- inspection --------------------------------------------------------

    def entry(self, i: int, j: int) -> int | Fraction:
        return self._cols[j].get(i, 0)

    def column(self, j: int) -> dict:
        return dict(self._cols[j])

    def columns(self, js: Iterable[int] | None = None) -> Iterator[dict]:
        """The stored columns in order, or those numbered js, as {row: value}
        dicts not to be mutated."""
        return iter(self._cols) if js is None else map(self._cols.__getitem__, js)

    @property
    def nnz(self) -> int:
        return sum(len(c) for c in self._cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._cols == other._cols

    __hash__ = None

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, nnz={self.nnz})"

    def first_difference(self, other: "Matrix | Formula",
                         js: Iterable[int] | None = None) -> tuple | None:
        """The first differing entry in column-major order, as (i, j, self's
        entry, other's entry), or None when the two agree; given js, an
        ascending iterable of column numbers, only those columns are
        compared, and j is still the column's number in the whole operands.

        Either operand may be a Formula (call ``Matrix.first_difference(f, g)``
        for a Formula on the left): the scan holds one column of each and
        evaluates no column after the first one that differs.  js is read
        once, lazily, and no number after that column's is drawn from it.
        """
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        js, mine, theirs = tee(range(self.cols) if js is None else js, 3)
        for j, a, b in zip(js, self.columns(mine), other.columns(theirs)):
            if a == b:
                continue
            for i in sorted(a.keys() | b.keys()):
                if a.get(i, 0) != b.get(i, 0):
                    return i, j, a.get(i, 0), b.get(i, 0)
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        cols = []
        for a, b in zip(self._cols, other._cols):
            c = dict(a)
            for i, v in b.items():
                nv = c.get(i, 0) + v
                if nv:
                    c[i] = nv
                elif i in c:
                    del c[i]
            cols.append(c)
        return Matrix(self.rows, self.cols, cols)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [{i: -v for i, v in c.items()} for c in self._cols])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Matrix product self*other (other is applied first)."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        return Matrix(self.rows, other.cols, [_apply_plain(self, bc) for bc in other._cols])

    def transpose(self) -> "Matrix":
        cols: list[dict] = [dict() for _ in range(self.rows)]
        for j, col in enumerate(self._cols):
            for i, v in col.items():
                cols[i][j] = v
        return Matrix(self.cols, self.rows, cols)

    def rank(self) -> int:
        return self.cols - len(_eliminate(self)[1])

    def inverse(self) -> "Matrix | None":
        """The two-sided inverse, or None when there is none (not square, or singular)."""
        if self.rows != self.cols:
            return None
        x, kernel = _eliminate(self, Matrix.identity(self.rows))
        return None if kernel else x


def hstack(*mats: Matrix) -> Matrix:
    """[m1 | m2 | ...]; it shares the operands' stored columns, which no
    Matrix mutates."""
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ShapeMismatch("hstack row mismatch")
    return Matrix(rows, sum(m.cols for m in mats), [c for m in mats for c in m._cols])


# -- reduction and solving --------------------------------------------------

def _subtract(vec: dict, f, row: dict) -> None:
    """vec -= f * row, in place, keeping no zero entry."""
    for j, x in row.items():
        nv = vec.get(j, 0) - f * x
        if nv:
            vec[j] = nv
        else:
            del vec[j]


def _reduce(vec: dict, echelon: dict[int, dict]) -> dict:
    """vec, reduced in place by the echelon rows {leading column: row with
    leading entry 1} at each leading entry it reaches; empty iff vec lies
    in their span."""
    while vec:
        lead = min(vec)
        row = echelon.get(lead)
        if row is None:
            break
        _subtract(vec, vec[lead], row)
    return vec


def _extend(vec: dict, echelon: dict[int, dict]) -> dict:
    """Adds what is left of vec after ``_reduce`` to the echelon, scaled to
    a leading 1, and returns it ({} when vec was in the span already)."""
    rest = _reduce(vec, echelon)
    if rest:
        lead = min(rest)
        if rest[lead] == -1:
            rest = {j: -x for j, x in rest.items()}
        elif rest[lead] != 1:
            inv = Fraction(1, rest[lead])
            rest = {j: _frac(x * inv) for j, x in rest.items()}
        echelon[lead] = rest
    return rest


def generating_set(m: Matrix) -> list[int]:
    """Basis indices S whose left-normed words span the algebra of m, ascending.

    m is a product A (x) A -> A, column x * n + y holding e_x e_y.  Takes
    e_j greedily when it is not in the span W of the left-normed words in
    the S so far, W kept as an echelon closed under right multiplication by
    every s in S.  The candidates are tried in an order read off the
    products rather than the labels: first the e_j whose powers e_j,
    e_j e_j, (e_j e_j) e_j, ... span most, then those in the most nonzero
    products e_x e_j and e_j e_x, then by index.  So a generator of a cyclic
    group comes before its powers, and renaming the basis leaves |S| as it
    was.  ``hopf`` says why S decides associativity.
    """
    n = m.rows

    def times(vec: dict, j: int) -> dict:
        """vec e_j"""
        return _apply_plain(m, {x * n + j: c for x, c in vec.items()})

    powers = []
    for j in range(n):
        span: dict[int, dict] = {}
        vec = _extend({j: 1}, span)
        while vec:
            vec = _extend(times(vec, j), span)
        powers.append(len(span))
    involved = [0] * n
    for xy, col in enumerate(m.columns()):
        if col:
            involved[xy // n] += 1
            involved[xy % n] += 1

    echelon: dict[int, dict] = {}
    gens: list[int] = []
    for j in sorted(range(n), key=lambda j: (-powers[j], -involved[j], j)):
        if len(echelon) == n:
            break
        if not _reduce({j: 1}, echelon):
            continue
        gens.append(j)
        # e_j, then W e_j: W is already closed under the earlier generators
        todo = [{j: 1}, *(times(w, j) for w in echelon.values())]
        while todo:
            added = _extend(todo.pop(), echelon)
            if added:
                todo.extend(times(added, s) for s in gens)
    return sorted(gens)


def _eliminate(a: Matrix, b: Matrix | None = None) -> tuple[Matrix | None, list[tuple]]:
    """(x, kernel) of a x = b, by Gauss-Jordan reduction of [a | b] that
    pivots only in a's columns.

    x is the a.cols x b.cols solution with every free coordinate zero, None
    when a reduced row leads in b's columns (a x = b has no solution), and
    a.cols x 0 when there is no b.  kernel is the null space of a, one
    vector per free column, ascending.  Both are read off the pivot rows in
    one loop: row p, with leading column p, gives x its row p and each free
    column's vector its coordinate p.

    The rows of [a | b] extend one echelon (``_extend``), fewest entries
    first, ties in index order.  The pivot rows are then back-substituted,
    highest pivot first.  The order matters for speed only: a sparse pivot
    row adds few entries to the rows it reduces, and taking the rows in
    index order made the six dim-24 S4 commands 1.7 times slower.
    """
    na, nb = a.cols, 0 if b is None else b.cols
    rows: list[dict] = [{} for _ in range(a.rows)]
    for j, col in enumerate((a if b is None else hstack(a, b))._cols):
        for i, v in col.items():
            if v:
                rows[i][j] = v
    echelon: dict[int, dict] = {}
    for row in sorted(rows, key=len):
        _extend(row, echelon)
    pivots = sorted(c for c in echelon if c < na)
    for p in reversed(pivots):
        row = echelon[p]
        for c in [j for j in row if p < j < na and j in echelon]:
            _subtract(row, row[c], echelon[c])
    x: list[dict] = [{} for _ in range(nb)]
    kernel = {f: [int(j == f) for j in range(na)] for f in range(na) if f not in echelon}
    for p in pivots:
        for j, v in echelon[p].items():
            if j >= na:
                x[j - na][p] = v
            elif j != p:
                kernel[j][p] = -v
    return (Matrix(na, nb, x) if len(pivots) == len(echelon) else None,
            [tuple(v) for v in kernel.values()])


def kernel_basis(m: Matrix) -> list[tuple]:
    """Basis of the right null space, one vector per free column, ascending."""
    return _eliminate(m)[1]


def solve_affine(a: Matrix, b: Sequence) -> tuple[tuple | None, list[tuple]]:
    """Affine solution set of a*x = b: (particular solution, kernel_basis(a)).

    The particular solution has zeros in all free coordinates; it is None
    when the system is inconsistent.  The kernel is returned either way, from
    the same elimination.
    """
    if len(b) != a.rows:
        raise ShapeMismatch("right hand side of wrong length")
    x, kernel = _eliminate(a, Matrix.from_cols(a.rows, [b]))
    return (None if x is None else tuple(x.entry(i, 0) for i in range(a.cols))), kernel


class _Lin(dict):
    """An affine form in the unknowns of ``map_system``: {unknown: coeff}, the
    constant at key -1, empty meaning zero; never mutated, so x * 1 and x + 0
    are x.  Only affine arithmetic is defined: ``_Lin * _Lin`` raises TypeError."""

    def __add__(self, other):
        if not other:
            return self
        out = _Lin(self)
        for k, v in (other.items() if isinstance(other, _Lin) else ((-1, other),)):
            out[k] = out.get(k, 0) + v
            if not out[k]:
                del out[k]
        return out

    __radd__ = __add__

    def __neg__(self) -> "_Lin":
        return self * -1

    def __mul__(self, s):
        if not isinstance(s, (int, Fraction)):
            return NotImplemented
        return self if s == 1 else _Lin({k: v * s for k, v in self.items()} if s else {})

    __rmul__ = __mul__


def map_system(rows: int, cols: int, conditions) -> tuple[Matrix, list]:
    """The exact linear system lhs(X) = rhs(X) for an unknown rows x cols map X.

    Each condition is a pair (lhs, rhs) of functions of X, each affine in X,
    and each is called once, on the X whose entry (r, c) is the linear form
    x_k, k = r * cols + c.  Equation e is entry e of d = lhs - rhs: its
    coefficients are row e of the system and its negated constant entry e of
    the right-hand side.  The equations are the entries of each d(X) in
    row-major order, stacked in the order the conditions are given.
    """
    x = Matrix(rows, cols, [{r: _Lin({r * cols + c: 1}) for r in range(rows)}
                            for c in range(cols)])
    entries, target, n_eq = [], {}, 0
    for lhs, rhs in conditions:
        lx, rx = lhs(x), rhs(x)
        if (lx.rows, lx.cols) != (rx.rows, rx.cols):
            raise ShapeMismatch(f"left side is {lx.rows}x{lx.cols}, "
                                f"right side is {rx.rows}x{rx.cols}")
        for sign, side in ((1, lx), (-1, rx)):
            for j, col in enumerate(side._cols):
                for i, form in col.items():
                    e = n_eq + i * side.cols + j
                    form = form if isinstance(form, _Lin) else {-1: form}
                    target[e] = target.get(e, 0) - sign * form.get(-1, 0)
                    entries.extend((e, k, sign * v) for k, v in form.items() if k >= 0)
        n_eq += lx.rows * lx.cols
    return (Matrix.from_entries(n_eq, rows * cols, entries),
            [target.get(e, 0) for e in range(n_eq)])


def solve_matrix(a: Matrix, b: Matrix) -> Matrix | None:
    """Particular solution X of a*X = b (free coordinates zero), or None."""
    if a.rows != b.rows:
        raise ShapeMismatch("solve_matrix row mismatch")
    return _eliminate(a, b)[0]


def equalizer(f: Matrix, g: Matrix) -> Matrix:
    """Embedding of the equalizer of f and g: the kernel basis of f - g."""
    if (f.rows, f.cols) != (g.rows, g.cols):
        raise ShapeMismatch("equalizer of maps with different shapes")
    return Matrix.from_cols(f.cols, kernel_basis(f - g))


# -- tensor composites -------------------------------------------------------

def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with block ordering (i*rows_b + k, j*cols_b + l).

    Its own loop, not ``Formula((a, b)).materialize()``: it is the tests'
    independent reference for ``Formula``."""
    cols: list[dict] = []
    for ja in range(a.cols):
        ca = a._cols[ja]
        for jb in range(b.cols):
            cb = b._cols[jb]
            col = {}
            for ia, va in ca.items():
                base = ia * b.rows
                for ib, vb in cb.items():
                    col[base + ib] = va * vb
            cols.append(col)
    return Matrix(a.rows * b.rows, a.cols * b.cols, cols)


def _stage_shape(stage) -> tuple[int, int]:
    if isinstance(stage, Matrix):
        return stage.cols, stage.rows
    return prod(f.cols for f in stage), prod(f.rows for f in stage)


def _apply_plain(mat: Matrix, vec: dict) -> dict:
    out: dict = {}
    for i, v in vec.items():
        for r, w in mat._cols[i].items():
            nv = out.get(r, 0) + v * w
            if nv:
                out[r] = nv
            elif r in out:
                del out[r]
    return out


def _apply_padded(lo: int, f: Matrix, vec: dict) -> dict:
    """vec under I (x) f (x) I_lo: entry (hi * f.cols + d) * lo + low reads
    f's column d, and its row r goes to (hi * f.rows + r) * lo + low."""
    out: dict = {}
    for idx, v in vec.items():
        q, low = divmod(idx, lo)
        hi, d = divmod(q, f.cols)
        for r, w in f._cols[d].items():
            k = (hi * f.rows + r) * lo + low
            nv = out.get(k, 0) + v * w
            if nv:
                out[k] = nv
            elif k in out:
                del out[k]
    return out


def _is_identity(f: Matrix) -> bool:
    return f.rows == f.cols and all(len(c) == 1 and c.get(j) == 1 for j, c in enumerate(f._cols))


class Formula:
    """A tensor formula, evaluated one basis column at a time.

    Stages are applied in the given order (the first acts first); each is a
    Matrix or a tuple of Matrices meaning their Kronecker product.  Every
    stage shape is checked before any column is read.  Then each stage is
    laid out once as steps: a plain stage is one step, and a tuple stage one
    padded step I (x) f (x) I_lo per factor f that is not an identity, lo
    the product of the rows of the factors to its right; the steps apply
    rightmost first.  An identity factor is only a stride, the product is
    never materialized, and building reads no factor column.  A column is
    evaluated only when it is read, and it reads only the factor columns its
    digits name.  Nothing holds the columns but ``materialize``.

    While a column has one entry it is carried as idx and val; column j
    starts as j and 1, so there is no first-stage case.  A plain step reads
    its stored column idx; a padded step splits idx into (hi, d, low), reads
    f's column d and, where it has one entry r, moves to (hi * f.rows + r) *
    lo + low.  Values multiply as current value * step value on both paths
    (``map_system`` sends its linear forms through here).  An empty column
    ends the evaluation with {}.  Where the column read has two or more
    entries, that step applies ``_apply_plain`` or ``_apply_padded`` to
    {idx: val}; the dict goes on through the later steps until a result has
    one entry and becomes a pair again.  Both paths read the same stored
    factor columns, and every column yielded is a fresh dict.
    """

    __slots__ = ("rows", "cols", "_steps")

    def __init__(self, *stages):
        if not stages:
            raise ValueError("pipeline needs at least one stage")
        dom, cur = _stage_shape(stages[0])
        for st in stages[1:]:
            cin, cout = _stage_shape(st)
            if cin != cur:
                raise ShapeMismatch(f"stage expects domain {cin}, got {cur}")
            cur = cout
        self.rows, self.cols = cur, dom
        # (lo, f.cols, f.rows, stored columns, f) per step; lo None marks a plain stage
        self._steps = []
        for st in stages:
            if isinstance(st, Matrix):
                self._steps.append((None, st.cols, st.rows, st._cols, st))
                continue
            lo = 1
            for f in reversed(st):
                if not _is_identity(f):
                    self._steps.append((lo, f.cols, f.rows, f._cols, f))
                lo *= f.rows

    def _evaluate(self, js: Iterable[int]) -> Iterator[dict]:
        steps, n = self._steps, self.cols
        for j in js:
            if not 0 <= j < n:
                j = range(n)[j]         # as Matrix.columns reads j: -1 is the last column
            idx, val = j, 1             # basis vector j
            vec = None                  # None: the column is the one entry idx: val
            for lo, size, rows, cols, f in steps:
                if vec is None:
                    if lo is None:
                        col = cols[idx]
                        if len(col) == 1:
                            idx, = col
                            val = val * col[idx]
                            continue
                    elif lo == 1:
                        hi, d = divmod(idx, size)
                        col = cols[d]
                        if len(col) == 1:
                            r, = col
                            idx, val = hi * rows + r, val * col[r]
                            continue
                    else:
                        q, low = divmod(idx, lo)
                        hi, d = divmod(q, size)
                        col = cols[d]
                        if len(col) == 1:
                            r, = col
                            idx, val = (hi * rows + r) * lo + low, val * col[r]
                            continue
                    if not col:         # the column is zero from here on
                        break
                    # a column of two or more entries: this step takes the dict path
                    vec = {idx: val}
                vec = _apply_plain(f, vec) if lo is None else _apply_padded(lo, f, vec)
                if len(vec) == 1:
                    idx, = vec
                    val = vec[idx]
                    vec = None
                elif not vec:
                    break
            else:
                yield {idx: val} if vec is None else vec
                continue
            yield {}

    def column(self, j: int) -> dict:
        """Column j, evaluated on its own; j is read as ``Matrix.column``
        reads it, so j outside the columns raises IndexError."""
        return next(self._evaluate((j,)))

    def columns(self, js: Iterable[int] | None = None) -> Iterator[dict]:
        """Each column in order, or those numbered js, evaluated as it is
        read; each is a fresh dict that belongs to the caller.  A number in js
        is read as ``Matrix.columns`` reads it."""
        return self._evaluate(range(self.cols) if js is None else js)

    @property
    def nnz(self) -> int:
        return sum(len(c) for c in self.columns())

    def materialize(self) -> Matrix:
        return Matrix(self.rows, self.cols, list(self.columns()))


def pipeline(*stages) -> Matrix:
    """``Formula(*stages).materialize()``: the formula as a Matrix.

    This is how a tensor formula whose value is read more than once, or
    used as a stage of another, is evaluated; an identity that is only
    checked passes its Formula to ``report.eq_check``, which streams it.
    """
    return Formula(*stages).materialize()


def compose(*mats: Matrix) -> Matrix:
    """Ordinary composition; the first argument is applied first."""
    out = mats[0]
    for m in mats[1:]:
        out = m * out
    return out
