"""Exact rational matrices: the substrate every identity is decided on.

Entries are ``int`` or ``fractions.Fraction`` values.  Integer input stays
machine ``int`` through products, Kronecker products and pipelines, and
``_frac`` turns an integral ``Fraction`` into an ``int``; a ``Fraction``
appears only where the input or a division makes one.  An ``int`` and an
equal ``Fraction`` compare, hash and print alike, so every comparison in the
package is exact; there is no tolerance anywhere.  Matrices have dense
semantics (a rows x cols grid) but store one ``{row: value}`` dict per
column, which keeps the large Kronecker composites arising from tensor
formulas cheap.

Row reduction has one routine: an echelon, a ``{leading column: row with
leading entry 1}`` dict, that a vector is reduced by (``_reduce``) or
extended with (``_extend``).  ``_eliminate`` grows one from a matrix's rows
for rank, inverse, kernels, equalizers and every solve; ``generating_set``
grows one from products, for span membership.  ``_eliminate``'s pivot
rule: rows taken fewest entries first, each reduced against the pivot rows
so far, then back-substituted; outputs are the unique reduced row echelon
form.  Which row carries a pivot changes no result, because that form is
unique, so identical inputs always produce identical bases and solutions.
A missing answer (``inverse``, ``solve_matrix``, ``solve_affine``'s
particular solution) is ``None``, never an exception; ``ShapeMismatch``
means operands whose shapes do not fit.

``Formula`` is the one evaluator of tensor formulas; ``kron`` and
``compose`` keep loops of their own so that the tests can check ``Formula``
against them.  A formula is a list of stages, each a matrix or a tuple of
matrices meaning their Kronecker product, applied to one basis column at a
time.  A tuple stage is laid out once: adjacent identity factors merge into
one run of index digits passed through, and each other factor keeps its
stored columns; a factor column is read, its rows scaled by the factor's
output stride, only when a column being evaluated needs it.  So the product
is never materialized, and building a formula reads no factor column.
A column with one entry travels between stages as an (index, value) pair,
not a dict: that is every column of a monomial map (a group algebra's
product, a flip), so such formulas build no dict until the column is
yielded.  Only a stage that reads a column of two or more entries turns the
pair into a dict, and a stage result of one entry turns back into a pair.
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
written as it is checked.  Each pair is evaluated once, on an X of linear
forms in the unknowns (``_Lin``): the entries of d = lhs - rhs are then the
rows of the system and their negated constants the right-hand side
(forward-mode evaluation of d's Jacobian).  ``_eliminate`` solves it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby, tee
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
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        coldicts: list[dict] = [dict() for _ in range(cols)]
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise ShapeMismatch("ragged rows")
            for j, v in enumerate(row):
                fv = _frac(v)
                if fv:
                    coldicts[j][i] = fv
        return Matrix(rows, cols, coldicts)

    @staticmethod
    def from_cols(rows: int, columns: Sequence[Sequence]) -> "Matrix":
        coldicts = []
        for col in columns:
            if len(col) != rows:
                raise ShapeMismatch("column of wrong length")
            coldicts.append({i: _frac(v) for i, v in enumerate(col) if v})
        return Matrix(rows, len(coldicts), coldicts)

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Iterable[tuple[int, int, object]]) -> "Matrix":
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
        return len(_eliminate(self)[1])

    def inverse(self) -> "Matrix | None":
        """The two-sided inverse, or None when there is none (not square, or singular)."""
        if self.rows != self.cols:
            return None
        n = self.rows
        red, pivots = _eliminate(self, Matrix.identity(n))
        return _particular(red, pivots, n, n) if len(pivots) == n else None


def hstack(*mats: Matrix) -> Matrix:
    rows = mats[0].rows
    cols = []
    for m in mats:
        if m.rows != rows:
            raise ShapeMismatch("hstack row mismatch")
        cols.extend(dict(c) for c in m._cols)
    return Matrix(rows, sum(m.cols for m in mats), cols)


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


def _eliminate(a: Matrix, b: Matrix | None = None) -> tuple[list[dict], list[int]]:
    """Gauss-Jordan reduction of [a | b], pivoting only in a's columns.

    Returns the reduced rows as {col: value} dicts (b's columns after a's)
    and a's pivot columns in ascending order.  Row r carries pivot r; the
    rows past the pivots are zero in a's columns, and one of them is
    nonzero exactly when a x = b has no solution.

    The rows of [a | b] extend one echelon (``_extend``), fewest entries
    first, ties in index order; a row that then leads in b's columns is one
    of the rows past the pivots.  The pivot rows are then back-substituted,
    highest pivot first.  The order matters for speed only: a sparse pivot
    row adds few entries to the rows it reduces, and taking the rows in
    index order made the six dim-24 S4 commands 1.7 times slower.
    """
    na = a.cols
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
    return [echelon[c] for c in sorted(echelon)], pivots


def _kernel(red: list[dict], pivots: list[int], n: int) -> list[tuple]:
    """Null space of the first n columns of a reduced system, one vector per free column."""
    pivset = set(pivots)
    vecs = {f: [int(j == f) for j in range(n)] for f in range(n) if f not in pivset}
    for row, pc in zip(red, pivots):
        for j, x in row.items():
            if j < n and j != pc:
                vecs[j][pc] = -x
    return [tuple(v) for v in vecs.values()]


def _particular(red: list[dict], pivots: list[int], n: int, k: int) -> Matrix | None:
    """The n x k solution read off a reduced [a | b] (free coordinates zero), or None."""
    if any(red[len(pivots):]):
        return None
    cols: list[dict] = [{} for _ in range(k)]
    for row, pc in zip(red, pivots):
        for j, x in row.items():
            if j >= n:
                cols[j - n][pc] = x
    return Matrix(n, k, cols)


def kernel_basis(m: Matrix) -> list[tuple]:
    """Basis of the right null space, one vector per free column, ascending."""
    return _kernel(*_eliminate(m), m.cols)


def solve_affine(a: Matrix, b: Sequence) -> tuple[tuple | None, list[tuple]]:
    """Affine solution set of a*x = b: (particular solution, kernel_basis(a)).

    The particular solution has zeros in all free coordinates; it is None
    when the system is inconsistent.  The kernel is returned either way, from
    the same elimination.
    """
    if len(b) != a.rows:
        raise ShapeMismatch("right hand side of wrong length")
    red, pivots = _eliminate(a, Matrix.from_cols(a.rows, [b]))
    x = _particular(red, pivots, a.cols, 1)
    particular = None if x is None else tuple(x.entry(i, 0) for i in range(a.cols))
    return particular, _kernel(red, pivots, a.cols)


class _Lin(dict):
    """An affine form in the unknowns of ``map_system``: {unknown: coeff}, the
    constant at key -1, empty meaning zero.  Only affine arithmetic is
    defined, so ``_Lin * _Lin`` raises TypeError."""

    def __add__(self, other):
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
        return _Lin({k: v * s for k, v in self.items()} if s else {})

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
        d = lx - rx
        for j, col in enumerate(d._cols):
            for i, form in col.items():
                e = n_eq + i * d.cols + j
                form = form if isinstance(form, _Lin) else {-1: form}
                target[e] = -form.get(-1, 0)
                entries.extend((e, k, v) for k, v in form.items() if k >= 0)
        n_eq += d.rows * d.cols
    return (Matrix.from_entries(n_eq, rows * cols, entries),
            [target.get(e, 0) for e in range(n_eq)])


def solve_matrix(a: Matrix, b: Matrix) -> Matrix | None:
    """Particular solution X of a*X = b (free coordinates zero), or None."""
    if a.rows != b.rows:
        raise ShapeMismatch("solve_matrix row mismatch")
    return _particular(*_eliminate(a, b), a.cols, b.cols)


def equalizer(f: Matrix, g: Matrix) -> Matrix:
    """Embedding of the equalizer of f and g: the kernel basis of f - g."""
    if (f.rows, f.cols) != (g.rows, g.cols):
        raise ShapeMismatch("equalizer of maps with different shapes")
    return Matrix.from_cols(f.cols, kernel_basis(f - g))


# -- tensor composites -------------------------------------------------------

def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with block ordering (i*rows_b + k, j*cols_b + l).

    Its own loop, not ``Formula((a, b)).materialize()``: with ``compose`` it
    is the tests' independent reference for ``Formula``."""
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


def _is_identity(f: Matrix) -> bool:
    return f.rows == f.cols and all(len(c) == 1 and c.get(j) == 1 for j, c in enumerate(f._cols))


def _compile_factors(factors: Sequence[Matrix]) -> tuple[list, list]:
    """(runs, factors) applying the Kronecker product of factors to a vector.

    A factor's digit of input index idx is ``idx // in_stride % size``.  A run
    of adjacent identities, (in_stride, size, out_stride), adds its digit
    times out_stride to the output index; any other factor is (in_stride,
    size, out_stride, cols) with cols its stored columns: column digit is
    read, each row scaled by out_stride, only when a column needs it, so
    building this reads no column of such a factor.
    """
    runs, others = [], []
    in_stride = out_stride = 1
    for is_identity, group in groupby(reversed(factors), _is_identity):
        if is_identity:
            size = prod(f.cols for f in group)
            runs.append((in_stride, size, out_stride))
            in_stride *= size
            out_stride *= size
            continue
        for f in group:
            others.append((in_stride, f.cols, out_stride, f._cols))
            in_stride *= f.cols
            out_stride *= f.rows
    return runs, others


def _apply_compiled(compiled: tuple[list, list], vec: dict) -> dict:
    runs, others = compiled
    out: dict = {}
    for idx, val in vec.items():
        base = 0
        for in_stride, size, out_stride in runs:
            base += idx // in_stride % size * out_stride
        terms = {base: val}
        for in_stride, size, out_stride, cols in others:
            col = cols[idx // in_stride % size].items()
            terms = {o + r * out_stride: w * v for o, w in terms.items() for r, v in col}
        if not out:
            # the output indices of one entry are distinct and its values nonzero
            out = terms
            continue
        for k, v in terms.items():
            nv = out.get(k, 0) + v
            if nv:
                out[k] = nv
            else:
                del out[k]
    return out


class Formula:
    """A tensor formula, evaluated one basis column at a time.

    Stages are applied in the given order (the first acts first); each is a
    Matrix or a tuple of Matrices meaning their Kronecker product.  Every
    stage shape is checked before any column is read.  Then each tuple stage
    is laid out once (``_compile_factors``), identity runs merged, so the
    product is never materialized; building reads no factor column.  A
    column is evaluated only when it is read, and it reads a factor column,
    each row scaled by the factor's output stride, only where it needs it.
    Nothing holds the columns but ``materialize``.

    While a column has one entry it is carried as idx and val.  A plain
    stage reads its stored column idx; a tuple stage adds its runs' offsets
    and each factor's one entry, its row * out_stride, multiplying the
    values in the order the dict path does, current value * stage value
    (``map_system`` sends its linear forms through here).  An empty column
    ends the evaluation with {}.  Where the column read has two or more
    entries, that stage applies ``_apply_plain`` or ``_apply_compiled`` to
    {idx: val}, val as it was before the stage; the dict goes on through the
    later stages until a result has one entry and becomes a pair again.
    Both paths read the same stored factor columns, so there is one
    evaluator and no second pass over the factors.
    """

    __slots__ = ("rows", "cols", "_start", "_steps")

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
        # a plain first stage maps basis vector j to its stored column j
        self._start = stages[0]._cols if isinstance(stages[0], Matrix) else None
        # (runs, cols, apply, arg) per later stage; runs None marks a plain stage
        # and cols its stored columns, else cols are _compile_factors' factors
        self._steps = []
        for st in stages[self._start is not None:]:
            if isinstance(st, Matrix):
                self._steps.append((None, st._cols, _apply_plain, st))
            else:
                compiled = _compile_factors(st)
                self._steps.append((*compiled, _apply_compiled, compiled))

    def _evaluate(self, js: Iterable[int]) -> Iterator[dict]:
        start, steps = self._start, self._steps
        for j in js:
            vec = None                  # None: the column is the one entry idx: val
            if start is None:
                idx, val = j, 1
            elif len(start[j]) == 1:
                (idx, val), = start[j].items()
            else:
                vec = start[j]
            for runs, cols, apply, arg in steps:
                if vec is None:
                    if runs is None:    # a plain stage: cols are its stored columns
                        col = cols[idx]
                        if len(col) == 1:
                            (idx, v), = col.items()
                            val = val * v
                            continue
                    else:
                        out, out_val = 0, val
                        for in_stride, size, out_stride in runs:
                            out += idx // in_stride % size * out_stride
                        for in_stride, size, out_stride, stored in cols:
                            col = stored[idx // in_stride % size]
                            if len(col) != 1:
                                break
                            (r, v), = col.items()
                            out += r * out_stride
                            out_val = out_val * v
                        else:
                            idx, val = out, out_val
                            continue
                    if not col:         # the column is zero from here on
                        break
                    # a column of two or more entries: this stage takes the dict path
                    vec = {idx: val}
                vec = apply(arg, vec)
                if len(vec) == 1:
                    (idx, val), = vec.items()
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
        return next(self._evaluate((range(self.cols)[j],)))

    def columns(self, js: Iterable[int] | None = None) -> Iterator[dict]:
        """Each column in order, or those numbered js, evaluated as it is
        read; a column may be a stored column of the first stage, so it is
        not to be mutated."""
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
