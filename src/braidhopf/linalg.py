"""Exact rational matrices: the substrate every identity is decided on.

All entries are ``fractions.Fraction`` values, so every comparison in the
package is exact; there is no tolerance anywhere.  Matrices have dense
semantics (a rows x cols grid) but store one ``{row: value}`` dict per
column, which keeps the large Kronecker composites arising from tensor
formulas cheap.

``_eliminate`` is the only row reduction: rank, inverse, kernels, equalizers
and every solve go through it.  Its pivot rule is fixed: scan the columns
left to right and take the first nonzero entry at or below the current row,
top down.  So identical inputs always produce bit-identical bases and
solutions.

``map_system`` builds every system whose unknown is a map: it turns the
identities the map must satisfy, written as tensor formulas, into exact
coefficient columns.  ``_eliminate`` still solves it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ShapeMismatch(ValueError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
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
            fv = coldicts[j].get(i, _ZERO) + _frac(v)
            if fv:
                coldicts[j][i] = fv
            elif i in coldicts[j]:
                del coldicts[j][i]
        return Matrix(rows, cols, coldicts)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [{i: _ONE} for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [dict() for _ in range(cols)])

    @staticmethod
    def basis_column(n: int, i: int) -> "Matrix":
        return Matrix(n, 1, [{i: _ONE}])

    # -- inspection --------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self._cols[j].get(i, _ZERO)

    def column(self, j: int) -> dict:
        return dict(self._cols[j])

    def dense_rows(self) -> list[list[Fraction]]:
        out = [[_ZERO] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self._cols):
            for i, v in col.items():
                out[i][j] = v
        return out

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

    def first_difference(self, other: "Matrix") -> tuple[int, int] | None:
        """Coordinates of the first differing entry, scanning column-major."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        for j in range(self.cols):
            a, b = self._cols[j], other._cols[j]
            if a == b:
                continue
            for i in sorted(set(a) | set(b)):
                if a.get(i, _ZERO) != b.get(i, _ZERO):
                    return (i, j)
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        cols = []
        for a, b in zip(self._cols, other._cols):
            c = dict(a)
            for i, v in b.items():
                nv = c.get(i, _ZERO) + v
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

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeMismatch("inverse of non-square matrix")
        n = self.rows
        red, pivots = _eliminate(self, Matrix.identity(n))
        if len(pivots) != n:
            raise ShapeMismatch("matrix is singular")
        return Matrix.from_rows([row[n:] for row in red])


def hstack(*mats: Matrix) -> Matrix:
    rows = mats[0].rows
    cols = []
    for m in mats:
        if m.rows != rows:
            raise ShapeMismatch("hstack row mismatch")
        cols.extend(dict(c) for c in m._cols)
    return Matrix(rows, sum(m.cols for m in mats), cols)


# -- reduction and solving --------------------------------------------------

def _eliminate(a: Matrix, b: Matrix | None = None) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan reduction of [a | b], pivoting only in a's columns.

    Returns the reduced dense rows (b's columns after a's) and a's pivot
    columns in ascending order.
    """
    rows = (a if b is None else hstack(a, b)).dense_rows()
    pivots: list[int] = []
    pr = 0
    nrows = len(rows)
    for c in range(a.cols):
        pivot = None
        for r in range(pr, nrows):
            if rows[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        inv = _ONE / rows[pr][c]
        if inv != 1:
            rows[pr] = [v * inv for v in rows[pr]]
        prow = rows[pr]
        for r in range(nrows):
            if r != pr and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], prow)]
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return rows, pivots


def _kernel(red: list[list[Fraction]], pivots: list[int], n: int) -> list[tuple[Fraction, ...]]:
    """Null space of the first n columns of a reduced system, one vector per free column."""
    pivset = set(pivots)
    basis = []
    for f in range(n):
        if f in pivset:
            continue
        v = [_ZERO] * n
        v[f] = _ONE
        for r, pc in enumerate(pivots):
            if red[r][f]:
                v[pc] = -red[r][f]
        basis.append(tuple(v))
    return basis


def _particular(red: list[list[Fraction]], pivots: list[int], n: int, k: int) -> Matrix | None:
    """The n x k solution read off a reduced [a | b] (free coordinates zero), or None."""
    if any(any(row[n:]) for row in red[len(pivots):]):
        return None
    return Matrix(n, k, [{pc: red[r][n + j] for r, pc in enumerate(pivots) if red[r][n + j]}
                         for j in range(k)])


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space, one vector per free column, ascending."""
    return _kernel(*_eliminate(m), m.cols)


def solve_affine(a: Matrix, b: Sequence) -> tuple[tuple[Fraction, ...], list[tuple[Fraction, ...]]] | None:
    """Full affine solution set of a*x = b, or None if inconsistent.

    The particular solution has zeros in all free coordinates.
    """
    if len(b) != a.rows:
        raise ShapeMismatch("right hand side of wrong length")
    red, pivots = _eliminate(a, Matrix.from_cols(a.rows, [b]))
    x = _particular(red, pivots, a.cols, 1)
    if x is None:
        return None
    return tuple(x.entry(i, 0) for i in range(a.cols)), _kernel(red, pivots, a.cols)


def map_system(rows: int, cols: int, conditions) -> tuple[Matrix, list[Fraction]]:
    """The exact linear system f(X) = c for an unknown rows x cols map X.

    Each condition is a pair (f, c) with f linear in X.  Unknown k is
    X[k // cols, k % cols] and column k is f applied to the basis map E_k.
    The equations are the entries of each f(X) in row-major order, stacked
    in the order the conditions are given.
    """
    rhs: list[Fraction] = []
    offsets = []
    for _, c in conditions:
        offsets.append(len(rhs))
        rhs.extend(c.entry(i, j) for i in range(c.rows) for j in range(c.cols))
    columns = []
    for k in range(rows * cols):
        e_k = Matrix.from_entries(rows, cols, [(k // cols, k % cols, 1)])
        column = {}
        for (f, c), off in zip(conditions, offsets):
            fx = f(e_k)
            if (fx.rows, fx.cols) != (c.rows, c.cols):
                raise ShapeMismatch(f"condition gives {fx.rows}x{fx.cols}, "
                                    f"right hand side is {c.rows}x{c.cols}")
            for j, col in enumerate(fx._cols):
                for i, v in col.items():
                    column[off + i * c.cols + j] = v
        columns.append(column)
    return Matrix(len(rhs), rows * cols, columns), rhs


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
    """Kronecker product with block ordering (i*rows_b + k, j*cols_b + l)."""
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
    cin = cout = 1
    for f in stage:
        cin *= f.cols
        cout *= f.rows
    return cin, cout


def _apply_plain(mat: Matrix, vec: dict) -> dict:
    out: dict = {}
    for i, v in vec.items():
        for r, w in mat._cols[i].items():
            nv = out.get(r, _ZERO) + v * w
            if nv:
                out[r] = nv
            elif r in out:
                del out[r]
    return out


def _apply_factors(factors: Sequence[Matrix], vec: dict) -> dict:
    in_dims = [f.cols for f in factors]
    out_strides = []
    s = 1
    for f in reversed(factors):
        out_strides.append(s)
        s *= f.rows
    out_strides.reverse()
    out: dict = {}
    for idx, val in vec.items():
        digits = []
        rem = idx
        for d in reversed(in_dims):
            rem, dig = divmod(rem, d)
            digits.append(dig)
        digits.reverse()
        acc = {0: val}
        for f, dig, stride in zip(factors, digits, out_strides):
            col = f._cols[dig]
            if not col:
                acc = {}
                break
            nacc = {}
            for oi, ov in acc.items():
                for r, rv in col.items():
                    nacc[oi + r * stride] = ov * rv
            acc = nacc
        for k, v in acc.items():
            nv = out.get(k, _ZERO) + v
            if nv:
                out[k] = nv
            elif k in out:
                del out[k]
    return out


def pipeline(*stages) -> Matrix:
    """Compose stages applied in the given order (first stage acts first).

    Each stage is a Matrix or a tuple of Matrices meaning their Kronecker
    product; tuple stages are applied factor-wise so the product is never
    materialized.  This is how every long tensor formula in the package is
    evaluated.
    """
    if not stages:
        raise ValueError("pipeline needs at least one stage")
    dom, cur = _stage_shape(stages[0])
    for st in stages[1:]:
        cin, cout = _stage_shape(st)
        if cin != cur:
            raise ShapeMismatch(f"stage expects domain {cin}, got {cur}")
        cur = cout
    cols = []
    for j in range(dom):
        vec: dict = {j: _ONE}
        for st in stages:
            if isinstance(st, Matrix):
                vec = _apply_plain(st, vec)
            else:
                vec = _apply_factors(st, vec)
        cols.append(vec)
    _, out_dim = _stage_shape(stages[-1])
    return Matrix(out_dim, dom, cols)


def compose(*mats: Matrix) -> Matrix:
    """Ordinary composition; the first argument is applied first."""
    out = mats[0]
    for m in mats[1:]:
        out = m * out
    return out
