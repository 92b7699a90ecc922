"""Strict braided monoidal category backends.

Objects are finite-dimensional with an optional group grading per basis
vector and an optional group action; morphisms are exact matrices tagged
with their (co)domain objects.  Four backends realize the braiding:

* Vec          - plain vector spaces, braiding is the flip
* SuperVec     - spaces graded by the parity group {0, 1}, flip with sign (-1)^{|v||w|}
* SignGraded   - G-graded spaces, flip scaled by a +-1 bicharacter
* YetterDrinfeld(G) - G-graded G-representations, c(v (x) w) = (deg v . w) (x) v

The last three are graded by a finite group in one way: the unit has the
identity grade, grades multiply under tensor, and morphisms preserve them.

Unit constraints and associators are identities throughout (the backends
are strict), so formulas are transcribed with those factors deleted.

A backend's object and morphism checks are verdict generators, lazy
(name, witness) pairs: ``holds`` reads them up to the first failure, and
``morphism_report`` turns every morphism verdict into a CheckResult.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

from .linalg import Matrix, ShapeMismatch, kron
from .report import CheckResult, bool_check, difference_witness


@dataclass(frozen=True, repr=False)
class FiniteGroup:
    """A finite group by its Cayley table; frozen, so PARITY can be a field default."""

    name: str
    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]   # table[i][j] = index of elements[i] * elements[j]
    identity: int
    inverses: tuple[int, ...]

    @staticmethod
    def from_table(name: str, elements: list[str], table: list[list[int]]) -> "FiniteGroup":
        """The group of a Cayley table, after checking it has an identity,
        inverses, and is associative.

        Associativity is Light's test: the set T of elements a with
        (a x) y = a (x y) for all x, y is closed under the product, so when
        the left-normed words ((s1 s2) s3)... in a set S reach every element,
        checking s in S alone suffices.  S is chosen greedily, each element
        in table order that the words in the S so far do not reach.  When
        the reduced check fails, the full scan names the first failing
        triple (x, y, z) in table order.
        """
        n = len(elements)
        if len(set(elements)) != n:
            raise ValueError(f"group {name}: duplicate element names")
        if len(table) != n or any(len(r) != n for r in table):
            raise ValueError(f"group {name}: table must be {n}x{n}")
        for r in table:
            if any(not (0 <= v < n) for v in r):
                raise ValueError(f"group {name}: table entry out of range")
        identity = None
        for e in range(n):
            if all(table[e][j] == j and table[j][e] == j for j in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError(f"group {name}: no identity element")
        inverses = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == identity and table[j][i] == identity:
                    inverses[i] = j
                    break
            if inverses[i] is None:
                raise ValueError(f"group {name}: {elements[i]} has no inverse")
        gens, reached = [], set()         # S, and the elements its words reach
        for g in range(n):
            if g in reached:
                continue
            gens.append(g)
            todo = [g, *(table[w][g] for w in reached)]
            while todo:
                w = todo.pop()
                if w not in reached:
                    reached.add(w)
                    todo.extend(table[w][s] for s in gens)
        if not all(table[table[s][j]][k] == table[s][table[j][k]]
                   for s in gens for j in range(n) for k in range(n)):
            i, j, k = next((i, j, k) for i in range(n) for j in range(n) for k in range(n)
                           if table[table[i][j]][k] != table[i][table[j][k]])
            raise ValueError(f"group {name}: associativity fails at "
                             f"({elements[i]},{elements[j]},{elements[k]})")
        return FiniteGroup(name, tuple(elements), tuple(tuple(r) for r in table),
                           identity, tuple(inverses))

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def index(self, name: str) -> int:
        return self.elements.index(name)

    def conjugate(self, h: int, g: int) -> int:
        """h g h^-1."""
        return self.mul(self.mul(h, g), self.inverses[h])


@dataclass(repr=False)
class CatObject:
    """A basis of dim vectors, with their grades and the group's action."""

    dim: int
    grading: tuple[int, ...] | None = None
    action: tuple[Matrix, ...] | None = None   # one matrix per group element


@dataclass(repr=False)
class Morphism:
    """A matrix from dom to cod, checked to fit their dimensions."""

    dom: CatObject
    cod: CatObject
    mat: Matrix

    def __post_init__(self):
        if self.mat.rows != self.cod.dim or self.mat.cols != self.dom.dim:
            raise ShapeMismatch(
                f"matrix {self.mat.rows}x{self.mat.cols} does not fit "
                f"{self.cod.dim}x{self.dom.dim}")


def _flip(x: CatObject, y: CatObject, sign) -> Matrix:
    """v_i (x) w_j -> sign(i, j) w_j (x) v_i; with sign +-1 its inverse is its transpose."""
    n = x.dim * y.dim
    # column i * y.dim + j holds its one entry
    return Matrix(n, n, [{j * x.dim + i: sign(i, j)}
                         for i in range(x.dim) for j in range(y.dim)])


# (check name, witness): the witness is None when the check passes
Verdicts = Iterator[tuple[str, str | None]]


def holds(verdicts: Verdicts) -> bool:
    """Whether every verdict passes, read up to the first failure."""
    return all(w is None for _, w in verdicts)


class Backend:
    """Common machinery.  Each concrete backend defines unit, tensor and
    braiding_mat, and fixes the grading/action semantics.  A plain backend
    yields no verdicts (Morphism itself rejects a matrix that does not fit)."""

    def object_verdicts(self, x: CatObject) -> Verdicts:
        yield from ()

    def morphism_verdicts(self, f: Morphism) -> Verdicts:
        yield from ()

    def morphism_report(self, f: Morphism) -> list[CheckResult]:
        return []


@dataclass(repr=False)
class VecBackend(Backend):
    """Plain vector spaces; the braiding is the flip."""

    kind = "vec"

    def unit(self) -> CatObject:
        return CatObject(1)

    def tensor(self, x: CatObject, y: CatObject) -> CatObject:
        return CatObject(x.dim * y.dim)

    def braiding_mat(self, x: CatObject, y: CatObject) -> Matrix:
        return _flip(x, y, lambda i, j: 1)


def _require_grading(x: CatObject) -> tuple[int, ...]:
    if x.grading is None:
        raise ValueError("backend requires a grading on every object")
    return x.grading


def _witness(ok: bool) -> str | None:
    """The witness of a yes/no check, as ``bool_check`` writes it."""
    return None if ok else "condition_violated"


@dataclass(eq=False, repr=False)
class _GradedBackend(Backend):
    """Objects graded by a finite group: the tensor product multiplies grades
    and a morphism must preserve them.  Subclasses define the braiding."""

    group: FiniteGroup

    def unit(self) -> CatObject:
        return CatObject(1, grading=(self.group.identity,))

    def tensor(self, x: CatObject, y: CatObject) -> CatObject:
        gx, gy = _require_grading(x), _require_grading(y)
        grading = tuple(self.group.mul(a, b) for a in gx for b in gy)
        return CatObject(x.dim * y.dim, grading=grading)

    def morphism_report(self, f: Morphism) -> list[CheckResult]:
        return [bool_check(name, w is None, w) for name, w in self.morphism_verdicts(f)]

    def _wellformed(self, x: CatObject) -> bool:
        grading = _require_grading(x)
        n = len(self.group.elements)
        return len(grading) == x.dim and all(0 <= g < n for g in grading)

    def object_verdicts(self, x: CatObject) -> Verdicts:
        yield "grading_wellformed", _witness(self._wellformed(x))

    def morphism_verdicts(self, f: Morphism) -> Verdicts:
        """grade_preserving: f equals its part between equal grades; the
        witness is the first entry between two grades, as ``eq_check`` of f
        and that part writes it."""
        gd, gc = _require_grading(f.dom), _require_grading(f.cod)
        joins = ((i, j, col[i], 0) for j, col in enumerate(f.mat.columns())
                 for i in sorted(col) if gc[i] != gd[j])
        yield "grade_preserving", difference_witness(next(joins, None))


PARITY = FiniteGroup.from_table("parity", ["0", "1"], [[0, 1], [1, 0]])


@dataclass(repr=False)
class SuperVecBackend(_GradedBackend):
    """Parity-graded spaces; the flip of two odd vectors carries a sign."""

    group: FiniteGroup = field(default=PARITY, init=False)

    kind = "super"

    def braiding_mat(self, x: CatObject, y: CatObject) -> Matrix:
        gx, gy = _require_grading(x), _require_grading(y)
        return _flip(x, y, lambda i, j: -1 if gx[i] and gy[j] else 1)


@dataclass(repr=False)
class SignGradedBackend(_GradedBackend):
    """Grading over an arbitrary finite group with a +-1 bicharacter."""

    bichar: tuple[tuple[int, ...], ...]   # values in {1,-1}, indexed by element

    kind = "graded"

    @staticmethod
    def make(group: FiniteGroup, bichar_rows: list[list[int]]) -> "SignGradedBackend":
        g = group
        n = len(g.elements)
        if len(bichar_rows) != n:
            raise ValueError("bicharacter must have one row per element")
        for row in bichar_rows:
            if len(row) != n or any(v not in (1, -1) for v in row):
                raise ValueError("bicharacter must be an n x n table of +-1")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if bichar_rows[g.mul(a, b)][c] != bichar_rows[a][c] * bichar_rows[b][c]:
                        raise ValueError("bicharacter not multiplicative on the left")
                    if bichar_rows[a][g.mul(b, c)] != bichar_rows[a][b] * bichar_rows[a][c]:
                        raise ValueError("bicharacter not multiplicative on the right")
        return SignGradedBackend(group, tuple(tuple(r) for r in bichar_rows))

    def braiding_mat(self, x: CatObject, y: CatObject) -> Matrix:
        gx, gy = _require_grading(x), _require_grading(y)
        return _flip(x, y, lambda i, j: self.bichar[gx[i]][gy[j]])


def _require_action(x: CatObject) -> tuple[Matrix, ...]:
    if x.action is None:
        raise ValueError("backend requires a group action on every object")
    return x.action


@dataclass(repr=False)
class YetterDrinfeldBackend(_GradedBackend):
    """G-graded G-representations with h . V_g inside V_{h g h^-1}."""

    kind = "yd"

    def unit(self) -> CatObject:
        return replace(super().unit(),
                       action=tuple(Matrix.identity(1) for _ in self.group.elements))

    def tensor(self, x: CatObject, y: CatObject) -> CatObject:
        xy = super().tensor(x, y)
        ax, ay = _require_action(x), _require_action(y)
        return replace(xy, action=tuple(kron(ax[g], ay[g])
                                        for g in range(len(self.group.elements))))

    def object_verdicts(self, x: CatObject) -> Verdicts:
        """The grade check, then the action checks; compatibility, the one
        that reads grades, fails on a grading that is not well formed."""
        yield from super().object_verdicts(x)
        g = self.group
        n = len(g.elements)
        grading = x.grading
        action = _require_action(x)
        yield "action_identity", difference_witness(
            Matrix.first_difference(action[g.identity], Matrix.identity(x.dim)))
        yield "action_homomorphism", _witness(all(action[a] * action[b] == action[g.mul(a, b)]
                                                  for a in range(n) for b in range(n)))
        yield "yetter_drinfeld_compatibility", _witness(self._wellformed(x) and all(
            grading[i] == g.conjugate(h, grading[j])
            for h in range(n) for j in range(x.dim) for i in action[h].column(j)))

    def braiding_mat(self, x: CatObject, y: CatObject) -> Matrix:
        grading = _require_grading(x)
        ay = _require_action(y)
        entries = []
        for i in range(x.dim):
            act = ay[grading[i]]
            for j in range(y.dim):
                for k, v in act.column(j).items():
                    entries.append((k * x.dim + i, i * y.dim + j, v))
        return Matrix.from_entries(x.dim * y.dim, x.dim * y.dim, entries)

    def morphism_verdicts(self, f: Morphism) -> Verdicts:
        yield from super().morphism_verdicts(f)
        ad, ac = _require_action(f.dom), _require_action(f.cod)
        broken = (f"element={name}" for g, name in enumerate(self.group.elements)
                  if f.mat * ad[g] != ac[g] * f.mat)
        yield "equivariance", next(broken, None)


VEC = VecBackend()
SUPER = SuperVecBackend()
