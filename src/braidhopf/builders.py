"""Programmatic constructors for the standard test objects.

Group algebras from Cayley tables, the 4-dimensional algebra with a
group-like g and a skew-primitive x, the exterior line, and the
conjugation-graded objects used by the Yetter-Drinfeld backend.
"""

from __future__ import annotations

from itertools import permutations

from .category import Backend, CatObject, FiniteGroup, VEC
from .hopf import HopfAlgebra, make_bialgebra
from .linalg import Matrix


def cyclic_group(n: int, names: list[str] | None = None) -> FiniteGroup:
    if names is None:
        names = ["e"] + [f"g{k}" if n > 2 else "g" for k in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup.from_table(f"c{n}", names, table)


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p*q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(p)))


def s3_group() -> FiniteGroup:
    """S3 with named elements: c the 3-cycle, t a transposition, ct = c*t."""
    e = (0, 1, 2)
    c = (1, 2, 0)
    t = (1, 0, 2)
    elems = [("e", e), ("c", c), ("c2", _perm_mul(c, c)),
             ("t", t), ("ct", _perm_mul(c, t)), ("c2t", _perm_mul(_perm_mul(c, c), t))]
    names = [n for n, _ in elems]
    perms = [p for _, p in elems]
    table = [[perms.index(_perm_mul(p, q)) for q in perms] for p in perms]
    return FiniteGroup.from_table("s3", names, table)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on {0..n-1}; element p is named 'p' + its one-line image string."""
    perms = sorted(permutations(range(n)))
    names = ["p" + "".join(str(i) for i in p) for p in perms]
    index = {p: k for k, p in enumerate(perms)}
    table = [[index[_perm_mul(p, q)] for q in perms] for p in perms]
    return FiniteGroup.from_table(f"s{n}", names, table)


def subgroup_closure(group: FiniteGroup, name: str, generator_names: list[str]) -> FiniteGroup:
    """The subgroup generated by the given elements, called name, with its
    elements in the table order of group."""
    gens = [group.index(n) for n in generator_names]
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = group.mul(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    members = sorted(seen)
    position = {g: k for k, g in enumerate(members)}
    table = [[position[group.mul(i, j)] for j in members] for i in members]
    return FiniteGroup.from_table(name, [group.elements[i] for i in members], table)


def group_algebra(group: FiniteGroup) -> HopfAlgebra:
    """kG with group-like comultiplication and S(g) = g^-1."""
    n = len(group.elements)
    m = Matrix.from_entries(n, n * n,
                            ((group.mul(i, j), i * n + j, 1) for i in range(n) for j in range(n)))
    u = Matrix.from_entries(n, 1, [(group.identity, 0, 1)])
    delta = Matrix.from_entries(n * n, n, ((i * n + i, i, 1) for i in range(n)))
    eps = Matrix.from_rows([[1] * n])
    s = Matrix.from_entries(n, n, ((group.inverses[i], i, 1) for i in range(n)))
    return make_bialgebra(VEC, CatObject(n), m, u, delta, eps, s)


def sweedler_h4() -> HopfAlgebra:
    """The 4-dimensional algebra on {1, g, x, gx}: g^2 = 1, x^2 = 0, xg = -gx."""
    ONE, G, X, GX = range(4)
    prod = {
        (ONE, ONE): [(ONE, 1)], (ONE, G): [(G, 1)], (ONE, X): [(X, 1)], (ONE, GX): [(GX, 1)],
        (G, ONE): [(G, 1)], (G, G): [(ONE, 1)], (G, X): [(GX, 1)], (G, GX): [(X, 1)],
        (X, ONE): [(X, 1)], (X, G): [(GX, -1)], (X, X): [], (X, GX): [],
        (GX, ONE): [(GX, 1)], (GX, G): [(X, -1)], (GX, X): [], (GX, GX): [],
    }
    m = Matrix.from_entries(4, 16, ((k, i * 4 + j, v)
                                    for (i, j), terms in prod.items() for k, v in terms))
    u = Matrix.from_entries(4, 1, [(ONE, 0, 1)])
    delta = Matrix.from_entries(16, 4, [
        (ONE * 4 + ONE, ONE, 1),
        (G * 4 + G, G, 1),
        (X * 4 + ONE, X, 1), (G * 4 + X, X, 1),
        (GX * 4 + G, GX, 1), (ONE * 4 + GX, GX, 1),
    ])
    eps = Matrix.from_rows([[1, 1, 0, 0]])
    s = Matrix.from_entries(4, 4, [(ONE, ONE, 1), (G, G, 1), (GX, X, -1), (X, GX, 1)])
    return make_bialgebra(VEC, CatObject(4), m, u, delta, eps, s)


def exterior_line(backend: Backend) -> HopfAlgebra:
    """Lambda(x) on {1, x} with x primitive and x^2 = 0; x sits in odd degree.

    Valid in SuperVec; declaring the same constants in Vec breaks the
    braided compatibility axiom, which is exactly what the sign tests want.
    """
    m = Matrix.from_entries(2, 4, [(0, 0, 1), (1, 1, 1), (1, 2, 1)])
    u = Matrix.from_entries(2, 1, [(0, 0, 1)])
    delta = Matrix.from_entries(4, 2, [(0, 0, 1), (2, 1, 1), (1, 1, 1)])
    eps = Matrix.from_rows([[1, 0]])
    s = Matrix.from_rows([[1, 0], [0, -1]])
    grading = (0, 1) if backend.kind == "super" else None
    carrier = CatObject(2, grading=grading)
    return make_bialgebra(backend, carrier, m, u, delta, eps, s)


def conjugation_yd_object(group: FiniteGroup) -> CatObject:
    """kG graded by deg(v_g) = g with h . v_g = v_{h g h^-1}."""
    n = len(group.elements)
    action = tuple(
        Matrix.from_entries(n, n, ((group.conjugate(h, g), g, 1) for g in range(n)))
        for h in range(n))
    return CatObject(n, grading=tuple(range(n)), action=action)
