"""Independent re-evaluation of one entry of each Hopf axiom identity.

A failing check's witness ``(i,j):lhs=a:rhs=b`` names one entry of both
sides.  This module recomputes that entry from the structure constants by
explicit index sums (Vec backend, flip braiding), without the engine's
``pipeline`` / ``compose`` / ``kron``, so a witness is confirmed by
arithmetic that shares no code path with the check that produced it.

Index convention (the engine's Kronecker order): basis x (x) y of A (x) A
is ``x*n + y``, and x (x) y (x) z of A^3 is ``(x*n + y)*n + z``.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


def entry_pair(alg, name: str, i: int, j: int) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of identity ``name`` at row i, column j."""
    n = alg.dim
    m, u, d, e, s = alg.m.mat, alg.u.mat, alg.delta.mat, alg.eps.mat, alg.s.mat
    unit = u.column(0)
    counit = {k: e.entry(0, k) for k in range(n) if e.entry(0, k)}

    if name == "algebra_associativity":
        xy, z = divmod(j, n)
        x, y = divmod(xy, n)
        lhs = sum((v * m.entry(i, k * n + z) for k, v in m.column(x * n + y).items()), ZERO)
        rhs = sum((v * m.entry(i, x * n + k) for k, v in m.column(y * n + z).items()), ZERO)
        return lhs, rhs
    if name == "algebra_unit_left":
        lhs = sum((v * m.entry(i, k * n + j) for k, v in unit.items()), ZERO)
        return lhs, Fraction(int(i == j))
    if name == "algebra_unit_right":
        lhs = sum((v * m.entry(i, j * n + k) for k, v in unit.items()), ZERO)
        return lhs, Fraction(int(i == j))
    if name == "coalgebra_coassociativity":
        ab, c = divmod(i, n)
        a, b = divmod(ab, n)
        lhs = rhs = ZERO
        for pq, v in d.column(j).items():
            p, q = divmod(pq, n)
            if q == c:
                lhs += v * d.entry(ab, p)
            if p == a:
                rhs += v * d.entry(b * n + c, q)
        return lhs, rhs
    if name == "coalgebra_counit_left":
        lhs = sum((v * d.entry(k * n + i, j) for k, v in counit.items()), ZERO)
        return lhs, Fraction(int(i == j))
    if name == "coalgebra_counit_right":
        lhs = sum((v * d.entry(i * n + k, j) for k, v in counit.items()), ZERO)
        return lhs, Fraction(int(i == j))
    if name == "bialgebra_compatibility":
        a, b = divmod(i, n)
        x, y = divmod(j, n)
        lhs = sum((v * d.entry(i, k) for k, v in m.column(j).items()), ZERO)
        rhs = ZERO
        for pq, v in d.column(x).items():
            p, q = divmod(pq, n)
            for rs, w in d.column(y).items():
                r, t = divmod(rs, n)
                rhs += v * w * m.entry(a, p * n + r) * m.entry(b, q * n + t)
        return lhs, rhs
    if name == "unit_comultiplicative":
        a, b = divmod(i, n)
        lhs = sum((v * d.entry(i, k) for k, v in unit.items()), ZERO)
        return lhs, u.entry(a, 0) * u.entry(b, 0)
    if name == "counit_multiplicative":
        x, y = divmod(j, n)
        lhs = sum((v * counit.get(k, ZERO) for k, v in m.column(j).items()), ZERO)
        return lhs, counit.get(x, ZERO) * counit.get(y, ZERO)
    if name == "counit_of_unit":
        return sum((v * counit.get(k, ZERO) for k, v in unit.items()), ZERO), Fraction(1)
    if name in ("antipode_axiom.left", "antipode_axiom.right"):
        lhs = ZERO
        for pq, v in d.column(j).items():
            p, q = divmod(pq, n)
            if name.endswith("left"):
                lhs += sum((v * w * m.entry(i, k * n + q) for k, w in s.column(p).items()), ZERO)
            else:
                lhs += sum((v * w * m.entry(i, p * n + k) for k, w in s.column(q).items()), ZERO)
        return lhs, u.entry(i, 0) * counit.get(j, ZERO)
    if name == "antipode_anti_multiplicative":
        x, y = divmod(j, n)
        lhs = sum((v * s.entry(i, k) for k, v in m.column(j).items()), ZERO)
        rhs = ZERO
        for p, v in s.column(y).items():
            for q, w in s.column(x).items():
                rhs += v * w * m.entry(i, p * n + q)
        return lhs, rhs
    if name == "antipode_anti_comultiplicative":
        a, b = divmod(i, n)
        lhs = sum((v * d.entry(i, k) for k, v in s.column(j).items()), ZERO)
        rhs = ZERO
        for pq, v in d.column(j).items():
            p, q = divmod(pq, n)
            rhs += v * s.entry(a, q) * s.entry(b, p)
        return lhs, rhs
    raise KeyError(f"no oracle for check {name!r}")
