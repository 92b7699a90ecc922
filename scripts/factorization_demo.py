#!/usr/bin/env python3
"""Rebuild kS4 as a 24-dimensional double cross product from S4 = D4 * C3.

Derives the mutual actions through psi = phi^-1 m_A (sigma (x) i), the route
`braidhopf build doublecross` takes, checks the seven matched pair axioms and
the bialgebra axioms of the double cross product, and confirms the
multiplication map phi = m_A (i (x) sigma) : r (x) b -> r*b is an isomorphism
onto the group algebra of S4.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from braidhopf.builders import group_algebra, subgroup_closure, symmetric_group
from braidhopf.category import VEC
from braidhopf.hopf import verify_bialgebra
from braidhopf.linalg import pipeline
from braidhopf.products import (actions_from_psi, build_double_cross,
                                check_matched_pair, make_factorization)
from braidhopf.textio import LoadedAlgebra, inclusion_by_names


def loaded_group_algebra(group):
    alg = group_algebra(group)
    return LoadedAlgebra("hopf", group.name, VEC, group.elements, alg.carrier, alg)


def main() -> None:
    t0 = time.time()
    s4 = symmetric_group(4)
    d4 = subgroup_closure(s4, "d4", ["p1230", "p2103"])
    c3 = subgroup_closure(s4, "c3", ["p1203"])
    print(f"S4 order {len(s4.elements)}, D4 = {list(d4.elements)}, C3 = {list(c3.elements)}")

    # A = kS4 with R = kD4 and B = kC3, each included by its element names
    a, r, b = map(loaded_group_algebra, (s4, d4, c3))
    fc = make_factorization(a.algebra, b.algebra, r.algebra,
                            inclusion_by_names(b, a), inclusion_by_names(r, a))
    pair = actions_from_psi(fc)
    mp_report = check_matched_pair(pair)
    for c in mp_report:
        print(f"  {c.name}: {c.status}")
    assert all(c.status == "pass" for c in mp_report)

    product = build_double_cross(pair)
    bialg = verify_bialgebra(product)
    print(f"double cross product dim {product.dim}; "
          f"{sum(c.status == 'pass' for c in bialg)}/{len(bialg)} bialgebra checks pass")
    assert all(c.status == "pass" for c in bialg)

    # make_factorization has inverted phi; here it is also multiplicative
    phi = fc.phi_factor
    assert pipeline((phi, phi), a.algebra.m.mat) == pipeline(product.m.mat, phi)
    print(f"multiplication map is a 24-dim algebra isomorphism onto kS4")
    print(f"done in {time.time() - t0:.2f}s")


if __name__ == "__main__":
    main()
