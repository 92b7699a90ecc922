#!/usr/bin/env python3
"""Regenerate the bundled definition-file corpus under corpus/.

Everything is produced from the programmatic builders and rendered in the
canonical text form, so reruns are byte-identical.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from braidhopf.builders import (conjugation_yd_object, cyclic_group,
                                exterior_line, group_algebra, s3_group,
                                subgroup_closure, sweedler_h4, symmetric_group)
from braidhopf.category import CatObject, SUPER, VEC, YetterDrinfeldBackend
from braidhopf.hopf import make_bialgebra, make_coalgebra
from braidhopf.linalg import Matrix
from braidhopf.products import actions_from_psi, make_factorization
from braidhopf.textio import (LoadedAlgebra, inclusion_by_names, render_algebra,
                              render_morphism, tensor_names)

ROOT = os.path.join(os.path.dirname(__file__), "..", "corpus")


def write(relpath: str, text: str) -> None:
    path = os.path.join(ROOT, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {os.path.relpath(path)}")


def loaded(kind, name, backend, basis, obj, algebra):
    return LoadedAlgebra(kind, name, backend, tuple(basis), obj, algebra)


def write_group_algebra(name, group):
    """Write algebras/<name>.alg, the group algebra of group, and return it loaded."""
    alg = group_algebra(group)
    loaded_alg = loaded("hopf", name, VEC, group.elements, alg.carrier, alg)
    write(f"algebras/{name}.alg", render_algebra(loaded_alg))
    return loaded_alg


def main() -> None:
    # group algebras; basis names are chosen so that canonical inclusions
    # into the ambient algebras work by name matching
    write_group_algebra("c2", cyclic_group(2, ["e", "g"]))
    write_group_algebra("c2_in_h4", cyclic_group(2, ["one", "g"]))
    c2_in_s3 = write_group_algebra("c2_in_s3", cyclic_group(2, ["e", "t"]))
    c3 = write_group_algebra("c3", cyclic_group(3, ["e", "c", "c2"]))
    write_group_algebra("c4", cyclic_group(4, ["e", "w", "w2", "w3"]))
    write_group_algebra("c2_in_c4", cyclic_group(2, ["e", "w2"]))
    s3 = s3_group()
    s3_alg = write_group_algebra("s3", s3)

    h4 = sweedler_h4()
    write("algebras/h4.alg",
          render_algebra(loaded("hopf", "h4", VEC, ["one", "g", "x", "gx"], h4.carrier, h4)))

    ext_s = exterior_line(SUPER)
    write("algebras/ext_super.alg",
          render_algebra(loaded("hopf", "ext_super", SUPER, ["one", "x"], ext_s.carrier, ext_s)))
    ext_v = exterior_line(VEC)
    write("algebras/ext_vec.alg",
          render_algebra(loaded("hopf", "ext_vec", VEC, ["one", "x"], ext_v.carrier, ext_v)))

    # upper triangular 2x2 comatrix coalgebra (no algebra structure)
    basis = ["e11", "e12", "e22"]
    carrier = CatObject(3)
    delta = Matrix.from_entries(9, 3, [(0, 0, 1), (1, 1, 1), (5, 1, 1), (8, 2, 1)])
    eps = Matrix.from_rows([[1, 0, 1]])
    ut2 = make_coalgebra(VEC, carrier, delta, eps)
    write("algebras/ut2.alg", render_algebra(loaded("coalgebra", "ut2", VEC, basis, carrier, ut2)))

    # the S4 = D4 * C3 exact factorization: ambient group algebra plus the
    # two subgroup algebras, with basis names matching the ambient ones
    s4 = symmetric_group(4)
    write_group_algebra("s4", s4)
    write_group_algebra("d4_in_s4", subgroup_closure(s4, "d4_in_s4", ["p1230", "p2103"]))
    write_group_algebra("c3_in_s4", subgroup_closure(s4, "c3_in_s4", ["p1203"]))

    # Yetter-Drinfeld demonstration objects over C2 and S3
    c2 = cyclic_group(2, ["e", "g"])
    yd2 = YetterDrinfeldBackend(c2)
    line = CatObject(1, grading=(1,), action=(Matrix.identity(1), Matrix.from_rows([[-1]])))
    write("objects/yd_c2_line.obj",
          render_algebra(loaded("object", "yd_c2_line", yd2, ["v"], line, None)))
    plane = CatObject(2, grading=(0, 0),
                      action=(Matrix.identity(2), Matrix.from_rows([[0, 1], [1, 0]])))
    write("objects/yd_c2_plane.obj",
          render_algebra(loaded("object", "yd_c2_plane", yd2, ["w0", "w1"], plane, None)))
    # the exterior line as a Hopf algebra in YD(C2): x odd, g acting by -1 on x
    odd = CatObject(2, grading=(0, 1),
                    action=(Matrix.identity(2), Matrix.from_rows([[1, 0], [0, -1]])))
    ext_yd = make_bialgebra(yd2, odd, ext_s.m.mat, ext_s.u.mat, ext_s.delta.mat, ext_s.eps.mat,
                            ext_s.s.mat)
    write("algebras/ext_yd.alg",
          render_algebra(loaded("hopf", "ext_yd", yd2, ["one", "x"], odd, ext_yd)))
    yd3 = YetterDrinfeldBackend(s3)
    reg = conjugation_yd_object(s3)
    write("objects/yd_s3_regular.obj",
          render_algebra(loaded("object", "yd_s3_regular", yd3,
                                [f"v_{n}" for n in s3.elements], reg, None)))

    # morphism files for the two canonical weak projection contexts, plus
    # the C3-base counterexample projection
    write("morphisms/sigma_c2_h4.map",
          render_morphism(Matrix.from_entries(4, 2, [(0, 0, 1), (1, 1, 1)]),
                          ["one", "g"], ["one", "g", "x", "gx"]))
    write("morphisms/pi_h4_c2.map",
          render_morphism(Matrix.from_entries(2, 4, [(0, 0, 1), (1, 1, 1)]),
                          ["one", "g", "x", "gx"], ["one", "g"]))
    write("morphisms/sigma_c2_s3.map",
          render_morphism(Matrix.from_entries(6, 2, [(0, 0, 1), (3, 1, 1)]),
                          ["e", "t"], list(s3.elements)))
    write("morphisms/pi_s3_c2.map",
          render_morphism(Matrix.from_entries(2, 6, [(0, 0, 1), (0, 1, 1), (0, 2, 1),
                                                     (1, 3, 1), (1, 4, 1), (1, 5, 1)]),
                          list(s3.elements), ["e", "t"]))
    write("morphisms/pi_s3_c3.map",
          render_morphism(Matrix.from_entries(3, 6, [(0, 0, 1), (1, 1, 1), (2, 2, 1),
                                                     (0, 3, 1), (2, 4, 1), (1, 5, 1)]),
                          list(s3.elements), ["e", "c", "c2"]))
    # w^a w2^b factorization of C4: the induced cocycle xi is NOT trivial
    write("morphisms/pi_c4_c2.map",
          render_morphism(Matrix.from_entries(2, 4, [(0, 0, 1), (0, 1, 1),
                                                     (1, 2, 1), (1, 3, 1)]),
                          ["e", "w", "w2", "w3"], ["e", "w2"]))

    # the matched pair of S3 = C3 * C2, derived through psi as `matchedpair
    # derive` does, as explicit action files over the dotted basis of B (x) R
    # with B = {e,t} and R = {e,c,c2}
    pair = actions_from_psi(make_factorization(
        s3_alg.algebra, c2_in_s3.algebra, c3.algebra,
        inclusion_by_names(c2_in_s3, s3_alg), inclusion_by_names(c3, s3_alg)))
    r_names, b_names = list(c3.basis), list(c2_in_s3.basis)
    br = tensor_names(b_names, r_names)
    write("morphisms/act_r_s3.map", render_morphism(pair.act_r, br, r_names))
    write("morphisms/act_b_s3.map", render_morphism(pair.act_b, br, b_names))


if __name__ == "__main__":
    main()
