"""Canonical weak projection contexts, a bialgebra in a Yetter-Drinfeld
category, the group-table oracle of matched pairs, and the definition files
of a context, shared across the test modules."""

from braidhopf.builders import (cyclic_group, exterior_line, group_algebra, s3_group,
                                subgroup_closure, sweedler_h4)
from braidhopf.category import SUPER, VEC, CatObject, Morphism, YetterDrinfeldBackend
from braidhopf.hopf import make_bialgebra
from braidhopf.linalg import Matrix
from braidhopf.products import MatchedPair
from braidhopf.textio import LoadedAlgebra, render_algebra, render_morphism


def h4_c2():
    """Sweedler's 4-dim algebra over its group-like part {1, g}."""
    a = sweedler_h4()
    b = group_algebra(cyclic_group(2))
    sigma = Morphism(b.carrier, a.carrier,
                     Matrix.from_entries(4, 2, [(0, 0, 1), (1, 1, 1)]))
    pi = Morphism(a.carrier, b.carrier,
                  Matrix.from_entries(2, 4, [(0, 0, 1), (1, 1, 1)]))
    return a, b, sigma, pi


def _in_yd_c2(base, grading, g_action):
    """The 2-dim Hopf algebra base in YD(C2), with the given grading and g
    acting by g_action."""
    carrier = CatObject(2, grading=grading, action=(Matrix.identity(2), g_action))
    return make_bialgebra(YetterDrinfeldBackend(cyclic_group(2)), carrier, base.m.mat,
                          base.u.mat, base.delta.mat, base.eps.mat, base.s.mat)


def yd_exterior_line():
    """The exterior line as a bialgebra in YD(C2): x odd, g acts by -1 on x."""
    return _in_yd_c2(exterior_line(SUPER), (0, 1), Matrix.from_rows([[1, 0], [0, -1]]))


def yd_kc2():
    """kC2 in YD(C2), graded and acted on trivially: its generating set is
    {g}, not the whole basis, so the certificate reads the carrier's object
    checks."""
    return _in_yd_c2(group_algebra(cyclic_group(2)), (0, 0), Matrix.identity(2))


def s3_c2():
    """kS3 over the transposition subgroup; pi keeps the t-part of g = c^i t^a."""
    a = group_algebra(s3_group())
    b = group_algebra(cyclic_group(2))
    sigma = Morphism(b.carrier, a.carrier,
                     Matrix.from_entries(6, 2, [(0, 0, 1), (3, 1, 1)]))
    pi = Morphism(a.carrier, b.carrier,
                  Matrix.from_entries(2, 6, [(0, 0, 1), (0, 1, 1), (0, 2, 1),
                                             (1, 3, 1), (1, 4, 1), (1, 5, 1)]))
    return a, b, sigma, pi


def s3_c3():
    """kS3 over the 3-cycle subgroup; pi keeps the c-part of g = t^a c^i."""
    a = group_algebra(s3_group())
    b = group_algebra(cyclic_group(3))
    sigma = Morphism(b.carrier, a.carrier,
                     Matrix.from_entries(6, 3, [(0, 0, 1), (1, 1, 1), (2, 2, 1)]))
    # ct = t c^2 and c2t = t c, so pi(ct) = g2 and pi(c2t) = g1
    pi = Morphism(a.carrier, b.carrier,
                  Matrix.from_entries(3, 6, [(0, 0, 1), (1, 1, 1), (2, 2, 1),
                                             (0, 3, 1), (2, 4, 1), (1, 5, 1)]))
    return a, b, sigma, pi


def c4_c2():
    """kC4 over its order-2 subgroup: the coset cocycle is not trivial."""
    a = group_algebra(cyclic_group(4, ["e", "w", "w2", "w3"]))
    b = group_algebra(cyclic_group(2, ["e", "w2"]))
    sigma = Morphism(b.carrier, a.carrier,
                     Matrix.from_entries(4, 2, [(0, 0, 1), (2, 1, 1)]))
    pi = Morphism(a.carrier, b.carrier,
                  Matrix.from_entries(2, 4, [(0, 0, 1), (0, 1, 1), (1, 2, 1), (1, 3, 1)]))
    return a, b, sigma, pi


def trivial(alg):
    """B = A with identity inclusion and retraction."""
    ident = Morphism(alg.carrier, alg.carrier, Matrix.identity(alg.dim))
    return alg, alg, ident, ident


def group_table_pair(group, r_names, b_names):
    """Matched pair of group algebras from an exact factorization G = R*B,
    read off the Cayley table: b*r refactors uniquely as r'*b', giving
    b |> r = r' and b <| r = b'.  This is the oracle for the pair derived
    through psi.

    Raises ValueError when R or B is not a subgroup or the factorization is
    not exact.
    """
    r_sub = subgroup_closure(group, "r_factor", r_names)
    b_sub = subgroup_closure(group, "b_factor", b_names)
    if list(r_sub.elements) != list(r_names) or list(b_sub.elements) != list(b_names):
        raise ValueError("each factor must be a subgroup listed in table order")
    r_idx = [group.index(n) for n in r_names]
    b_idx = [group.index(n) for n in b_names]
    factor = {}
    for ri, rv in enumerate(r_idx):
        for bi, bv in enumerate(b_idx):
            prod = group.mul(rv, bv)
            if prod in factor:
                raise ValueError("factorization is not exact")
            factor[prod] = (ri, bi)
    if len(factor) != len(group.elements):
        raise ValueError("factorization does not cover the group")
    nr, nb = len(r_idx), len(b_idx)
    act_r_entries = []
    act_b_entries = []
    for bi, bv in enumerate(b_idx):
        for ri, rv in enumerate(r_idx):
            rp, bp = factor[group.mul(bv, rv)]
            act_r_entries.append((rp, bi * nr + ri, 1))
            act_b_entries.append((bp, bi * nr + ri, 1))
    return MatchedPair(group_algebra(r_sub), group_algebra(b_sub),
                       Matrix.from_entries(nr, nb * nr, act_r_entries),
                       Matrix.from_entries(nb, nb * nr, act_b_entries))


def write_context(directory, a, b, pi):
    """Render A and B, each a (name, basis names, Hopf algebra in Vec), as
    hopf files into directory, and pi: A -> B as a morphism file; the three
    paths.  The CLI's sigma is then the inclusion by basis names."""
    paths = []
    for name, basis, alg in (a, b):
        path = directory / f"{name}.alg"
        path.write_text(render_algebra(LoadedAlgebra("hopf", name, VEC, tuple(basis),
                                                     alg.carrier, alg)))
        paths.append(str(path))
    path = directory / "pi.map"
    path.write_text(render_morphism(pi.mat, list(a[1]), list(b[1])))
    return paths + [str(path)]
