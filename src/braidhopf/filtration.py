"""Wedge products, the B-adic coalgebra filtration, and the coradical.

A subobject of an n-dimensional carrier is an n x r embedding Matrix of
full column rank.  The wedge of two subobjects is the kernel of the
comultiplication pushed into the tensor product of the quotients; iterating
against a fixed subcoalgebra B gives the ascending filtration whose
exhaustiveness is one of the preconditions reported by
check_magnum_preconditions.  The coradical is computed dually, through the
trace-form radical of the dual algebra (valid in characteristic zero).
"""

from __future__ import annotations

from .category import CatObject, Morphism
from .hopf import (BraidedBialgebra, Coalgebra, HopfAlgebra,
                   solve_total_integral, verify_antipode)
from .linalg import Matrix, kernel_basis, kron, pipeline, solve_matrix
from .report import CheckResult, bool_check, merge_checks


def subspace_contains(emb: Matrix, vectors: Matrix) -> bool:
    """True when every column of vectors lies in the column span of emb."""
    return solve_matrix(emb, vectors) is not None


def full_subobject(ambient: CatObject) -> Matrix:
    return Matrix.identity(ambient.dim)


def quotient_projection(emb: Matrix) -> Matrix:
    """A projection whose kernel is the subobject: (n - r) x n, full row rank.

    Its rows are the basis of the left null space of the embedding that
    kernel_basis reads off the unique reduced form, so the quotient is
    deterministic.  Only its kernel matters to the wedge.
    """
    return Matrix.from_cols(emb.rows, kernel_basis(emb.transpose())).transpose()


def wedge(x: Matrix, y: Matrix, coalg: Coalgebra) -> Matrix:
    """X wedge Y = Ker[(p_X (x) p_Y) Delta]."""
    qx = quotient_projection(x)
    qy = quotient_projection(y)
    k = pipeline(coalg.delta.mat, (qx, qy))
    return Matrix.from_cols(coalg.dim, kernel_basis(k))


def is_subcoalgebra(coalg: Coalgebra, sub: Matrix) -> bool:
    """Delta restricted to the subobject must land in sub (x) sub."""
    return subspace_contains(kron(sub, sub), coalg.delta.mat * sub)


def b_adic_filtration(a: Coalgebra, b_sub: Matrix) -> tuple[int, ...] | None:
    """The dims of the iterated wedge against b_sub, run to its fixed point
    (each wedge holds the one before); entry k is the dim of the (k+1)-fold
    wedge.  The filtration exhausts a when the last entry is a.dim.  None
    when b_sub is not a subcoalgebra."""
    if not is_subcoalgebra(a, b_sub):
        return None
    dims = [b_sub.cols]
    current = b_sub
    while current.cols < a.dim:
        nxt = wedge(current, b_sub, a)
        dims.append(nxt.cols)
        if nxt.cols == current.cols:
            break
        current = nxt
    return tuple(dims)


def coradical(a: Coalgebra) -> Matrix:
    """Annihilator of the Jacobson radical of the dual algebra.

    The radical is the kernel of the trace form x, y -> tr(L_{x y}) of the
    dual algebra, which is exact over the rationals.  Both sums read only
    Delta's stored entries.
    """
    if a.backend.kind != "vec":
        raise ValueError("coradical is computed in the Vec backend only")
    n = a.dim
    columns = list(a.delta.mat.columns())
    # dual multiplication constants: e^i e^j = sum_k Delta[(i,j), k] e^k, so
    # left multiplication by e^i has trace sum_j Delta[(i,j), j]
    traces = [0] * n
    for j, col in enumerate(columns):
        for r, v in col.items():
            if r % n == j:
                traces[r // n] += v
    # the transposed form: entry (j, i) is sum_k Delta[(i,j), k] traces[k]
    tform = Matrix.from_entries(n, n, ((r % n, r // n, v * traces[k])
                                       for k, col in enumerate(columns) if traces[k]
                                       for r, v in col.items()))
    rad = kernel_basis(tform)
    if not rad:
        return full_subobject(a.carrier)
    ann = kernel_basis(Matrix.from_rows([list(v) for v in rad]))
    return Matrix.from_cols(n, ann)


def check_magnum_preconditions(a: BraidedBialgebra, b: HopfAlgebra,
                               sigma: Morphism) -> list[CheckResult]:
    """Diagnostic report for the weak projection existence hypotheses.

    Reports that B has a verified antipode, that B carries a total integral
    (the sufficient coseparability condition), that the B-adic filtration
    exhausts A, and, in Vec, that the coradical of A sits inside B.  The
    report asserts nothing beyond these checks.
    """
    checks = [merge_checks("b_has_antipode", verify_antipode(b))]
    integral = solve_total_integral(b)
    checks.append(bool_check("b_total_integral", integral is not None))
    filt = b_adic_filtration(a, sigma.mat)
    if filt is None:
        checks.append(CheckResult("filtration_exhaustive", "fail",
                                  witness="sigma_image_not_subcoalgebra"))
    else:
        dims = ",".join(str(x) for x in filt)
        checks.append(bool_check("filtration_exhaustive", filt[-1] == a.dim,
                                 witness=f"dims={dims}", value=f"dims={dims}"))
    if a.backend.kind == "vec":
        cor = coradical(a)
        checks.append(bool_check("coradical_inside_b",
                                 subspace_contains(sigma.mat, cor),
                                 witness=f"coradical_dim={cor.cols}",
                                 value=f"coradical_dim={cor.cols}"))
    else:
        checks.append(CheckResult("coradical_inside_b", "skipped", value="non_vec_backend"))
    return checks
