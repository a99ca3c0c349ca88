"""One-sided and paired linear equations in one unknown.

solve_left treats A X = C, solve_right treats X A = C, and solve_pair
treats the simultaneous pair A X = C, X B = D.  Inconsistency is a
result, not an error; each solver decides by the rule of
:func:`.families.decide`, and an ``Inconsistent`` reports both the
residual certificate and the equivalent rank certificate.  When a
residual or compatibility condition fails, its rank list is built on
first read, from the matrices as given to the solver.
"""

from __future__ import annotations

from ..decomp import pinv, rank
from ..qmatrix import DimensionError, QMatrix, hstack, vstack
from .families import (DEFAULT_TOL, FreeParam, LinearSolutionFamily,
                       cascade_floor, decide, rank_condition,
                       residual_condition)


def solve_left(a: QMatrix, c: QMatrix, tol: float = DEFAULT_TOL):
    """General solution of A X = C: X = pinv(A) C + L_A U1."""
    if a.rows != c.rows:
        raise DimensionError(f"A has {a.rows} rows but C has {c.rows}")
    floor = cascade_floor(a, c)
    ba = pinv(a, floor=floor)
    threshold = tol * (1.0 + c.norm())
    particular = ba.pinv @ c
    mp = [residual_condition("R_A*C", c - a @ particular, threshold)]
    params = (FreeParam("U1", (a.cols, c.cols)),)

    def assemble(vals):
        return (particular + ba.proj_left @ vals["U1"],)

    return decide(
        [], mp,
        lambda a, c: [rank_condition("r(C,A)=r(A)",
                                     rank(hstack([c, a]), floor=floor),
                                     ba.rank)],
        lambda: LinearSolutionFamily(("X",), params, assemble),
        lambda sol: [("A*X=C", a @ sol[0] - c, c.norm())], tol, (a, c))


def solve_right(a: QMatrix, c: QMatrix, tol: float = DEFAULT_TOL):
    """General solution of X A = C: X = C pinv(A) + U1 R_A."""
    if a.cols != c.cols:
        raise DimensionError(f"A has {a.cols} columns but C has {c.cols}")
    floor = cascade_floor(a, c)
    ba = pinv(a, floor=floor)
    threshold = tol * (1.0 + c.norm())
    particular = c @ ba.pinv
    mp = [residual_condition("C*L_A", c - particular @ a, threshold)]
    params = (FreeParam("U1", (c.rows, a.rows)),)

    def assemble(vals):
        return (particular + vals["U1"] @ ba.proj_right,)

    return decide(
        [], mp,
        lambda a, c: [rank_condition("r(C;A)=r(A)",
                                     rank(vstack([c, a]), floor=floor),
                                     ba.rank)],
        lambda: LinearSolutionFamily(("X",), params, assemble),
        lambda sol: [("X*A=C", sol[0] @ a - c, c.norm())], tol, (a, c))


def solve_pair(a: QMatrix, c: QMatrix, b: QMatrix, d: QMatrix,
               tol: float = DEFAULT_TOL):
    """General solution of the pair A X = C, X B = D.

    Consistency requires R_A C = 0, D L_B = 0 and the compatibility
    A D = C B; then X = pinv(A) C + L_A D pinv(B) + L_A U1 R_B.
    """
    if a.rows != c.rows:
        raise DimensionError(f"A has {a.rows} rows but C has {c.rows}")
    if b.cols != d.cols:
        raise DimensionError(f"B has {b.cols} columns but D has {d.cols}")
    if a.cols != d.rows:
        raise DimensionError(f"A has {a.cols} columns but D has {d.rows} rows")
    if b.rows != c.cols:
        raise DimensionError(f"B has {b.rows} rows but C has {c.cols} columns")
    floor = cascade_floor(a, b, c, d)
    ba, bb = pinv(a, floor=floor), pinv(b, floor=floor)
    scale = tol * (1.0 + c.norm() + d.norm())
    compat = [residual_condition("A*D=C*B", a @ d - c @ b, scale)]
    mp = [residual_condition("R_A*C", ba.proj_right @ c, scale),
          residual_condition("D*L_B", d @ bb.proj_left, scale)]
    particular = ba.pinv @ c + ba.proj_left @ d @ bb.pinv
    params = (FreeParam("U1", (a.cols, b.rows)),)

    def assemble(vals):
        return (particular + ba.proj_left @ vals["U1"] @ bb.proj_right,)

    return decide(
        compat, mp,
        lambda a, c, b, d: [
            rank_condition("r(C,A)=r(A)",
                           rank(hstack([c, a]), floor=floor), ba.rank),
            rank_condition("r(D;B)=r(B)",
                           rank(vstack([d, b]), floor=floor), bb.rank)],
        lambda: LinearSolutionFamily(("X",), params, assemble),
        lambda sol: [("A*X=C", a @ sol[0] - c, c.norm()),
                     ("X*B=D", sol[0] @ b - d, d.norm())], tol, (a, c, b, d))
