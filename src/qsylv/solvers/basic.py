"""The pair A X = C, X B = D in one unknown (Mitra, LAA 59, 1984).

Consistency requires R_A C = 0, D L_B = 0 and A D = C B; then
X = pinv(A) C + L_A D pinv(B) + L_A U1 R_B.  A X = C and X A = C are
the pair with one equation empty: its pinv takes no SVD, its
conditions are vacuous and its projector is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..decomp import pinv, rank
from ..qmatrix import QMatrix, hstack, vstack
from .families import (DEFAULT_TOL, FreeParam, LinearSolutionFamily,
                       ShapedInstance, cascade_floor, check, rank_condition,
                       residual_condition, solve)


@dataclass(frozen=True)
class PairInstance(ShapedInstance):
    """Coefficients of A X = C, X B = D; either equation may be empty."""

    SHAPES = {"A": ("q", "p"), "C": ("q", "r"), "B": ("r", "s"),
              "D": ("p", "s"), "X": ("p", "r")}
    TERMS = {"C": (("A", "X", None, False),),
             "D": ((None, "X", "B", False),)}

    A: QMatrix
    C: QMatrix
    B: QMatrix
    D: QMatrix


class _PairWork:
    """The pinv bundles of A and B, with both certificates: the
    reduction of a pair instance."""

    def __init__(self, inst: PairInstance):
        self.inst = inst
        self.floor = cascade_floor(*inst.blocks())
        self.ba = pinv(inst.A, floor=self.floor)
        self.bb = pinv(inst.B, floor=self.floor)
        self.scale = 1.0 + inst.C.norm() + inst.D.norm()

    def compat_conditions(self, tol: float) -> list:
        a, c, b, d = self.inst.blocks()
        return [residual_condition("A*D=C*B", a @ d - c @ b,
                                   tol * self.scale)]

    def mp_conditions(self, tol: float) -> list:
        _, c, _, d = self.inst.blocks()
        threshold = tol * self.scale
        return [residual_condition("R_A*C", self.ba.proj_right @ c, threshold),
                residual_condition("D*L_B", d @ self.bb.proj_left, threshold)]

    def rank_conditions(self) -> list:
        a, c, b, d = self.inst.blocks()
        r = lambda m: rank(m, floor=self.floor)
        return [rank_condition("r(C,A)=r(A)", r(hstack([c, a])), self.ba.rank),
                rank_condition("r(D;B)=r(B)", r(vstack([d, b])), self.bb.rank)]

    def family(self, branch: str) -> LinearSolutionFamily:
        """The one closed form; ``branch`` is not read."""
        ba, bb = self.ba, self.bb
        _, c, _, d = self.inst.blocks()
        particular = ba.pinv @ c + ba.proj_left @ d @ bb.pinv
        params = (FreeParam("U1", self.inst.unknown_shapes()["X"]),)
        return LinearSolutionFamily(("X",), params, lambda vals: (
            particular + ba.proj_left @ vals["U1"] @ bb.proj_right,))


PairInstance.WORK = _PairWork

check_pair = check


def solve_left(a: QMatrix, c: QMatrix, tol: float = DEFAULT_TOL):
    """General solution of A X = C: X = pinv(A) C + L_A U1."""
    return solve(PairInstance(a, c, QMatrix.zeros(c.cols, 0),
                              QMatrix.zeros(a.cols, 0)), tol)


def solve_right(a: QMatrix, c: QMatrix, tol: float = DEFAULT_TOL):
    """General solution of X A = C: X = C pinv(A) + U1 R_A."""
    return solve(PairInstance(QMatrix.zeros(0, c.rows),
                              QMatrix.zeros(0, a.rows), a, c), tol)


def solve_pair(a: QMatrix, c: QMatrix, b: QMatrix, d: QMatrix,
               tol: float = DEFAULT_TOL):
    """General solution of the pair A X = C, X B = D, or Inconsistent."""
    return solve(PairInstance(a, c, b, d), tol)
