"""The two-term two-sided equation C3 X3 D3 + C4 X4 D4 = E1."""

from __future__ import annotations

from ..decomp import pinv
from .families import (FreeParam, Mirror, ShapedInstance, cascade_floor,
                       coefficient_norms)


class TwoTermInstance(ShapedInstance):
    """Coefficients of C3 X3 D3 + C4 X4 D4 = E1 as one value.

    Consistency is decided by four residual conditions and four rank
    equalities.  The family has one closed form, with five free
    parameters Y11..Y15 (Y11 is shared between the two unknowns)."""

    SHAPES = {"C3": ("p", "m3"), "D3": ("n3", "q"), "C4": ("p", "m4"),
              "D4": ("n4", "q"), "E1": ("p", "q"),
              "X3": ("m3", "n3"), "X4": ("m4", "n4")}
    TERMS = {"E1": (("C3", "X3", "D3", False), ("C4", "X4", "D4", False))}


class TwoTermKernel:
    """Closed-form general solution of C3 X3 D3 + C4 X4 D4 = E1.

    With M = R_C3 C4, N = D4 L_D3 and S = C4 L_M, the seven pinv
    bundles (C3, C4, D3, D4, M, N, S) depend only on the coefficients;
    ``pv`` builds each one, so the caller keeps its rank tolerance and
    cascade floor.  When the projector that forms M, N or S is an
    identity marker, that matrix is C4 or D4 itself and shares its
    bundle.  The left-to-right prefixes of the solution's
    products that read no right side (pinv(C3) C4 pinv(M), pinv(C3) S,
    pinv(C3) S pinv(C4), pinv(S) S pinv(C4) and L_M L_S) are formed here
    once; ``@`` is left-associative, so each product keeps its bits.
    ``solve`` evaluates the solution for any right side and free
    parameters Y11..Y15 (Y11 is shared between the unknowns).
    """

    def __init__(self, c3, d3, c4, d4, pv):
        self.c4, self.d4 = c4, d4
        self.bc3, self.bc4 = pv(c3), pv(c4)
        self.bd3, self.bd4 = pv(d3), pv(d4)
        # an Identity projector hands back the operand itself, whose
        # bundle is built already
        self.m = self.bc3.proj_right @ c4
        self.n = d4 @ self.bd3.proj_left
        self.bm = self.bc4 if self.m is c4 else pv(self.m)
        self.bn = self.bd4 if self.n is d4 else pv(self.n)
        self.s = c4 @ self.bm.proj_left
        self.bs = self.bc4 if self.s is c4 else pv(self.s)
        pc3, pc4 = self.bc3.pinv, self.bc4.pinv
        self.pc3_c4_pm = pc3 @ c4 @ self.bm.pinv
        self.pc3_s = pc3 @ self.s
        self.pc3_s_pc4 = self.pc3_s @ pc4
        self.ps_s_pc4 = self.bs.pinv @ self.s @ pc4
        self.lm_ls = self.bm.proj_left @ self.bs.proj_left

    def solve(self, e1, y11, y12, y13, y14, y15):
        """(X3, X4) for right side e1 and free parameters Y11..Y15."""
        d4, bc3, bd3, bd4 = self.d4, self.bc3, self.bd3, self.bd4
        bm, bn = self.bm, self.bn
        x3 = (bc3.pinv @ e1 @ bd3.pinv
              - self.pc3_c4_pm @ e1 @ bd3.pinv
              - self.pc3_s_pc4 @ e1 @ bn.pinv @ d4 @ bd3.pinv
              - self.pc3_s @ y11 @ bn.proj_right @ d4 @ bd3.pinv
              + bc3.proj_left @ y12
              + y13 @ bd3.proj_right)
        x4 = (bm.pinv @ e1 @ bd4.pinv
              + self.ps_s_pc4 @ e1 @ bn.pinv
              + self.lm_ls @ y14
              + y15 @ bd4.proj_right
              + bm.proj_left @ y11 @ bn.proj_right)
        return x3, x4


class _TwoTermFactors(TwoTermKernel):
    """The norms of one instance's coefficients, and their kernel at
    their cascade floor."""

    def __init__(self, inst: TwoTermInstance):
        self.block_norms = coefficient_norms(inst)
        self.floor = cascade_floor(self.block_norms.values())
        super().__init__(inst.C3, inst.D3, inst.C4, inst.D4,
                         lambda m: pinv(m, floor=self.floor))


class _TwoTermWork:
    """The right-side pass of one two-term instance over the kernel of
    its coefficients, with both certificates: the reduction of a
    two-term instance."""

    def __init__(self, inst: TwoTermInstance, factors=None):
        self.inst = inst
        self.factors = factors or _TwoTermFactors(inst)

    def compat_terms(self) -> list:
        return []

    def mp_terms(self) -> list:
        k, e1 = self.factors, self.inst.E1
        return [
            ("R_M1*R_C3*E1", k.bm.proj_right @ (k.bc3.proj_right @ e1)),
            ("R_C3*E1*L_D4", k.bc3.proj_right @ e1 @ k.bd4.proj_left),
            ("E1*L_D3*L_N1", e1 @ k.bd3.proj_left @ k.bn.proj_left),
            ("R_C4*E1*L_D3", k.bc4.proj_right @ e1 @ k.bd3.proj_left),
        ]

    def rank_terms(self) -> list:
        """The four rank equalities.  With D3 = C3^eta*, D4 = C4^eta* and
        E1 eta-Hermitian, as on the root of the eta-two lift, the second
        and fourth grids, and the second's panel, are the eta-conjugate
        transposes of the first and third: they are marked as their
        :class:`.families.Mirror` s."""
        k, inst = self.factors, self.inst
        c3, d3, c4, d4, e1 = inst.C3, inst.D3, inst.C4, inst.D4, inst.E1
        first, panel = [[c3, e1, c4]], [[c3, c4]]
        third = [[c3, e1], [None, d4]]
        return [
            ("r(C3,E1,C4)=r(C3,C4)", first, (panel,)),
            ("r(D3;E1;D4)=r(D3;D4)", Mirror([[d3], [e1], [d4]], first),
             (Mirror([[d3], [d4]], panel),)),
            ("r([C3,E1;0,D4])=r(C3)+r(D4)", third, (k.bc3.rank, k.bd4.rank)),
            ("r([D3,0;E1,C4])=r(D3)+r(C4)", Mirror([[d3, None], [e1, c4]],
                                                    third),
             (k.bd3.rank, k.bc4.rank)),
        ]

    def params(self) -> tuple:
        shape3, shape4 = self.inst.unknown_shapes().values()
        return (FreeParam("Y11", shape4), FreeParam("Y12", shape3),
                FreeParam("Y13", shape3), FreeParam("Y14", shape4),
                FreeParam("Y15", shape4))

    def assemble(self, vals: dict):
        return self.factors.solve(self.inst.E1, vals["Y11"], vals["Y12"],
                                  vals["Y13"], vals["Y14"], vals["Y15"])


TwoTermInstance.WORK = _TwoTermWork
