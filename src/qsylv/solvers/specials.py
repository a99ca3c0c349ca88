"""Specializations of the master system.

The three-unknown two-sided system is the master system with the first
unknown pair absent; it is solved by lifting to a MasterInstance with
empty blocks and delegating.  The mixed system (two constrained
unknowns coupled by one two-sided equation) is solved by eliminating
the pair constraints and delegating the residual coupling to the
two-term solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..decomp import pinv, rank
from ..qmatrix import QMatrix, block, hstack, vstack
from .basic import DEFAULT_TOL
from .families import (FreeParam, Inconsistent, LinearSolutionFamily,
                       ShapedInstance, SolvabilityReport, cascade_floor,
                       decide, rank_condition, residual_condition)
from .master import MasterInstance, check_master, solve_master
from .two_term import TwoTermInstance, _TwoTermWork


@dataclass(frozen=True)
class ThreeTermInstance(ShapedInstance):
    """A1 X = C1, X B1 = D1, ..., E1 X F1 + E2 Y F2 + E3 Z F3 = C."""

    SHAPES = {
        "C": ("cr", "cc"),
        "A1": ("q1", "p1"), "B1": ("r1", "s1"),
        "C1": ("q1", "r1"), "D1": ("p1", "s1"),
        "E1": ("cr", "p1"), "F1": ("r1", "cc"),
        "A2": ("q2", "p2"), "B2": ("r2", "s2"),
        "C2": ("q2", "r2"), "D2": ("p2", "s2"),
        "E2": ("cr", "p2"), "F2": ("r2", "cc"),
        "A3": ("q3", "p3"), "B3": ("r3", "s3"),
        "C3": ("q3", "r3"), "D3": ("p3", "s3"),
        "E3": ("cr", "p3"), "F3": ("r3", "cc"),
        "X": ("p1", "r1"), "Y": ("p2", "r2"), "Z": ("p3", "r3"),
    }
    TERMS = {
        "C1": (("A1", "X", None, False),), "D1": ((None, "X", "B1", False),),
        "C2": (("A2", "Y", None, False),), "D2": ((None, "Y", "B2", False),),
        "C3": (("A3", "Z", None, False),), "D3": ((None, "Z", "B3", False),),
        "C": (("E1", "X", "F1", False), ("E2", "Y", "F2", False),
              ("E3", "Z", "F3", False)),
    }

    A1: QMatrix
    A2: QMatrix
    A3: QMatrix
    B1: QMatrix
    B2: QMatrix
    B3: QMatrix
    C1: QMatrix
    C2: QMatrix
    C3: QMatrix
    D1: QMatrix
    D2: QMatrix
    D3: QMatrix
    E1: QMatrix
    E2: QMatrix
    E3: QMatrix
    F1: QMatrix
    F2: QMatrix
    F3: QMatrix
    C: QMatrix

    def to_master(self) -> MasterInstance:
        """Lift by letting the first master block vanish (empty blocks)."""
        cr, cc = self.C.shape
        z = QMatrix.zeros
        return MasterInstance(
            A1=z(0, 0), B1=z(0, 0), C1=z(0, cc), D1=z(cr, 0),
            E1=z(cr, 0), F1=z(0, cc),
            A2=self.A1, B2=self.B1, C2=self.C1, D2=self.D1,
            E2=self.E1, F2=self.F1,
            A3=self.A2, B3=self.B2, C3=self.C2, D3=self.D2,
            E3=self.E2, F3=self.F2,
            A4=self.A3, B4=self.B3, C4=self.C3, D4=self.D3,
            E4=self.E3, F4=self.F3,
            Cc=self.C)


def check_three_term(inst: ThreeTermInstance,
                     tol: float = DEFAULT_TOL) -> SolvabilityReport:
    """Master certificate lists on the lifted instance.

    With the first block empty, the master conditions collapse to
    exactly the rank and residual lists stated for this system (the
    conditions tied to the absent block become vacuous)."""
    return check_master(inst.to_master(), tol)


def solve_three_term_system(inst: ThreeTermInstance,
                            tol: float = DEFAULT_TOL, branch: str = "first"):
    """General solution family (X, Y, Z), or Inconsistent."""
    res = solve_master(inst.to_master(), tol, branch)
    if isinstance(res, Inconsistent):
        return res

    def assemble(vals):
        return res.assemble(vals)[2:]

    return LinearSolutionFamily(("X", "Y", "Z"), res.free_params, assemble)


@dataclass(frozen=True)
class MixedInstance(ShapedInstance):
    """A1 X = C1, X B1 = C2, A2 Y = C3, Y B2 = C4,
    A3 X B3 + A4 Y B4 = Cc."""

    SHAPES = {
        "Cc": ("cr", "cc"),
        "A1": ("q1", "p1"), "B1": ("t1", "s1"),
        "C1": ("q1", "t1"), "C2": ("p1", "s1"),
        "A2": ("q2", "p2"), "B2": ("t2", "s2"),
        "C3": ("q2", "t2"), "C4": ("p2", "s2"),
        "A3": ("cr", "p1"), "B3": ("t1", "cc"),
        "A4": ("cr", "p2"), "B4": ("t2", "cc"),
        "X1": ("p1", "t1"), "X2": ("p2", "t2"),
    }
    TERMS = {
        "C1": (("A1", "X1", None, False),), "C2": ((None, "X1", "B1", False),),
        "C3": (("A2", "X2", None, False),), "C4": ((None, "X2", "B2", False),),
        "Cc": (("A3", "X1", "B3", False), ("A4", "X2", "B4", False)),
    }

    A1: QMatrix
    B1: QMatrix
    C1: QMatrix
    C2: QMatrix
    A2: QMatrix
    B2: QMatrix
    C3: QMatrix
    C4: QMatrix
    A3: QMatrix
    B3: QMatrix
    A4: QMatrix
    B4: QMatrix
    Cc: QMatrix


class _MixedWork:
    def __init__(self, inst: MixedInstance):
        self.inst = inst
        self.floor = cascade_floor(*inst.blocks())
        pv = lambda m: pinv(m, floor=self.floor)
        self.bA1, self.bB1 = pv(inst.A1), pv(inst.B1)
        self.bA2, self.bB2 = pv(inst.A2), pv(inst.B2)
        self.A = inst.A3 @ self.bA1.proj_left
        self.Bb = self.bB1.proj_right @ inst.B3
        self.Cm = inst.A4 @ self.bA2.proj_left
        self.D = self.bB2.proj_right @ inst.B4
        self.E = (inst.Cc
                  - inst.A3 @ (self.bA1.pinv @ inst.C1) @ inst.B3
                  - self.A @ inst.C2 @ self.bB1.pinv @ inst.B3
                  - inst.A4 @ (self.bA2.pinv @ inst.C3) @ inst.B4
                  - self.Cm @ inst.C4 @ self.bB2.pinv @ inst.B4)
        self.inner = _TwoTermWork(TwoTermInstance(self.A, self.Bb, self.Cm,
                                                  self.D, self.E))

    def conditions(self, tol: float):
        """(compat, mp): the pair conditions, then the residual
        certificate of the pair conditions and of the reduced two-term
        equation."""
        inst = self.inst
        threshold = tol * (1.0 + sum(m.norm() for m in inst.blocks()))
        compat = [
            residual_condition("A1*C2=C1*B1",
                               inst.A1 @ inst.C2 - inst.C1 @ inst.B1,
                               threshold),
            residual_condition("A2*C4=C3*B2",
                               inst.A2 @ inst.C4 - inst.C3 @ inst.B2,
                               threshold),
        ]
        mp = [
            residual_condition("R_A1*C1", self.bA1.proj_right @ inst.C1,
                               threshold),
            residual_condition("C2*L_B1", inst.C2 @ self.bB1.proj_left,
                               threshold),
            residual_condition("R_A2*C3", self.bA2.proj_right @ inst.C3,
                               threshold),
            residual_condition("C4*L_B2", inst.C4 @ self.bB2.proj_left,
                               threshold),
        ]
        return compat, mp + self.inner.mp_conditions(tol)

    def rank_conditions(self, inst: MixedInstance) -> list:
        r = lambda m: rank(m, floor=self.floor)
        a1, b1, c1, c2 = inst.A1, inst.B1, inst.C1, inst.C2
        a2, b2, c3, c4 = inst.A2, inst.B2, inst.C3, inst.C4
        a3, b3, a4, b4, cc = inst.A3, inst.B3, inst.A4, inst.B4, inst.Cc
        out = [
            rank_condition("r(A1,C1)=r(A1)", r(hstack([a1, c1])), self.bA1.rank),
            rank_condition("r(A2,C3)=r(A2)", r(hstack([a2, c3])), self.bA2.rank),
            rank_condition("r(C2;B1)=r(B1)", r(vstack([c2, b1])), self.bB1.rank),
            rank_condition("r(C4;B2)=r(B2)", r(vstack([c4, b2])), self.bB2.rank),
            rank_condition(
                "R1",
                r(block([[a1, None, c1 @ b3],
                         [a3, a4 @ c4, cc],
                         [None, b2, b4]])),
                r(block([[a1, None, None],
                         [a3, None, None],
                         [None, b2, b4]]))),
            rank_condition(
                "R2",
                r(block([[a2, None, c3 @ b4],
                         [a4, a3 @ c2, cc],
                         [None, b1, b3]])),
                r(block([[a2, None, None],
                         [a4, None, None],
                         [None, b1, b3]]))),
            rank_condition(
                "R3",
                r(block([[b1, None, b3],
                         [None, b2, b4],
                         [a3 @ c2, a4 @ c4, cc]])),
                r(block([[b1, None, b3], [None, b2, b4]]))),
            rank_condition(
                "R4",
                r(block([[c1 @ b3, a1, None],
                         [c3 @ b4, None, a2],
                         [cc, a3, a4]])),
                r(block([[a1, None], [None, a2], [a3, a4]]))),
        ]
        return out


def check_mixed(inst: MixedInstance,
                tol: float = DEFAULT_TOL) -> SolvabilityReport:
    work = _MixedWork(inst)
    return SolvabilityReport.build(*work.conditions(tol),
                                   work.rank_conditions(inst))


def solve_mixed_system(inst: MixedInstance, tol: float = DEFAULT_TOL):
    """General solution family (X1, X2) with free parameters U, V, W, Z.

    The pair constraints pin each unknown up to a projected free block;
    substituting these into the coupling equation leaves a two-term
    two-sided equation that the two-term solver parametrizes."""
    work = _MixedWork(inst)
    inner_family = work.inner.family()
    x_shape, y_shape = inst.unknown_shapes().values()
    params = (FreeParam("U", x_shape), FreeParam("V", y_shape),
              FreeParam("W", y_shape), FreeParam("Z", x_shape))
    x_part = (work.bA1.pinv @ inst.C1
              + work.bA1.proj_left @ inst.C2 @ work.bB1.pinv)
    y_part = (work.bA2.pinv @ inst.C3
              + work.bA2.proj_left @ inst.C4 @ work.bB2.pinv)

    def assemble(vals):
        xt, yt = inner_family.assemble({"Y11": vals["V"], "Y12": vals["U"],
                                        "Y13": vals["Z"], "Y14": vals["V"],
                                        "Y15": vals["W"]})
        x = x_part + work.bA1.proj_left @ xt @ work.bB1.proj_right
        y = y_part + work.bA2.proj_left @ yt @ work.bB2.proj_right
        return (x, y)

    return decide(*work.conditions(tol), work.rank_conditions,
                  lambda: LinearSolutionFamily(("X1", "X2"), params, assemble),
                  inst.residual_terms, tol, (inst,))
