"""Specializations of the master system.

Both systems here are the master system with some blocks empty: each
``lift()``s itself onto a MasterInstance, and the one driver
(:func:`.families.check`, :func:`.families.solve`) decides it through
the master reduction.  Their certificates are the master lists under
master names; their families keep the master family's free parameters
that are not empty.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..qmatrix import QMatrix
from .families import DEFAULT_TOL, ShapedInstance, check, solve
from .master import MasterInstance


@dataclass(frozen=True)
class ThreeTermInstance(ShapedInstance):
    """A1 X = C1, X B1 = D1, ..., E1 X F1 + E2 Y F2 + E3 Z F3 = C.

    Lifted onto the master system with the first unknown pair (U, V)
    empty.  The master conditions then collapse to exactly the rank and
    residual lists stated for this system (the conditions tied to the
    absent block become vacuous)."""

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

    def lift(self):
        return self.to_master(), lambda sol: sol[2:]


@dataclass(frozen=True)
class MixedInstance(ShapedInstance):
    """A1 X = C1, X B1 = C2, A2 Y = C3, Y B2 = C4,
    A3 X B3 + A4 Y B4 = Cc.

    Lifted onto the master system with X1 and X2 in its X and Y slots;
    the conditions of the empty U, V and Z slots are vacuous, and the
    family has one closed form."""

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

    def to_master(self) -> MasterInstance:
        """Lift with X1 in the master X slot, X2 in the Y slot and the
        U, V and Z slots empty."""
        cr, cc = self.Cc.shape
        z = QMatrix.zeros
        return MasterInstance(
            A1=z(0, 0), B1=z(0, 0), C1=z(0, cc), D1=z(cr, 0),
            E1=z(cr, 0), F1=z(0, cc),
            A2=self.A1, B2=self.B1, C2=self.C1, D2=self.C2,
            E2=self.A3, F2=self.B3,
            A3=self.A2, B3=self.B2, C3=self.C3, D3=self.C4,
            E3=self.A4, F3=self.B4,
            A4=z(0, 0), B4=z(0, 0), C4=z(0, 0), D4=z(0, 0),
            E4=z(cr, 0), F4=z(0, cc),
            Cc=self.Cc)

    def lift(self):
        return self.to_master(), lambda sol: sol[2:4]


check_three_term = check_mixed = check
solve_three_term_system = solve


def solve_mixed_system(inst: MixedInstance, tol: float = DEFAULT_TOL):
    """General solution family (X1, X2), or Inconsistent."""
    return solve(inst, tol)
