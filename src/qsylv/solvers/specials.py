"""Specializations of the master system.

The three systems here are the master system with some blocks empty:
each declares a ``LIFT`` onto MasterInstance that places its blocks in
master slots and leaves the others empty, and the one driver
(:func:`.families.check`, :func:`.families.solve`) decides it through
the master reduction.  Their certificates are the master lists under
master names, less the conditions of the empty equations; their
families keep the master family's free parameters that are not empty.
"""

from __future__ import annotations

from .families import ShapedInstance
from .master import MasterInstance


class FiveTermInstance(ShapedInstance):
    """A1 X1 + X2 B1 + A2 Y1 B2 + A3 Y2 B3 + A4 Y3 B4 = B.

    The master system's coupling equation with every side equation
    empty: A_i and B_i fill the master slots E_i and F_i, B fills Cc,
    and X1, X2, Y1, Y2, Y3 are U, V, X, Y, Z.  Its family keeps every
    master free parameter."""

    SHAPES = {
        "A1": ("p", "a1"), "B1": ("b1", "q"),
        "A2": ("p", "a2"), "B2": ("b2", "q"),
        "A3": ("p", "a3"), "B3": ("b3", "q"),
        "A4": ("p", "a4"), "B4": ("b4", "q"),
        "B": ("p", "q"),
        "X1": ("a1", "q"), "X2": ("p", "b1"), "Y1": ("a2", "b2"),
        "Y2": ("a3", "b3"), "Y3": ("a4", "b4"),
    }
    TERMS = {"B": (("A1", "X1", None, False), (None, "X2", "B1", False),
                   ("A2", "Y1", "B2", False), ("A3", "Y2", "B3", False),
                   ("A4", "Y3", "B4", False))}
    LIFT = (MasterInstance,
            {"Cc": ("B",), **{f"{m}{i}": (f"{f}{i}",) for i in (1, 2, 3, 4)
                              for m, f in (("E", "A"), ("F", "B"))}},
            {"X1": ("U",), "X2": ("V",), "Y1": ("X",), "Y2": ("Y",),
             "Y3": ("Z",)})


class ThreeTermInstance(ShapedInstance):
    """A1 X = C1, X B1 = D1, ..., E1 X F1 + E2 Y F2 + E3 Z F3 = C.

    Lifted onto the master system with the first unknown pair (U, V)
    empty.  The master conditions then collapse to exactly the rank and
    residual lists stated for this system (the conditions tied to the
    absent block are vacuous, and the driver drops them)."""

    SHAPES = {
        "A1": ("q1", "p1"), "A2": ("q2", "p2"), "A3": ("q3", "p3"),
        "B1": ("r1", "s1"), "B2": ("r2", "s2"), "B3": ("r3", "s3"),
        "C1": ("q1", "r1"), "C2": ("q2", "r2"), "C3": ("q3", "r3"),
        "D1": ("p1", "s1"), "D2": ("p2", "s2"), "D3": ("p3", "s3"),
        "E1": ("cr", "p1"), "E2": ("cr", "p2"), "E3": ("cr", "p3"),
        "F1": ("r1", "cc"), "F2": ("r2", "cc"), "F3": ("r3", "cc"),
        "C": ("cr", "cc"),
        "X": ("p1", "r1"), "Y": ("p2", "r2"), "Z": ("p3", "r3"),
    }
    TERMS = {
        "C1": (("A1", "X", None, False),), "D1": ((None, "X", "B1", False),),
        "C2": (("A2", "Y", None, False),), "D2": ((None, "Y", "B2", False),),
        "C3": (("A3", "Z", None, False),), "D3": ((None, "Z", "B3", False),),
        "C": (("E1", "X", "F1", False), ("E2", "Y", "F2", False),
              ("E3", "Z", "F3", False)),
    }
    # block i in master slot i + 1; the first master slot is empty
    LIFT = (MasterInstance,
            {"Cc": ("C",), **{f"{b}{i + 1}": (f"{b}{i}",)
                              for b in "ABCDEF" for i in (1, 2, 3)}},
            {"X": ("X",), "Y": ("Y",), "Z": ("Z",)})


class MixedInstance(ShapedInstance):
    """A1 X1 = C1, X1 B1 = C2, A2 X2 = C3, X2 B2 = C4,
    A3 X1 B3 + A4 X2 B4 = Cc.

    Lifted onto the master system with X1 and X2 in its X and Y slots;
    the conditions of the empty U, V and Z slots are vacuous and
    dropped."""

    SHAPES = {
        "A1": ("q1", "p1"), "B1": ("t1", "s1"),
        "C1": ("q1", "t1"), "C2": ("p1", "s1"),
        "A2": ("q2", "p2"), "B2": ("t2", "s2"),
        "C3": ("q2", "t2"), "C4": ("p2", "s2"),
        "A3": ("cr", "p1"), "B3": ("t1", "cc"),
        "A4": ("cr", "p2"), "B4": ("t2", "cc"),
        "Cc": ("cr", "cc"),
        "X1": ("p1", "t1"), "X2": ("p2", "t2"),
    }
    TERMS = {
        "C1": (("A1", "X1", None, False),), "C2": ((None, "X1", "B1", False),),
        "C3": (("A2", "X2", None, False),), "C4": ((None, "X2", "B2", False),),
        "Cc": (("A3", "X1", "B3", False), ("A4", "X2", "B4", False)),
    }
    LIFT = (MasterInstance,
            {"A2": ("A1",), "B2": ("B1",), "C2": ("C1",), "D2": ("C2",),
             "E2": ("A3",), "F2": ("B3",), "A3": ("A2",), "B3": ("B2",),
             "C3": ("C3",), "D3": ("C4",), "E3": ("A4",), "F3": ("B4",),
             "Cc": ("Cc",)},
            {"X1": ("X",), "X2": ("Y",)})
