"""Eta-Hermitian solution machinery.

A square quaternion matrix is eta-Hermitian when it equals its
eta-conjugate transpose (eta in {i, j, k}).  The constrained systems
here are solved by doubling: each one-sided constraint A X = C with
X = X^{eta*} turns into the pair A X = C, X A^{eta*} = C^{eta*}, which
maps the whole system onto the master system; averaging a solution of
the doubled system with its eta-conjugate yields an eta-Hermitian
solution, and the two directions of this reduction are inverse to each
other on solution sets.  Eta-three lifts onto eta-full with its first
slot empty, and eta-mixed onto eta-three: for an eta-Hermitian Y the
constraint Y B1 = D1 is B1^{eta*} Y = D1^{eta*}, and the third slot is
empty.  Eta-two lifts onto the two-term system, whose solutions the
same averaging maps onto its own.  Every eta type declares these
steps by its tables alone, as a ``LIFT`` of two tables of means
(:class:`.solvers.families.ShapedInstance`): each doubled block is the
one name ``"A1^eta*"``, the coupling right side (Cc, C, D1, D3) goes in
as its eta-Hermitian part, the mean of it and its ``^eta*``, and each
own unknown comes back as the mean of the target unknowns it pairs.
The one driver (:func:`.solvers.families.check`,
:func:`.solvers.families.solve`) decides every one of them.

The instance types take C names only.  A document may label the right
sides C1.. of eta-full and eta-three as B1.. (and eta-three's C as
Cc); the document loader maps them to the fields, from each variant's
``aliases`` in :data:`.harness.VARIANT_TABLE`.  Since each declares
``ETA_HERMITIAN`` unknowns, ``ShapedInstance`` checks ``eta`` before
the shapes, and ``require()`` refuses a coupling right side whose
eta-Hermitian defect exceeds ``PRECONDITION_TOL`` of its norm, under
the type's own field name.  The lift removes the defect it accepts, so
both certificate forms judge the same data.
"""

from __future__ import annotations

from .qcore import check_eta
from .qmatrix import DimensionError, QMatrix
from .solvers.families import ETA_STAR, ShapedInstance
from .solvers.master import MasterInstance
from .solvers.two_term import TwoTermInstance


def symmetrize(x: QMatrix, eta: str) -> QMatrix:
    """The eta-Hermitian part (X + X^{eta*}) / 2 of a square matrix."""
    check_eta(eta)
    if x.rows != x.cols:
        raise DimensionError("symmetrize needs a square matrix")
    return (x + x.eta_conj_transpose(eta)) * 0.5


class EtaFullInstance(ShapedInstance):
    """A1 U = C1; Ai W = Ci with W = W^{eta*} for W in (X, Y, Z);
    E1 U + (E1 U)^{eta*} + sum_i Ei W Ei^{eta*} = Cc.

    Equilibrated before the lift onto the doubled master system, so
    the root is an exact mirror.  By the eta-symmetry of the doubled
    blocks, the master residual list collapses pairwise onto this
    system's own list (for example the final condition equals R_E22 E
    (R_E22)^{eta*} = 0), and the second half of the rank certificate
    mirrors the first: each r(Di;Bi), R5-R8 and the right panels are
    read off r(Ci,Ai), R4-R1 and the left panels without an SVD,
    realizing the doubled "= 2 r(...)" form, and R9 is its own mirror.
    The family's U averages the master U with the eta-conjugate of V,
    and X, Y, Z are eta-Hermitian by construction."""

    SHAPES = {
        "A1": ("q1", "p1"), "A2": ("q2", "p2"),
        "A3": ("q3", "p3"), "A4": ("q4", "p4"),
        "C1": ("q1", "n"), "C2": ("q2", "p2"),
        "C3": ("q3", "p3"), "C4": ("q4", "p4"),
        "E1": ("n", "p1"), "E2": ("n", "p2"),
        "E3": ("n", "p3"), "E4": ("n", "p4"),
        "Cc": ("n", "n"),
        "U": ("p1", "n"), "X": ("p2", "p2"), "Y": ("p3", "p3"),
        "Z": ("p4", "p4"),
    }
    TERMS = {
        "C1": (("A1", "U", None, False),), "C2": (("A2", "X", None, False),),
        "C3": (("A3", "Y", None, False),), "C4": (("A4", "Z", None, False),),
        "Cc": (("E1", "U", None, False), ("E1", "U", None, True),
               ("E2", "X", "E2^eta*", False), ("E3", "Y", "E3^eta*", False),
               ("E4", "Z", "E4^eta*", False)),
    }
    ETA_HERMITIAN = ("X", "Y", "Z")
    # the doubled system: each A W = C gains W A^{eta*} = C^{eta*}, each
    # coupling term E W its mirror W E^{eta*}; Cc goes in as its
    # eta-Hermitian part
    LIFT = (MasterInstance,
            {"Cc": ("Cc", "Cc^eta*"),
             **{f"{b}{i}": (f"{a}{i}{star}",)
                for a, mirror in ("AB", "CD", "EF")
                for b, star in ((a, ""), (mirror, ETA_STAR))
                for i in (1, 2, 3, 4)}},
            {"U": ("U", "V^eta*"), "X": ("X", "X^eta*"),
             "Y": ("Y", "Y^eta*"), "Z": ("Z", "Z^eta*")})

    def to_master(self) -> MasterInstance:
        """The doubled master instance (``perfbench/tracer.py`` wraps
        this name)."""
        return self.lift()[0]


class EtaThreeInstance(ShapedInstance):
    """Ai W = Ci with W = W^{eta*} for W in (X, Y, Z);
    sum_i Ei W Ei^{eta*} = C.

    Lifted onto eta-full with its first slot (U) empty."""

    SHAPES = {
        "A1": ("q1", "p1"), "A2": ("q2", "p2"), "A3": ("q3", "p3"),
        "C1": ("q1", "p1"), "C2": ("q2", "p2"), "C3": ("q3", "p3"),
        "E1": ("n", "p1"), "E2": ("n", "p2"), "E3": ("n", "p3"),
        "C": ("n", "n"),
        "X": ("p1", "p1"), "Y": ("p2", "p2"), "Z": ("p3", "p3"),
    }
    TERMS = {
        "C1": (("A1", "X", None, False),), "C2": (("A2", "Y", None, False),),
        "C3": (("A3", "Z", None, False),),
        "C": (("E1", "X", "E1^eta*", False), ("E2", "Y", "E2^eta*", False),
              ("E3", "Z", "E3^eta*", False)),
    }
    ETA_HERMITIAN = ("X", "Y", "Z")
    # block i in eta-full slot i + 1; the first slot (U) is empty
    LIFT = (EtaFullInstance,
            {"Cc": ("C", "C^eta*"), **{f"{b}{i + 1}": (f"{b}{i}",)
                                       for b in "ACE" for i in (1, 2, 3)}},
            {"X": ("X",), "Y": ("Y",), "Z": ("Z",)})

    def to_full(self) -> EtaFullInstance:
        """The eta-full instance with the first slot empty
        (``perfbench/tracer.py`` wraps this name)."""
        return self.lift()[0]


# -- two-term equation with eta-Hermitian unknowns -------------------------

class EtaTwoInstance(ShapedInstance):
    """B1 Y B1^{eta*} + C1 Z C1^{eta*} = D1 with Y, Z eta-Hermitian.

    Lifted onto the two-term system C3 X3 D3 + C4 X4 D4 = E1 with
    C3 = B1, D3 = B1^{eta*}, C4 = C1, D4 = C1^{eta*} and E1 the
    eta-Hermitian part of D1.  Since E1 is eta-Hermitian, the
    eta-conjugate transpose of a two-term solution solves it too, so
    the map back symmetrizes both blocks.
    It is equilibrated before the lift, so the second and fourth
    two-term rank grids are the exact mirrors of the first and third
    and take their ranks without an SVD.  The certificates carry
    two-term names, and the family's free parameters are the two-term
    Y11..Y15."""

    SHAPES = {"B1": ("d", "nb"), "C1": ("d", "nc"), "D1": ("d", "d"),
              "Y": ("nb", "nb"), "Z": ("nc", "nc")}
    TERMS = {"D1": (("B1", "Y", "B1^eta*", False),
                    ("C1", "Z", "C1^eta*", False))}
    ETA_HERMITIAN = ("Y", "Z")
    LIFT = (TwoTermInstance,
            {"C3": ("B1",), "D3": ("B1^eta*",), "C4": ("C1",),
             "D4": ("C1^eta*",), "E1": ("D1", "D1^eta*")},
            {"Y": ("X3", "X3^eta*"), "Z": ("X4", "X4^eta*")})


# -- mixed one-sided / two-sided eta system --------------------------------

class EtaMixedInstance(ShapedInstance):
    """A1 X = C1, Y B1 = D1, A2 X A2^{eta*} + A3 Y A3^{eta*} = D3,
    with X, Y eta-Hermitian.

    Lifted onto eta-three; its certificates carry master names, and the
    family has one closed form."""

    SHAPES = {"A1": ("q1", "nx"), "C1": ("q1", "nx"),
              "B1": ("ny", "s1"), "D1": ("ny", "s1"),
              "A2": ("d", "nx"), "A3": ("d", "ny"), "D3": ("d", "d"),
              "X": ("nx", "nx"), "Y": ("ny", "ny")}
    TERMS = {"C1": (("A1", "X", None, False),),
             "D1": ((None, "Y", "B1", False),),
             "D3": (("A2", "X", "A2^eta*", False),
                    ("A3", "Y", "A3^eta*", False))}
    ETA_HERMITIAN = ("X", "Y")
    # X in the first slot, Y in the second under B1^{eta*} Y = D1^{eta*},
    # and the third slot empty
    LIFT = (EtaThreeInstance,
            {"A1": ("A1",), "C1": ("C1",), "E1": ("A2",),
             "A2": ("B1^eta*",), "C2": ("D1^eta*",), "E2": ("A3",),
             "C": ("D3", "D3^eta*")},
            {"X": ("X",), "Y": ("Y",)})
