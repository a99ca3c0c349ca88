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
empty.  Only eta-two keeps a direct closed form, its own reduction
``EtaTwoInstance.WORK``.  The other three ``lift()`` themselves, and the
one driver (:func:`.solvers.families.check`,
:func:`.solvers.families.solve`) decides every one of them.

Right sides may arrive under either the C or the B naming convention;
the instance types normalize to C names.  Eta-Hermicity of the
coupling right side (Cc, C, D1, D3) is each type's ``require()``: a
precondition checked under the type's own field name rather than
silently symmetrized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomp import pinv, rank
from .qcore import check_eta
from .qmatrix import DimensionError, QMatrix, block, hstack
from .solvers.families import (DEFAULT_TOL, FreeParam, LinearSolutionFamily,
                               ShapedInstance, cascade_floor, check,
                               rank_condition, residual_condition, solve)
from .solvers.master import MasterInstance

PRECONDITION_TOL = 1e-9


def symmetrize(x: QMatrix, eta: str) -> QMatrix:
    """The eta-Hermitian part (X + X^{eta*}) / 2 of a square matrix."""
    check_eta(eta)
    if x.rows != x.cols:
        raise DimensionError("symmetrize needs a square matrix")
    return (x + x.eta_conj_transpose(eta)) * 0.5


class _EtaInstance(ShapedInstance):
    """Instance types with an eta field, checked before the shapes, and
    an eta-Hermitian coupling right side (square by ``SHAPES``)."""

    def __post_init__(self):
        check_eta(self.eta)
        super().__post_init__()

    def require(self):
        """Refuse a coupling right side that is not eta-Hermitian."""
        name = self.rhs_names()[-1]
        m = getattr(self, name)
        defect = (m - m.eta_conj_transpose(self.eta)).norm()
        if defect > PRECONDITION_TOL * (1.0 + m.norm()):
            raise ValueError(
                f"{name} is not eta-Hermitian (defect {defect:.3e}); "
                "refusing to symmetrize input data silently")


@dataclass(frozen=True)
class EtaFullInstance(_EtaInstance):
    """A1 U = C1; Ai W = Ci with W = W^{eta*} for W in (X, Y, Z);
    E1 U + (E1 U)^{eta*} + sum_i Ei W Ei^{eta*} = Cc.

    Lifted onto the doubled master system.  By the eta-symmetry of the
    doubled blocks, the master residual list collapses pairwise onto
    this system's own list (for example the final condition equals
    R_E22 E (R_E22)^{eta*} = 0), and the rank certificate's two halves
    carry equal ranks, realizing the doubled "= 2 r(...)" form.  The
    family's U averages the master U with the eta-conjugate of V, and
    X, Y, Z are eta-Hermitian by construction."""

    SHAPES = {
        "Cc": ("n", "n"),
        "A1": ("q1", "p1"), "E1": ("n", "p1"), "C1": ("q1", "n"),
        "A2": ("q2", "p2"), "E2": ("n", "p2"), "C2": ("q2", "p2"),
        "A3": ("q3", "p3"), "E3": ("n", "p3"), "C3": ("q3", "p3"),
        "A4": ("q4", "p4"), "E4": ("n", "p4"), "C4": ("q4", "p4"),
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

    eta: str
    A1: QMatrix
    A2: QMatrix
    A3: QMatrix
    A4: QMatrix
    C1: QMatrix
    C2: QMatrix
    C3: QMatrix
    C4: QMatrix
    E1: QMatrix
    E2: QMatrix
    E3: QMatrix
    E4: QMatrix
    Cc: QMatrix

    def to_master(self) -> MasterInstance:
        """The doubled system, with right-side blocks eta-conjugated."""
        et = self.eta
        ec = lambda m: m.eta_conj_transpose(et)
        return MasterInstance(
            A1=self.A1, B1=ec(self.A1), C1=self.C1, D1=ec(self.C1),
            A2=self.A2, B2=ec(self.A2), C2=self.C2, D2=ec(self.C2),
            A3=self.A3, B3=ec(self.A3), C3=self.C3, D3=ec(self.C3),
            A4=self.A4, B4=ec(self.A4), C4=self.C4, D4=ec(self.C4),
            E1=self.E1, E2=self.E2, E3=self.E3, E4=self.E4,
            F1=ec(self.E1), F2=ec(self.E2), F3=ec(self.E3), F4=ec(self.E4),
            Cc=self.Cc)

    def lift(self):
        et = self.eta

        def project(sol):
            u1, u2, xt, yt, zt = sol
            u = (u1 + u2.eta_conj_transpose(et)) * 0.5
            return (u, symmetrize(xt, et), symmetrize(yt, et),
                    symmetrize(zt, et))

        return self.to_master(), project


@dataclass(frozen=True)
class EtaThreeInstance(_EtaInstance):
    """Ai W = Ci with W = W^{eta*} for W in (X, Y, Z);
    sum_i Ei W Ei^{eta*} = C.

    Lifted onto eta-full with its first slot (U) empty."""

    SHAPES = {
        "C": ("n", "n"),
        "A1": ("q1", "p1"), "E1": ("n", "p1"), "C1": ("q1", "p1"),
        "A2": ("q2", "p2"), "E2": ("n", "p2"), "C2": ("q2", "p2"),
        "A3": ("q3", "p3"), "E3": ("n", "p3"), "C3": ("q3", "p3"),
        "X": ("p1", "p1"), "Y": ("p2", "p2"), "Z": ("p3", "p3"),
    }
    TERMS = {
        "C1": (("A1", "X", None, False),), "C2": (("A2", "Y", None, False),),
        "C3": (("A3", "Z", None, False),),
        "C": (("E1", "X", "E1^eta*", False), ("E2", "Y", "E2^eta*", False),
              ("E3", "Z", "E3^eta*", False)),
    }
    ETA_HERMITIAN = ("X", "Y", "Z")

    eta: str
    A1: QMatrix
    A2: QMatrix
    A3: QMatrix
    C1: QMatrix
    C2: QMatrix
    C3: QMatrix
    E1: QMatrix
    E2: QMatrix
    E3: QMatrix
    C: QMatrix

    def to_full(self) -> EtaFullInstance:
        n = self.C.rows
        z = QMatrix.zeros
        return EtaFullInstance(
            eta=self.eta,
            A1=z(0, 0), C1=z(0, n), E1=z(n, 0),
            A2=self.A1, C2=self.C1, E2=self.E1,
            A3=self.A2, C3=self.C2, E3=self.E2,
            A4=self.A3, C4=self.C3, E4=self.E3,
            Cc=self.C)

    def lift(self):
        return self.to_full(), lambda sol: sol[1:]


# -- two-term equation with eta-Hermitian unknowns -------------------------

@dataclass(frozen=True)
class EtaTwoInstance(_EtaInstance):
    """B1 Y B1^{eta*} + C1 Z C1^{eta*} = D1 with Y, Z eta-Hermitian.

    Solved by its own closed form, with free parameters W1, U, V and the
    eta-Hermitian W2."""

    SHAPES = {"D1": ("d", "d"), "B1": ("d", "nb"), "C1": ("d", "nc"),
              "Y": ("nb", "nb"), "Z": ("nc", "nc")}
    TERMS = {"D1": (("B1", "Y", "B1^eta*", False),
                    ("C1", "Z", "C1^eta*", False))}
    ETA_HERMITIAN = ("Y", "Z")

    eta: str
    B1: QMatrix
    C1: QMatrix
    D1: QMatrix


class _EtaTwoWork:
    """The reduction of one eta-two instance."""

    def __init__(self, inst: EtaTwoInstance):
        self.inst = inst
        self.floor = cascade_floor(*inst.blocks())
        pv = lambda m: pinv(m, floor=self.floor)
        self.bB = pv(inst.B1)
        self.bC = pv(inst.C1)
        self.M = self.bB.proj_right @ inst.C1
        self.bM = pv(self.M)
        self.S = inst.C1 @ self.bM.proj_left
        self.bS = pv(self.S)

    def compat_conditions(self, tol: float) -> list:
        return []

    def mp_conditions(self, tol: float) -> list:
        et, d1 = self.inst.eta, self.inst.D1
        threshold = tol * (1.0 + d1.norm())
        return [
            residual_condition("R_M*R_B1*D1",
                               self.bM.proj_right @ (self.bB.proj_right @ d1),
                               threshold),
            residual_condition("R_B1*D1*(R_C1)^eta*",
                               self.bB.proj_right @ d1
                               @ self.bC.proj_right.eta_conj_transpose(et),
                               threshold),
        ]

    def rank_conditions(self) -> list:
        inst = self.inst
        et = inst.eta
        b1, c1, d1 = inst.B1, inst.C1, inst.D1
        r = lambda m: rank(m, floor=self.floor)
        return [
            rank_condition("r([B1,D1;0,C1^eta*])=r(B1)+r(C1)",
                           r(block([[b1, d1],
                                    [None, c1.eta_conj_transpose(et)]])),
                           self.bB.rank + self.bC.rank),
            rank_condition("r(B1,C1,D1)=r(B1,C1)",
                           r(hstack([b1, c1, d1])), r(hstack([b1, c1]))),
        ]

    def family(self, branch: str) -> LinearSolutionFamily:
        """The one closed form; ``branch`` is not read."""
        inst, et = self.inst, self.inst.eta
        ec = lambda m: m.eta_conj_transpose(et)
        b1, c1, d1 = inst.B1, inst.C1, inst.D1
        bB, bC, bM, bS = self.bB, self.bC, self.bM, self.bS
        s = self.S
        y_shape, z_shape = inst.unknown_shapes().values()
        eye_d = QMatrix.identity(d1.rows)
        eye_c = QMatrix.identity(c1.cols)
        y_base = (bB.pinv @ d1 @ ec(bB.pinv)
                  - 0.5 * (bB.pinv @ c1 @ bM.pinv @ d1
                           @ (eye_d + ec(bC.pinv) @ ec(s)) @ ec(bB.pinv))
                  - 0.5 * (bB.pinv @ (eye_d + s @ bC.pinv) @ d1
                           @ ec(bM.pinv) @ ec(c1) @ ec(bB.pinv)))
        z_base = (0.5 * (bM.pinv @ d1 @ ec(bC.pinv)
                         @ (eye_c + ec(bS.pinv @ s)))
                  + 0.5 * ((eye_c + bS.pinv @ s) @ bC.pinv @ d1
                          @ ec(bM.pinv)))
        params = (FreeParam("W1", z_shape), FreeParam("U", y_shape),
                  FreeParam("V", z_shape), FreeParam("W2", z_shape, eta=et))

        def assemble(vals):
            w1, u, v, w2 = (vals["W1"], vals["U"], vals["V"], vals["W2"])
            y = (y_base
                 - bB.pinv @ s @ w2 @ ec(s) @ ec(bB.pinv)
                 + bB.proj_left @ u + ec(u) @ ec(bB.proj_left))
            z = (z_base
                 + bM.proj_left @ w2 @ ec(bM.proj_left)
                 + v @ ec(bC.proj_left) + bC.proj_left @ ec(v)
                 + bM.proj_left @ bS.proj_left @ w1
                 + ec(w1) @ ec(bS.proj_left) @ ec(bM.proj_left))
            return (y, z)

        return LinearSolutionFamily(inst.unknown_names(), params, assemble)


EtaTwoInstance.WORK = _EtaTwoWork


def solve_eta_two(b1: QMatrix, c1: QMatrix, d1: QMatrix, eta: str,
                  tol: float = DEFAULT_TOL):
    """Eta-Hermitian pair (Y, Z) solving B1 Y B1^{eta*} + C1 Z C1^{eta*} = D1,
    or Inconsistent; D1 must be eta-Hermitian."""
    return solve(EtaTwoInstance(eta, b1, c1, d1), tol)


# -- mixed one-sided / two-sided eta system --------------------------------

@dataclass(frozen=True)
class EtaMixedInstance(_EtaInstance):
    """A1 X = C1, Y B1 = D1, A2 X A2^{eta*} + A3 Y A3^{eta*} = D3,
    with X, Y eta-Hermitian.

    Lifted onto eta-three; its certificates carry master names, and the
    family has one closed form."""

    SHAPES = {"D3": ("d", "d"), "A1": ("q1", "nx"), "C1": ("q1", "nx"),
              "B1": ("ny", "s1"), "D1": ("ny", "s1"),
              "A2": ("d", "nx"), "A3": ("d", "ny"),
              "X": ("nx", "nx"), "Y": ("ny", "ny")}
    TERMS = {"C1": (("A1", "X", None, False),),
             "D1": ((None, "Y", "B1", False),),
             "D3": (("A2", "X", "A2^eta*", False),
                    ("A3", "Y", "A3^eta*", False))}
    ETA_HERMITIAN = ("X", "Y")

    eta: str
    A1: QMatrix
    C1: QMatrix
    B1: QMatrix
    D1: QMatrix
    A2: QMatrix
    A3: QMatrix
    D3: QMatrix

    def to_three(self) -> EtaThreeInstance:
        """Lift with X in the first slot, Y in the second under
        B1^{eta*} Y = D1^{eta*}, and the third slot empty."""
        n = self.D3.rows
        ec = lambda m: m.eta_conj_transpose(self.eta)
        z = QMatrix.zeros
        return EtaThreeInstance(
            eta=self.eta,
            A1=self.A1, C1=self.C1, E1=self.A2,
            A2=ec(self.B1), C2=ec(self.D1), E2=self.A3,
            A3=z(0, 0), C3=z(0, 0), E3=z(n, 0),
            C=self.D3)

    def lift(self):
        return self.to_three(), lambda sol: sol[:2]


check_eta_full = check_eta_three = check_eta_two = check_eta_mixed = check
solve_eta_full = solve_eta_three = solve


def solve_eta_mixed(a1, c1, b1, d1, a2, a3, d3, eta, tol: float = DEFAULT_TOL):
    """Eta-Hermitian pair (X, Y) for the mixed system, or Inconsistent."""
    return solve(EtaMixedInstance(eta, a1, c1, b1, d1, a2, a3, d3), tol)
