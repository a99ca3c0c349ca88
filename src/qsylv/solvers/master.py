"""The nine-equation master system.

    A1 U = C1,  V B1 = D1,
    Ai X = Ci,  X Bi = Di           (i = 2, 3, 4; unknowns X, Y, Z)
    E1 U + V F1 + E2 X F2 + E3 Y F3 + E4 Z F4 = Cc

Its reduction (``MasterInstance.WORK``) solves the side equations of
U, V, X, Y and Z with one :class:`.basic.PairKernel` each, reduces the
coupling equation to a five-term equation in their free parameters,
reduces that with :mod:`.five_term`, and assembles (U, V, X, Y, Z).
The specializations lift onto this system by letting blocks be empty
rather than through separate code paths, and every system is decided
by the one driver, :func:`.families.check` and :func:`.families.solve`,
which ``check_master`` and ``solve_master`` are.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..decomp import pinv, rank
from ..qmatrix import QMatrix
from .basic import PairKernel
from .families import (FreeParam, LinearSolutionFamily, ShapedInstance,
                       cascade_floor, check, solve)
from .five_term import (FIVE_TERM_PARAM_NAMES, FiveTermInstance,
                        _FiveTermFactors, _FiveTermWork,
                        block_rank_conditions)

# five-term parameter names as they appear in the master solution display
MASTER_PARAM_NAMES = ("W11", "W12", "W13") + FIVE_TERM_PARAM_NAMES[3:]


@dataclass(frozen=True)
class MasterInstance(ShapedInstance):
    """Coefficient blocks of the nine-equation system; any block may be
    empty, which is how the specializations are expressed."""

    SHAPES = {
        "Cc": ("cr", "cc"),
        "A1": ("q1", "p1"), "B1": ("r1", "s1"),
        "E1": ("cr", "p1"), "F1": ("r1", "cc"),
        "C1": ("q1", "cc"), "D1": ("cr", "s1"),
        "A2": ("q2", "p2"), "B2": ("r2", "s2"),
        "E2": ("cr", "p2"), "F2": ("r2", "cc"),
        "C2": ("q2", "r2"), "D2": ("p2", "s2"),
        "A3": ("q3", "p3"), "B3": ("r3", "s3"),
        "E3": ("cr", "p3"), "F3": ("r3", "cc"),
        "C3": ("q3", "r3"), "D3": ("p3", "s3"),
        "A4": ("q4", "p4"), "B4": ("r4", "s4"),
        "E4": ("cr", "p4"), "F4": ("r4", "cc"),
        "C4": ("q4", "r4"), "D4": ("p4", "s4"),
        "U": ("p1", "cc"), "V": ("cr", "r1"), "X": ("p2", "r2"),
        "Y": ("p3", "r3"), "Z": ("p4", "r4"),
    }
    TERMS = {
        "C1": (("A1", "U", None, False),), "D1": ((None, "V", "B1", False),),
        "C2": (("A2", "X", None, False),), "D2": ((None, "X", "B2", False),),
        "C3": (("A3", "Y", None, False),), "D3": ((None, "Y", "B3", False),),
        "C4": (("A4", "Z", None, False),), "D4": ((None, "Z", "B4", False),),
        "Cc": (("E1", "U", None, False), (None, "V", "F1", False),
               ("E2", "X", "F2", False), ("E3", "Y", "F3", False),
               ("E4", "Z", "F4", False)),
    }

    A1: QMatrix
    A2: QMatrix
    A3: QMatrix
    A4: QMatrix
    B1: QMatrix
    B2: QMatrix
    B3: QMatrix
    B4: QMatrix
    C1: QMatrix
    C2: QMatrix
    C3: QMatrix
    C4: QMatrix
    D1: QMatrix
    D2: QMatrix
    D3: QMatrix
    D4: QMatrix
    E1: QMatrix
    E2: QMatrix
    E3: QMatrix
    E4: QMatrix
    F1: QMatrix
    F2: QMatrix
    F3: QMatrix
    F4: QMatrix
    Cc: QMatrix


@dataclass(frozen=True)
class MasterSolution:
    """One concrete solution tuple of a master instance."""

    U: QMatrix
    V: QMatrix
    X: QMatrix
    Y: QMatrix
    Z: QMatrix

    def as_tuple(self):
        return (self.U, self.V, self.X, self.Y, self.Z)


@dataclass(frozen=True)
class MasterIntermediates:
    """Derived matrices of the master reduction.

    The S1 field is the reduction intermediate; the solution display
    reuses the same letter for the first unknown of the reduced
    equation, which is a distinct object (the X1 slot of the five-term
    family, driven by the W11/W12/W13 parameters here).
    """

    A11: QMatrix
    A22: QMatrix
    A33: QMatrix
    A44: QMatrix
    B11: QMatrix
    B22: QMatrix
    B33: QMatrix
    B44: QMatrix
    B21: QMatrix
    B31: QMatrix
    B41: QMatrix
    T1: QMatrix
    A12: QMatrix
    A13: QMatrix
    A14: QMatrix
    N1: QMatrix
    M1: QMatrix
    S1: QMatrix
    T2: QMatrix
    G: QMatrix
    G1: QMatrix
    G2: QMatrix
    G3: QMatrix
    G4: QMatrix
    H: QMatrix
    H1: QMatrix
    H2: QMatrix
    H3: QMatrix
    H4: QMatrix
    L1: QMatrix
    L2: QMatrix
    L3: QMatrix
    L4: QMatrix
    C11: QMatrix
    D11: QMatrix
    C22: QMatrix
    D22: QMatrix
    C33: QMatrix
    D33: QMatrix
    E11: QMatrix
    E22: QMatrix
    E33: QMatrix
    E44: QMatrix
    M: QMatrix
    N: QMatrix
    F: QMatrix
    E: QMatrix
    S: QMatrix
    F11: QMatrix
    G11: QMatrix
    F22: QMatrix
    G22: QMatrix
    F33: QMatrix
    F44: QMatrix


class _MasterFactors:
    """Everything of the master reduction that reads the coefficient
    blocks (A, B, E, F) alone, at their cascade floor: the pinv bundles
    of the five side equations, the reduced five-term blocks E_i L_Ai
    and R_Bi F_i with their factorization, and ``panels``, the rank
    certificate's panel list once a rank list has been built."""

    def __init__(self, inst: MasterInstance):
        self.floor = cascade_floor(*(getattr(inst, n)
                                     for n in inst.coefficient_names()))
        self.panels = None
        pv = lambda m: pinv(m, floor=self.floor)
        a1, b1 = inst.A1, inst.B1
        empty = QMatrix.zeros
        # U and V solve one-sided pairs, whose empty halves take no SVD
        self.coefficients = [(a1, empty(inst.F1.cols, 0)),
                             (empty(0, inst.E1.rows), b1)]
        self.coefficients += [(getattr(inst, f"A{i}"), getattr(inst, f"B{i}"))
                              for i in (2, 3, 4)]
        self.bundles = [(pv(a), pv(b)) for a, b in self.coefficients]
        u, v, *xyz = self.bundles
        # the reduced blocks E_i L_Ai and R_Bi F_i; U has no B, V no A
        self.reduced = []
        for i, (ba, _), (_, bb) in zip((1, 2, 3, 4), [u] + xyz, [v] + xyz):
            self.reduced += [getattr(inst, f"E{i}") @ ba.proj_left,
                             bb.proj_right @ getattr(inst, f"F{i}")]
        self.five = _FiveTermFactors(self.reduced)


class _MasterWork:
    """The right-side pass of one master instance over the
    factorization of its coefficients: the five side equations as pair
    kernels plus the reduced five-term pass, the reduction of one master
    instance.  The reduced work is built here directly, so it does not
    take the master work's place in the slot of
    :func:`.families.shared_work`."""

    def __init__(self, inst: MasterInstance, factors=None):
        self.inst = inst
        k = self.factors = factors or _MasterFactors(inst)
        empty = QMatrix.zeros
        rhs = [(inst.C1, empty(inst.A1.cols, 0)),
               (empty(0, inst.B1.rows), inst.D1)]
        rhs += [(getattr(inst, f"C{i}"), getattr(inst, f"D{i}"))
                for i in (2, 3, 4)]
        self.sides = [PairKernel(a, c, b, d, bundles, i)
                      for (a, b), (c, d), bundles, i
                      in zip(k.coefficients, rhs, k.bundles, "11234")]
        u, v, *xyz = self.sides
        es, fs = ([getattr(inst, f"{x}{i}") for i in (1, 2, 3, 4)]
                  for x in "EF")
        t1 = inst.Cc - es[0] @ u.particular - v.particular @ fs[0]
        for e, w, f in zip(es[1:], xyz, fs[1:]):
            t1 = t1 - e @ w.particular @ f
        self.t1 = t1
        self.reduced = FiveTermInstance(*k.reduced, t1)
        self.five = _FiveTermWork(self.reduced, k.five)
        self.scale = 1.0 + sum(m.norm() for m in inst.blocks())

    # -- certificate lists -------------------------------------------------

    def compat_terms(self) -> list:
        return [t for k in self.sides[2:] for t in k.compat_terms()]

    def mp_terms(self) -> list:
        u, v, *xyz = self.sides
        return (u.mp_terms()[:1] + v.mp_terms()[1:]
                + [t for k in xyz for t in k.mp_terms()]
                + self.five.mp_terms("GHL"))

    def rank_conditions(self) -> list:
        r = lambda m: rank(m, floor=self.factors.floor)
        u, v, *xyz = self.sides
        blocks = [[getattr(self.inst, f"{x}{i}") for i in (1, 2, 3, 4)]
                  for x in "ABCDEF"]
        return (u.ranks(r)[:1] + v.ranks(r)[1:]
                + [c for k in xyz for c in k.ranks(r)]
                + block_rank_conditions(r, self.factors, self.inst.Cc,
                                        *blocks))

    def intermediates(self) -> MasterIntermediates:
        five = self.five.intermediates()
        return MasterIntermediates(
            A11=self.reduced.A1, A22=self.reduced.A2, A33=self.reduced.A3,
            A44=self.reduced.A4, B11=self.reduced.B1, B22=self.reduced.B2,
            B33=self.reduced.B3, B44=self.reduced.B4,
            B21=five.B11, B31=five.B22, B41=five.B33, T1=self.t1,
            A12=five.A11, A13=five.A22, A14=five.A33,
            N1=five.N1, M1=five.M1, S1=five.S1, T2=five.T1,
            G=five.C, G1=five.C1, G2=five.C2, G3=five.C3, G4=five.C4,
            H=five.D, H1=five.D1, H2=five.D2, H3=five.D3, H4=five.D4,
            L1=five.E1, L2=five.E2, L3=five.E3, L4=five.E4,
            C11=five.C11, D11=five.D11, C22=five.C22, D22=five.D22,
            C33=five.C33, D33=five.D33,
            E11=five.E11, E22=five.E22, E33=five.E33, E44=five.E44,
            M=five.M, N=five.N, F=five.F, E=five.E, S=five.S,
            F11=five.F11, G11=five.G1, F22=five.F22, G22=five.G2,
            F33=five.F1, F44=five.F2)

    # -- family assembly ----------------------------------------------------

    def family(self, branch: str) -> LinearSolutionFamily:
        params = tuple(FreeParam(new, p.shape) for new, p in
                       zip(MASTER_PARAM_NAMES, self.five.param_specs()))
        return LinearSolutionFamily(self.inst.unknown_names(), params,
                                    lambda vals: self.assemble(vals, branch))

    def assemble(self, vals: dict, branch: str):
        five_vals = {old: vals[new] for new, old in
                     zip(MASTER_PARAM_NAMES, FIVE_TERM_PARAM_NAMES)}
        return tuple(k.member(w) for k, w in
                     zip(self.sides, self.five.assemble(five_vals, branch)))


MasterInstance.WORK = _MasterWork


def master_intermediates(inst: MasterInstance) -> MasterIntermediates:
    return _MasterWork(inst).intermediates()


check_master = check
solve_master = solve
