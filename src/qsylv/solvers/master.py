"""The nine-equation master system.

    A1 U = C1,  V B1 = D1,
    Ai X = Ci,  X Bi = Di           (i = 2, 3, 4; unknowns X, Y, Z)
    E1 U + V F1 + E2 X F2 + E3 Y F3 + E4 Z F4 = Cc

Its reduction (``MasterInstance.WORK``) solves the side equations of
U, V, X, Y and Z with one :class:`.basic.PairKernel` each, reduces the
coupling equation to a five-term equation in their free parameters,
reduces that with :mod:`.five_term`, and assembles (U, V, X, Y, Z).
The specializations lift onto this system by letting blocks be empty
rather than through separate code paths.  The five-term equation is
the coupling equation with every side equation empty; its ``LIFT`` is
set here, as :mod:`.five_term` cannot import this module.  Every
system is decided by the one driver, :func:`.families.check` and
:func:`.families.solve`, which ``check_master`` and ``solve_master``
are; it drops the conditions of empty side equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..decomp import pinv
from ..qmatrix import QMatrix
from .basic import PairKernel
from .families import (FreeParam, LinearSolutionFamily, ShapedInstance,
                       cascade_floor, check, solve)
from .five_term import (_FIVE_TERM_PARAM_NAMES, FiveTermInstance,
                        _FiveTermFactors, _FiveTermWork,
                        block_rank_terms)

# five-term parameter names as they appear in the master solution display
MASTER_PARAM_NAMES = ("W11", "W12", "W13") + _FIVE_TERM_PARAM_NAMES[3:]


@dataclass(frozen=True)
class MasterInstance(ShapedInstance):
    """Coefficient blocks of the nine-equation system; any block may be
    empty, which is how the specializations are expressed."""

    SHAPES = {
        "A1": ("q1", "p1"), "A2": ("q2", "p2"),
        "A3": ("q3", "p3"), "A4": ("q4", "p4"),
        "B1": ("r1", "s1"), "B2": ("r2", "s2"),
        "B3": ("r3", "s3"), "B4": ("r4", "s4"),
        "C1": ("q1", "cc"), "C2": ("q2", "r2"),
        "C3": ("q3", "r3"), "C4": ("q4", "r4"),
        "D1": ("cr", "s1"), "D2": ("p2", "s2"),
        "D3": ("p3", "s3"), "D4": ("p4", "s4"),
        "E1": ("cr", "p1"), "E2": ("cr", "p2"),
        "E3": ("cr", "p3"), "E4": ("cr", "p4"),
        "F1": ("r1", "cc"), "F2": ("r2", "cc"),
        "F3": ("r3", "cc"), "F4": ("r4", "cc"),
        "Cc": ("cr", "cc"),
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


class MasterSolution(NamedTuple):
    """One concrete solution tuple of a master instance."""

    U: QMatrix
    V: QMatrix
    X: QMatrix
    Y: QMatrix
    Z: QMatrix

    def as_tuple(self):
        return tuple(self)


class _MasterFactors:
    """Everything of the master reduction that reads the coefficient
    blocks (A, B, E, F) alone, at their cascade floor: the pinv bundles
    of the five side equations, the reduced five-term blocks E_i L_Ai
    and R_Bi F_i with their factorization."""

    def __init__(self, inst: MasterInstance):
        self.floor = cascade_floor(*(getattr(inst, n)
                                     for n in inst.coefficient_names()))
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
    :func:`.families.shared_work`.  U and V solve pairs with one
    equation empty, whose other conditions the driver drops as
    vacuous."""

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
        self.reduced = FiveTermInstance(*k.reduced, t1)
        self.five = _FiveTermWork(self.reduced, k.five)

    # -- certificate lists -------------------------------------------------

    def compat_terms(self) -> list:
        return [t for k in self.sides for t in k.compat_terms()]

    def mp_terms(self) -> list:
        return ([t for k in self.sides for t in k.mp_terms()]
                + self.five.mp_terms())

    def rank_terms(self) -> list:
        blocks = [[getattr(self.inst, f"{x}{i}") for i in (1, 2, 3, 4)]
                  for x in "ABCDEF"]
        return ([t for k in self.sides for t in k.rank_terms()]
                + block_rank_terms(self.inst.Cc, *blocks))

    # -- family assembly ----------------------------------------------------

    def family(self, branch: str) -> LinearSolutionFamily:
        params = tuple(FreeParam(new, p.shape) for new, p in
                       zip(MASTER_PARAM_NAMES, self.five.param_specs()))
        return LinearSolutionFamily(self.inst.unknown_names(), params,
                                    lambda vals: self.assemble(vals, branch))

    def assemble(self, vals: dict, branch: str):
        five_vals = {old: vals[new] for new, old in
                     zip(MASTER_PARAM_NAMES, _FIVE_TERM_PARAM_NAMES)}
        return tuple(k.member(w) for k, w in
                     zip(self.sides, self.five.assemble(five_vals, branch)))


MasterInstance.WORK = _MasterWork
# the coupling equation alone: E1..F4 and Cc, every side block empty
FiveTermInstance.LIFT = (
    MasterInstance,
    {"Cc": "B", **{f"{m}{i}": f"{f}{i}" for i in (1, 2, 3, 4)
                   for m, f in (("E", "A"), ("F", "B"))}},
    {"X1": ("U",), "X2": ("V",), "Y1": ("X",), "Y2": ("Y",), "Y3": ("Z",)})


check_master = check
solve_master = solve
