"""The pair A X = C, X B = D in one unknown (Mitra, LAA 59, 1984).

Consistency requires R_A C = 0, D L_B = 0 and A D = C B; then
X = pinv(A) C + L_A D pinv(B) + L_A U1 R_B.  A X = C and X A = C are
the pair with one equation empty: its pinv takes no SVD, its
projector is the identity, and its conditions have no entries, so the
driver drops them (``A X = C`` lists ``R_A*C`` and ``r(C,A)=r(A)``).
:class:`PairKernel` is this closed form; the master system solves its
five side equations with it too.
"""

from __future__ import annotations

from ..decomp import pinv
from .families import (FreeParam, ShapedInstance, cascade_floor,
                       coefficient_norms)


class PairInstance(ShapedInstance):
    """Coefficients of A X = C, X B = D; either equation may be empty."""

    SHAPES = {"A": ("q", "p"), "C": ("q", "r"), "B": ("r", "s"),
              "D": ("p", "s"), "X": ("p", "r")}
    TERMS = {"C": (("A", "X", None, False),),
             "D": ((None, "X", "B", False),)}


class PairKernel:
    """Closed-form general solution of A X = C, X B = D.

    ``bundles`` are the pinv bundles ``ba`` and ``bb`` of A and B, built
    by the caller at its cascade floor; they depend on the coefficients
    alone, so one pair serves every right side.  ``particular`` is
    pinv(A) C + L_A D pinv(B), and ``member(w)`` adds L_A w R_B.  Every
    condition name ends its block names with ``suffix`` (``A2*D2=C2*B2``
    for the master's second side equation)."""

    def __init__(self, a, c, b, d, bundles, suffix: str = ""):
        self.a, self.c, self.b, self.d, self.suffix = a, c, b, d, suffix
        self.ba, self.bb = bundles
        self.particular = (self.ba.pinv @ c
                           + self.ba.proj_left @ d @ self.bb.pinv)

    def member(self, w):
        return self.particular + self.ba.proj_left @ w @ self.bb.proj_right

    def compat_terms(self) -> list:
        i = self.suffix
        return [(f"A{i}*D{i}=C{i}*B{i}", self.a @ self.d - self.c @ self.b)]

    def mp_terms(self) -> list:
        i = self.suffix
        return [(f"R_A{i}*C{i}", self.ba.proj_right @ self.c),
                (f"D{i}*L_B{i}", self.d @ self.bb.proj_left)]

    def rank_terms(self) -> list:
        i = self.suffix
        return [(f"r(C{i},A{i})=r(A{i})", [[self.c, self.a]],
                 (self.ba.rank,)),
                (f"r(D{i};B{i})=r(B{i})", [[self.d], [self.b]],
                 (self.bb.rank,))]


class _PairFactors:
    """The norms of A and B, and their pinv bundles at their cascade
    floor."""

    def __init__(self, inst: PairInstance):
        self.block_norms = coefficient_norms(inst)
        self.floor = cascade_floor(self.block_norms.values())
        self.bundles = (pinv(inst.A, floor=self.floor),
                        pinv(inst.B, floor=self.floor))


class _PairWork(PairKernel):
    """The kernel of one pair instance over the bundles of its
    coefficients, with both certificates: the reduction of a pair
    instance."""

    def __init__(self, inst: PairInstance, factors=None):
        self.inst = inst
        self.factors = factors or _PairFactors(inst)
        super().__init__(*inst.blocks(), self.factors.bundles)

    def params(self) -> tuple:
        return (FreeParam("U1", self.inst.unknown_shapes()["X"]),)

    def assemble(self, vals: dict):
        return (self.member(vals["U1"]),)


PairInstance.WORK = _PairWork
