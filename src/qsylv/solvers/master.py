"""The nine-equation master system.

    A1 U = C1,  V B1 = D1,
    Ai X = Ci,  X Bi = Di           (i = 2, 3, 4; unknowns X, Y, Z)
    E1 U + V F1 + E2 X F2 + E3 Y F3 + E4 Z F4 = Cc

Its reduction (``MasterInstance.WORK``) solves the side equations of
U, V, X, Y and Z with one :class:`.basic.PairKernel` each and
substitutes their general solutions into the coupling equation.  That
leaves the five-term equation in their free parameters

    A1 X1 + X2 B1 + A2 Y1 B2 + A3 Y2 B3 + A4 Y3 B4 = T

whose A_i and B_i are the reduced blocks E_i L_Ai and R_Bi F_i (U
has no B, V no A), which the same reduction solves: it eliminates
(X1, X2) through the classical two-sided solvability condition, reduces
(Y1, Y2) to a two-term two-sided equation whose right side depends on
Y3, and parametrizes Y3 as the general solution of a system of four
two-sided equations sharing one unknown.  :func:`block_rank_terms`
gives the nine rank equalities of the coupling equation, which agree
with the residual conditions of the reduction in exact arithmetic.

The specializations of :mod:`.specials`, the five-term equation (the
coupling equation alone) among them, lift onto this system by letting
blocks be empty rather than through separate code paths.  Every system
is decided by the one driver, :func:`.families.check` and
:func:`.families.solve`; it drops the conditions of empty side
equations.  ``check_master`` and ``solve_master``, with every other
per-system spelling, are bound in the package root alone.
"""

from __future__ import annotations

from typing import NamedTuple

from ..decomp import pinv
from ..qmatrix import QMatrix, hstack, vstack
from .basic import PairKernel
from .families import (FreeParam, Mirror, ShapedInstance, cascade_floor,
                       coefficient_norms)
from .two_term import TwoTermKernel

# the free parameters of the master family, in order
MASTER_PARAM_NAMES = ("W11", "W12", "W13", "U4", "U5", "U6", "U7", "U8",
                      "U11", "U12", "U21", "U31", "U32", "U33", "U41", "U42")


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


def _bordered(ks, forms) -> list:
    """Block grid with the copies ``ks`` of K on its diagonal, bordered by
    ``forms``: (tops, corner, sides) with one top and one side per copy
    (``None`` for a zero block) and the corners on the diagonal."""
    n = len(forms)
    grid = [[k if j == i else None for j in range(len(ks))]
            + [tops[i] for tops, _, _ in forms] for i, k in enumerate(ks)]
    grid += [list(sides) + [g if j == i else None for j in range(n)]
             for i, (_, g, sides) in enumerate(forms)]
    return grid


def block_rank_terms(k, a, b, c, d, e, f) -> list:
    """The rank terms R1-R9 of

        K = E0 U + V F0 + E2 W2 F2 + E3 W3 F3 + E4 W4 F4,
        A0 U = C0,  V B0 = D0,  Ai Wi = Ci,  Wi Bi = Di  (i = 2, 3, 4).

    ``a`` .. ``f`` are four-element lists: A0, B0, C0, D0, E0, F0 at
    index 0 and the blocks of W2, W3, W4 at indices 1-3.  Each unknown
    borders K in one of two forms, given as (top, corner, side): on the
    left side as (E, A, C F), which U always takes as (E0, A0, C0), or on
    the right side as (E D, B, F), which V always takes as (D0, B0, F0).
    Every term ``(name, grid, rhs)`` compares the rank of
    [[K, tops], [sides, diag(corners)]] with the sum of the ranks of its
    two panels in ``rhs``: the left forms without the K column (their
    tops and corners) and the right forms without the K row (their sides
    and corners), coefficient blocks only.

    R(n+1), n = 0..7, puts W3 on the right side when bit 0 of n is set,
    W2 for bit 1 and W4 for bit 2.  R9 borders two copies of K, the
    first with W2 left and W3 right, the second the other way round,
    and joins them through W4: its left form has top E4 in both copies
    and side C4 F4 in the second; its right form has top E4 D4 in the
    first and sides (F4, -F4).  The master system passes its own
    blocks; every other system reaches this rule through its lift onto
    the master system.

    When B_i = A_i^eta*, D_i = C_i^eta*, F_i = E_i^eta* and K is
    eta-Hermitian, as on the root of the eta lifts, each left form is
    the eta-conjugate transpose of the right form of the same unknown.
    So R(9-n) mirrors R(n), n = 1..4, with its two panels swapped, and
    R9 mirrors itself: the grids of R5-R8 are marked as
    :class:`.families.Mirror` s of those of R4-R1, and the right panel
    of R(n), n = 1..8, as the mirror of R(9-n)'s left one.
    """
    u = ((e[0],), a[0], (c[0],))
    v = ((d[0],), b[0], (f[0],))
    left = [u] + [((e[i],), a[i], (c[i] @ f[i],)) for i in (1, 2, 3)]
    right = [v] + [((e[i] @ d[i],), b[i], (f[i],)) for i in (1, 2, 3)]

    def split(moved, ws=(1, 2, 3)):
        return ([u] + [left[i] for i in ws if i not in moved],
                [right[i] for i in ws if i in moved] + [v])

    grids = []
    for n in range(8):
        moved = [i for i, bit in ((2, 1), (1, 2), (3, 4)) if n & bit]
        grids.append(([k], *split(moved)))

    def in_copy(forms, i):
        pad = lambda x: (x[0], None) if i == 0 else (None, x[0])
        return [(pad(tops), g, pad(sides)) for tops, g, sides in forms]

    (la, ra), (lb, rb) = split([2], (1, 2)), split([1], (1, 2))
    (e4,), a4, (c4f4,) = left[3]
    (e4d4,), b4, (f4,) = right[3]
    grids.append((
        [k, k],
        in_copy(la, 0) + in_copy(lb, 1) + [((e4, e4), a4, (None, c4f4))],
        in_copy(ra, 0) + in_copy(rb, 1) + [((e4d4, None), b4, (f4, -f4))]))
    panels = [[[row[len(ks):] for row in _bordered(ks, lefts)],
               _bordered(ks, rights)[len(ks):]]
              for ks, lefts, rights in grids]
    for n in range(8):
        panels[n][1] = Mirror(panels[n][1], panels[7 - n][0])
    full = [_bordered(ks, lefts + rights) for ks, lefts, rights in grids]
    full[4:8] = [Mirror(g, full[3 - n]) for n, g in enumerate(full[4:8])]
    return [(f"R{n}", grid, tuple(pair))
            for n, (grid, pair) in enumerate(zip(full, panels), 1)]


class _MasterFactors:
    """Everything of the master reduction that reads the coefficient
    blocks (A, B, E, F) alone.

    At the cascade floor of the blocks: the pinv bundles of the five
    side equations.  At the cascade floor of the reduced blocks
    E1 L_A1, R_B1 F1, .., E4 L_A4, R_B4 F4 (``reduced``): the cascade
    over them, named as in the five-term equation whose A_i and B_i
    they are.  That is the pinv bundles ``bA1``, ``bB1`` (of E1 L_A1
    and R_B1 F1), ``bC`` (of C1-C4), ``bD`` (of D1-D4), ``bC11`` and
    ``bD11``, the two-term kernels ``y12`` and ``vw3``, and what the
    pass, the certificates and the assembly read of the rest: A33, B33,
    C, D, C11, D11, C22, D22, C33, D33, the projectors ``ra11``,
    ``ra22``, ``lb11``, ``lb22`` and the coefficient-only left-to-right
    prefixes of their products (``a1_pa1`` is A1 pinv(A1), ``lc1_pc2``
    is L_C1 pinv(C2), and so on)."""

    def __init__(self, inst: MasterInstance):
        self.block_norms = coefficient_norms(inst)
        self.floor = cascade_floor(self.block_norms.values())
        pv = lambda m: pinv(m, floor=self.floor)
        empty = QMatrix.zeros
        # U and V solve one-sided pairs, whose empty halves take no SVD
        self.coefficients = [(inst.A1, empty(inst.F1.cols, 0)),
                             (empty(0, inst.E1.rows), inst.B1)]
        self.coefficients += [(getattr(inst, f"A{i}"), getattr(inst, f"B{i}"))
                              for i in (2, 3, 4)]
        self.bundles = [(pv(a), pv(b)) for a, b in self.coefficients]
        u, v, *xyz = self.bundles
        # the reduced blocks E_i L_Ai and R_Bi F_i
        self.reduced = []
        for i, (ba, _), (_, bb) in zip((1, 2, 3, 4), [u] + xyz, [v] + xyz):
            self.reduced += [getattr(inst, f"E{i}") @ ba.proj_left,
                             bb.proj_right @ getattr(inst, f"F{i}")]
        a1, b1, a2, b2, a3, b3, a4, b4 = self.reduced
        self.reduced_floor = cascade_floor(m.norm() for m in self.reduced)
        pv = lambda m: pinv(m, floor=self.reduced_floor)
        self.bA1, self.bB1 = pv(a1), pv(b1)
        self.a1_pa1 = a1 @ self.bA1.pinv
        ra1, lb1 = self.bA1.proj_right, self.bB1.proj_left
        a11 = ra1 @ a2
        a22 = ra1 @ a3
        self.A33 = ra1 @ a4
        b11 = b2 @ lb1
        b22 = b3 @ lb1
        self.B33 = b4 @ lb1
        # (Y1, Y2) solve A11 Y1 B11 + A22 Y2 B22 = T1 - A33 Y3 B33
        y = self.y12 = TwoTermKernel(a11, b11, a22, b22, pv)
        self.ra11, self.ra22 = y.bc3.proj_right, y.bc4.proj_right
        self.lb11, self.lb22 = y.bd3.proj_left, y.bd4.proj_left
        self.C = y.bm.proj_right @ self.ra11
        c1 = self.C @ self.A33
        c2 = self.ra11 @ self.A33
        c3 = self.ra22 @ self.A33
        self.D = self.lb11 @ y.bn.proj_left
        d2 = self.B33 @ self.lb22
        d3 = self.B33 @ self.lb11
        d4 = self.B33 @ self.D
        self.bC = [pv(c) for c in (c1, c2, c3, self.A33)]
        self.bD = [pv(d) for d in (self.B33, d2, d3, d4)]
        self.lc1_pc2 = self.bC[0].proj_left @ self.bC[1].pinv
        self.lc3_pc4 = self.bC[2].proj_left @ self.bC[3].pinv
        self.C11 = hstack([self.bC[1].proj_left, self.bC[3].proj_left])
        self.D11 = vstack([self.bD[0].proj_right, self.bD[2].proj_right])
        self.C22 = self.bC[0].proj_left
        self.D22 = self.bD[1].proj_right
        self.C33 = self.bC[2].proj_left
        self.D33 = self.bD[3].proj_right
        self.bC11, self.bD11 = pv(self.C11), pv(self.D11)
        self.c11_pc11 = self.C11 @ self.bC11.pinv
        e11 = self.bC11.proj_right @ self.C22
        e22 = self.bC11.proj_right @ self.C33
        e33 = self.D22 @ self.bD11.proj_left
        e44 = self.D33 @ self.bD11.proj_left
        # (V3, W3) solve E11 V3 E33 + E22 W3 E44 = F.  Its M = R_E11 E22
        # is 0 in exact arithmetic: C1 = R_M1 R_A11 A33 = R_[A11, A22] A33,
        # so null(C3) is in null(C1), so range(E22) is in range(E11).
        self.vw3 = TwoTermKernel(e11, e33, e22, e44, pv)


class _MasterWork:
    """The right-side pass of one master instance over the
    factorization of its coefficients: the five side equations as pair
    kernels, then the pass over the reduced five-term equation, whose
    right side T is the coupling right side less the side equations'
    particular solutions.  L1-L4 are the right sides of its four
    two-sided equations in Y3, named as in its conditions
    (``R_G1*L1``).  U and V solve pairs with one equation empty, whose
    other conditions the driver drops as vacuous."""

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
        t = inst.Cc - es[0] @ u.particular - v.particular @ fs[0]
        for e, w, f in zip(es[1:], xyz, fs[1:]):
            t = t - e @ w.particular @ f
        self.T = t
        self.T1 = k.bA1.proj_right @ t @ k.bB1.proj_left
        self.L1 = k.C @ self.T1
        self.L2 = k.ra11 @ self.T1 @ k.lb22
        self.L3 = k.ra22 @ self.T1 @ k.lb11
        self.L4 = self.T1 @ k.D
        bC, bD = k.bC, k.bD
        self.F1 = (bC[0].pinv @ self.L1 @ bD[0].pinv
                   + k.lc1_pc2 @ self.L2 @ bD[1].pinv)
        self.F2 = (bC[2].pinv @ self.L3 @ bD[2].pinv
                   + k.lc3_pc4 @ self.L4 @ bD[3].pinv)
        self.F = self.F2 - self.F1
        self.E = k.bC11.proj_right @ self.F @ k.bD11.proj_left

    # -- certificate lists -------------------------------------------------

    def compat_terms(self) -> list:
        return [t for k in self.sides for t in k.compat_terms()]

    def mp_terms(self) -> list:
        """The residual terms of the side equations, then the nine of
        the reduced equation: G, H and L are the C, D and L of the
        pass."""
        k = self.factors
        out = [t for s in self.sides for t in s.mp_terms()]
        ls = (self.L1, self.L2, self.L3, self.L4)
        for i, li, bc, bd in zip((1, 2, 3, 4), ls, k.bC, k.bD):
            out.append((f"R_G{i}*L{i}", bc.proj_right @ li))
            out.append((f"L{i}*L_H{i}", li @ bd.proj_left))
        out.append(("R_E22*E*L_E33",
                    k.vw3.bc4.proj_right @ self.E @ k.vw3.bd3.proj_left))
        return out

    def rank_terms(self) -> list:
        """The two rank terms of each side equation, then R1-R9
        (:func:`block_rank_terms`).  On the root of an eta lift, V's
        equation is the mirror of U's and X B_i = D_i of A_i X = C_i: each
        r(D;B) grid is marked as the :class:`.families.Mirror` of the
        r(C,A) grid of U for V's, and of its own pair's for X, Y, Z."""
        blocks = [[getattr(self.inst, f"{x}{i}") for i in (1, 2, 3, 4)]
                  for x in "ABCDEF"]
        sides = [k.rank_terms() for k in self.sides]
        out = []
        for twin, (ca, (name, grid, rhs)) in zip((1, 0, 2, 3, 4), sides):
            out += [ca, (name, Mirror(grid, sides[twin][0][1]), rhs)]
        return out + block_rank_terms(self.inst.Cc, *blocks)

    # -- family assembly ----------------------------------------------------

    def params(self) -> tuple:
        u, v, x, y, (m, n) = self.inst.unknown_shapes().values()
        shapes = {
            "W11": v, "W12": u, "W13": v, "U4": y, "U5": x, "U6": x,
            "U7": y, "U8": y,
            "U11": (m, 2 * n), "U12": (2 * m, n), "U21": (m, 2 * n),
            "U31": (m, n), "U32": (m, n), "U33": (m, n),
            "U41": (m, n), "U42": (m, n),
        }
        return tuple(FreeParam(name, shapes[name])
                     for name in MASTER_PARAM_NAMES)

    def assemble(self, vals: dict):
        """(U, V, X, Y, Z): the side equations' members at the reduced
        equation's (X1, X2, Y1, Y2, Y3)."""
        k = self.factors
        bC, bD, bC11, bD11 = k.bC, k.bD, k.bC11, k.bD11
        m, n = self.inst.unknown_shapes()["Z"]
        v3, w3 = k.vw3.solve(self.F, vals["U31"], vals["U32"],
                             vals["U33"], vals["U41"], vals["U42"])
        g = self.F - k.C22 @ v3 @ k.D22 - k.C33 @ w3 @ k.D33
        # the selector products (I, 0) realized as the first row/column half
        cg = bC11.pinv @ g
        uu = bC11.pinv @ vals["U11"] @ k.D11 - bC11.proj_left @ vals["U12"]
        v1 = (cg - uu).submatrix(slice(0, m), slice(None))
        rgd = bC11.proj_right @ g @ bD11.pinv
        cu = k.c11_pc11 @ vals["U11"] + vals["U21"] @ bD11.proj_right
        v2 = (rgd + cu).submatrix(slice(None), slice(0, n))
        y3 = (self.F1 + bC[1].proj_left @ v1 + v2 @ bD[0].proj_right
              + bC[0].proj_left @ v3 @ bD[1].proj_right)
        t = self.T1 - k.A33 @ y3 @ k.B33
        y1, y2 = k.y12.solve(t, vals["U4"], vals["U5"], vals["U6"],
                             vals["U7"], vals["U8"])
        _, b1, a2, b2, a3, b3, a4, b4 = k.reduced
        r = self.T - a2 @ y1 @ b2 - a3 @ y2 @ b3 - a4 @ y3 @ b4
        x1 = (k.bA1.pinv @ r - k.bA1.pinv @ vals["W11"] @ b1
              + k.bA1.proj_left @ vals["W12"])
        x2 = (k.bA1.proj_right @ r @ k.bB1.pinv
              + k.a1_pa1 @ vals["W11"]
              + vals["W13"] @ k.bB1.proj_right)
        return tuple(s.member(w) for s, w in
                     zip(self.sides, (x1, x2, y1, y2, y3)))


MasterInstance.WORK = _MasterWork
