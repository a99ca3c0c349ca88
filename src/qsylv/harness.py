"""Planted-instance generation, inconsistency fuzzing and verification.

Generation is witness-first: a solution tuple is drawn and the right
sides are computed from it, so consistency and a ground-truth
certificate are known before any solver runs.  All randomness flows
through a seeded PCG64 generator; identical (profile, seed) inputs
yield bit-identical instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .eta import (EtaFullInstance, EtaMixedInstance, EtaThreeInstance,
                  EtaTwoInstance, check_eta_full, check_eta_mixed,
                  check_eta_three, check_eta_two, solve_eta_full,
                  solve_eta_mixed, solve_eta_three, solve_eta_two, symmetrize)
from .qmatrix import DimensionError, QMatrix
from .solvers.basic import DEFAULT_TOL
from .solvers.five_term import (FiveTermInstance, check_five_term,
                                solve_five_term)
from .solvers.master import (MasterInstance, MasterSolution, check_master,
                             solve_master)
from .solvers.specials import (MixedInstance, ThreeTermInstance, check_mixed,
                               check_three_term, solve_mixed_system,
                               solve_three_term_system)
from .solvers.two_term import TwoTermInstance, check_two_term, solve_two_term

MAX_BLOCK_DIM = 16


@dataclass(frozen=True)
class DimensionProfile:
    """Block dimensions of a master instance plus the generator seed.

    ``blocks[i]`` is (q, p, r, s) for the i-th unknown: its pair
    equations use A in q x p and B in r x s; the coupling right side is
    cc_rows x cc_cols.  All counts are capped at 16 (desk scale).
    """

    cc_rows: int
    cc_cols: int
    blocks: tuple = (((2, 3, 3, 2),) * 4)
    seed: int = 0

    def __post_init__(self):
        if len(self.blocks) != 4:
            raise DimensionError("profile needs exactly 4 block entries")
        dims = [self.cc_rows, self.cc_cols]
        for b in self.blocks:
            if len(b) != 4:
                raise DimensionError("each block entry is (q, p, r, s)")
            dims.extend(b)
        if any(d < 0 for d in dims):
            raise DimensionError("dimensions must be non-negative")
        if any(d > MAX_BLOCK_DIM for d in dims):
            raise DimensionError(f"dimensions are capped at {MAX_BLOCK_DIM}")

    @classmethod
    def cube(cls, size: int, seed: int = 0) -> "DimensionProfile":
        """Default desk profile: rectangular deficient blocks (A wide,
        B tall) so that solution families have genuine freedom and the
        coupling equation cannot span its target space."""
        return cls(cc_rows=size + 2, cc_cols=size + 2,
                   blocks=((size, size + 1, size + 1, size),) * 4,
                   seed=seed)


@dataclass(frozen=True)
class ResidualEntry:
    name: str
    absolute: float
    relative: float
    passed: bool


@dataclass(frozen=True)
class ResidualReport:
    entries: tuple
    passed: bool
    tol: float

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tol": self.tol,
            "entries": [
                {"name": e.name, "absolute": e.absolute,
                 "relative": e.relative, "passed": e.passed}
                for e in self.entries],
        }


def rand_qmatrix(rng, rows: int, cols: int, scale: float = 1.0) -> QMatrix:
    """Independent standard-normal components per quaternion coordinate."""
    return QMatrix(*(scale * rng.standard_normal((rows, cols))
                     for _ in range(4)))


def _rng(seed):
    return np.random.default_rng(np.random.PCG64(seed))


# -- master generators ------------------------------------------------------

def gen_consistent(profile: DimensionProfile):
    """Witness-first consistent master instance: returns (instance,
    MasterSolution certificate)."""
    rng = _rng(profile.seed)
    cr, cc = profile.cc_rows, profile.cc_cols
    a, b, e, f, c, d = {}, {}, {}, {}, {}, {}
    q1, p1, r1, s1 = profile.blocks[0]
    a[1] = rand_qmatrix(rng, q1, p1)
    b[1] = rand_qmatrix(rng, r1, s1)
    e[1] = rand_qmatrix(rng, cr, p1)
    f[1] = rand_qmatrix(rng, r1, cc)
    u = rand_qmatrix(rng, p1, cc)
    v = rand_qmatrix(rng, cr, r1)
    c[1] = a[1] @ u
    d[1] = v @ b[1]
    unknowns = [u, v]
    for i in (2, 3, 4):
        qi, pi, ri, si = profile.blocks[i - 1]
        a[i] = rand_qmatrix(rng, qi, pi)
        b[i] = rand_qmatrix(rng, ri, si)
        e[i] = rand_qmatrix(rng, cr, pi)
        f[i] = rand_qmatrix(rng, ri, cc)
        w = rand_qmatrix(rng, pi, ri)
        c[i] = a[i] @ w
        d[i] = w @ b[i]
        unknowns.append(w)
    coupling = e[1] @ u + v @ f[1]
    for i, w in zip((2, 3, 4), unknowns[2:]):
        coupling = coupling + e[i] @ w @ f[i]
    inst = MasterInstance(
        A1=a[1], A2=a[2], A3=a[3], A4=a[4],
        B1=b[1], B2=b[2], B3=b[3], B4=b[4],
        C1=c[1], C2=c[2], C3=c[3], C4=c[4],
        D1=d[1], D2=d[2], D3=d[3], D4=d[4],
        E1=e[1], E2=e[2], E3=e[3], E4=e[4],
        F1=f[1], F2=f[2], F3=f[3], F4=f[4],
        Cc=coupling)
    return inst, MasterSolution(*unknowns)


def gen_inconsistent(profile: DimensionProfile, retries: int = 8,
                     tol: float = DEFAULT_TOL) -> MasterInstance:
    """Consistent instance with the coupling right side perturbed by a
    random matrix of unit relative norm, re-tested to actually violate
    the residual certificate.  Raises RuntimeError when every retry
    lands consistent (the coupling reaches everything, which the
    default profiles avoid by using rectangular deficient blocks)."""
    inst, _ = gen_consistent(profile)
    return _perturb_rhs(inst, "Cc", check_master, profile.seed, retries, tol)


def _perturb_rhs(inst, rhs: str, check, seed: int, retries: int, tol: float):
    """inst with field ``rhs`` plus a random perturbation of the same
    norm scale, redrawn until ``check`` rejects it.  Eta instances get
    eta-Hermitian perturbations, so the precondition still holds."""
    rng = _rng(seed ^ 0x9E3779B97F4A7C15)
    target = getattr(inst, rhs)
    eta = getattr(inst, "eta", None)
    scale = max(1.0, target.norm())
    for _ in range(retries):
        pert = rand_qmatrix(rng, target.rows, target.cols)
        if eta is not None:
            pert = symmetrize(pert, eta)
        pert = pert * (scale / pert.norm())
        candidate = replace(inst, **{rhs: target + pert})
        if not check(candidate, tol).consistent:
            return candidate
    raise RuntimeError(
        "perturbations stayed consistent; the instance's coupling "
        "equation spans its whole target space")


def verify_solution(inst, sol, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Residuals of every equation of an instance (any supported type)
    against a proposed solution tuple; eta variants additionally get
    eta-Hermicity entries."""
    if isinstance(sol, MasterSolution):
        sol = sol.as_tuple()
    sol = tuple(sol)
    shapes = inst.unknown_shapes()
    if len(sol) != len(shapes):
        raise DimensionError(
            f"expected {len(shapes)} solution blocks, got {len(sol)}")
    for got, (name, want) in zip(sol, shapes.items()):
        if got.shape != want:
            raise DimensionError(
                f"solution block {name} has shape {got.shape}, "
                f"expected {want}")
    entries = []
    for name, defect, scale in inst.residual_terms(sol):
        absolute = defect.norm()
        relative = absolute / (1.0 + scale)
        entries.append(ResidualEntry(name, absolute, relative,
                                     relative <= tol))
    return ResidualReport(tuple(entries), all(e.passed for e in entries), tol)


# -- specialization generators ----------------------------------------------

def gen_three_term(size: int, seed: int):
    rng = _rng(seed)
    cr = cc = size + 2
    q, p, r, s = size, size + 1, size + 1, size
    a, b, e, f, c, d, wit = {}, {}, {}, {}, {}, {}, []
    for i in (1, 2, 3):
        a[i] = rand_qmatrix(rng, q, p)
        b[i] = rand_qmatrix(rng, r, s)
        e[i] = rand_qmatrix(rng, cr, p)
        f[i] = rand_qmatrix(rng, r, cc)
        w = rand_qmatrix(rng, p, r)
        wit.append(w)
        c[i] = a[i] @ w
        d[i] = w @ b[i]
    coupling = (e[1] @ wit[0] @ f[1] + e[2] @ wit[1] @ f[2]
                + e[3] @ wit[2] @ f[3])
    inst = ThreeTermInstance(
        A1=a[1], A2=a[2], A3=a[3], B1=b[1], B2=b[2], B3=b[3],
        C1=c[1], C2=c[2], C3=c[3], D1=d[1], D2=d[2], D3=d[3],
        E1=e[1], E2=e[2], E3=e[3], F1=f[1], F2=f[2], F3=f[3],
        C=coupling)
    return inst, tuple(wit)


def gen_mixed(size: int, seed: int):
    rng = _rng(seed)
    q, p, t, s = size, size + 1, size + 1, size
    cr = cc = size + 2
    a1, b1 = rand_qmatrix(rng, q, p), rand_qmatrix(rng, t, s)
    a2, b2 = rand_qmatrix(rng, q, p), rand_qmatrix(rng, t, s)
    x = rand_qmatrix(rng, p, t)
    y = rand_qmatrix(rng, p, t)
    a3, b3 = rand_qmatrix(rng, cr, p), rand_qmatrix(rng, t, cc)
    a4, b4 = rand_qmatrix(rng, cr, p), rand_qmatrix(rng, t, cc)
    inst = MixedInstance(A1=a1, B1=b1, C1=a1 @ x, C2=x @ b1,
                         A2=a2, B2=b2, C3=a2 @ y, C4=y @ b2,
                         A3=a3, B3=b3, A4=a4, B4=b4,
                         Cc=a3 @ x @ b3 + a4 @ y @ b4)
    return inst, (x, y)


def gen_two_term(size: int, seed: int, deficient: bool = False):
    # the default shapes (C3 wide, D3 tall) leave live freedom in the
    # family; the deficient shapes keep the coupling's reach strictly
    # inside the target space so perturbations can be inconsistent
    rng = _rng(seed)
    if deficient:
        p = q = 2 * size + 3
        m3 = n3 = size
    else:
        p, q = size + 2, size + 2
        m3, n3 = size + 3, size + 3
    m4, n4 = size, size + 1
    c3, d3 = rand_qmatrix(rng, p, m3), rand_qmatrix(rng, n3, q)
    c4, d4 = rand_qmatrix(rng, p, m4), rand_qmatrix(rng, n4, q)
    x3, x4 = rand_qmatrix(rng, m3, n3), rand_qmatrix(rng, m4, n4)
    e1 = c3 @ x3 @ d3 + c4 @ x4 @ d4
    return TwoTermInstance(c3, d3, c4, d4, e1), (x3, x4)


def gen_five_term(size: int, seed: int, wide_rhs: bool = False):
    # wide_rhs makes the target space strictly larger than the coupling
    # map's reach, so perturbed right sides can actually be inconsistent;
    # from size 6 on, 2 * size + 3 rows no longer suffice
    rng = _rng(seed)
    if wide_rhs:
        p = q = 2 * size + 3 + 2 * max(0, size - 5)
    else:
        p = q = size + 2
    a1, b1 = size, size
    inner = size if wide_rhs else size + 1
    mats = {}
    mats["A1"] = rand_qmatrix(rng, p, a1)
    mats["B1"] = rand_qmatrix(rng, b1, q)
    for i, name in ((2, "A2"), (3, "A3"), (4, "A4")):
        mats[name] = rand_qmatrix(rng, p, inner)
        mats[f"B{i}"] = rand_qmatrix(rng, inner, q)
    x1 = rand_qmatrix(rng, a1, q)
    x2 = rand_qmatrix(rng, p, b1)
    ys = [rand_qmatrix(rng, inner, inner) for _ in range(3)]
    rhs = mats["A1"] @ x1 + x2 @ mats["B1"]
    for i, y in zip((2, 3, 4), ys):
        rhs = rhs + mats[f"A{i}"] @ y @ mats[f"B{i}"]
    inst = FiveTermInstance(mats["A1"], mats["B1"], mats["A2"], mats["B2"],
                            mats["A3"], mats["B3"], mats["A4"], mats["B4"],
                            rhs)
    return inst, (x1, x2, *ys)


def gen_eta_full(size: int, seed: int, eta: str = "i"):
    rng = _rng(seed)
    n = size + 2
    q, p = size, size + 1
    a = [rand_qmatrix(rng, q, p) for _ in range(4)]
    e = [rand_qmatrix(rng, n, p) for _ in range(4)]
    u = rand_qmatrix(rng, p, n)
    xs = [symmetrize(rand_qmatrix(rng, p, p), eta) for _ in range(3)]
    c = [a[0] @ u] + [a[i] @ xs[i - 1] for i in (1, 2, 3)]
    ec = lambda m: m.eta_conj_transpose(eta)
    coupling = e[0] @ u + ec(e[0] @ u)
    for i in (1, 2, 3):
        coupling = coupling + e[i] @ xs[i - 1] @ ec(e[i])
    inst = EtaFullInstance(eta, a[0], a[1], a[2], a[3],
                           c[0], c[1], c[2], c[3],
                           e[0], e[1], e[2], e[3], coupling)
    return inst, (u, *xs)


def gen_eta_three(size: int, seed: int, eta: str = "i"):
    rng = _rng(seed)
    n = size + 2
    q, p = size, size + 1
    a = [rand_qmatrix(rng, q, p) for _ in range(3)]
    e = [rand_qmatrix(rng, n, p) for _ in range(3)]
    xs = [symmetrize(rand_qmatrix(rng, p, p), eta) for _ in range(3)]
    c = [a[i] @ xs[i] for i in range(3)]
    ec = lambda m: m.eta_conj_transpose(eta)
    coupling = QMatrix.zeros(n, n)
    for i in range(3):
        coupling = coupling + e[i] @ xs[i] @ ec(e[i])
    inst = EtaThreeInstance(eta, a[0], a[1], a[2], c[0], c[1], c[2],
                            e[0], e[1], e[2], coupling)
    return inst, tuple(xs)


def gen_eta_two(size: int, seed: int, eta: str = "i"):
    rng = _rng(seed)
    d = size + 2
    nb, nc = size + 1, size
    b1 = rand_qmatrix(rng, d, nb)
    c1 = rand_qmatrix(rng, d, nc)
    y = symmetrize(rand_qmatrix(rng, nb, nb), eta)
    z = symmetrize(rand_qmatrix(rng, nc, nc), eta)
    ec = lambda m: m.eta_conj_transpose(eta)
    d1 = b1 @ y @ ec(b1) + c1 @ z @ ec(c1)
    return EtaTwoInstance(eta, b1, c1, d1), (y, z)


def gen_eta_mixed(size: int, seed: int, eta: str = "i"):
    rng = _rng(seed)
    nx, ny = size + 1, size + 1
    q, s, d = size, size, size + 2
    a1 = rand_qmatrix(rng, q, nx)
    b1 = rand_qmatrix(rng, ny, s)
    x = symmetrize(rand_qmatrix(rng, nx, nx), eta)
    y = symmetrize(rand_qmatrix(rng, ny, ny), eta)
    a2 = rand_qmatrix(rng, d, nx)
    a3 = rand_qmatrix(rng, d, ny)
    ec = lambda m: m.eta_conj_transpose(eta)
    d3 = a2 @ x @ ec(a2) + a3 @ y @ ec(a3)
    inst = EtaMixedInstance(eta, a1, a1 @ x, b1, y @ b1, a2, a3, d3)
    return inst, (x, y)


@dataclass(frozen=True)
class Variant:
    """One system of the hierarchy: the single place that knows it.

    ``rhs`` is the right-hand-side field that ``gen_unsolvable``
    perturbs; ``unknowns`` names the solution blocks in order, as the
    instance type's ``SHAPES`` lists them.
    ``check(inst, tol)`` and ``solve(inst, tol, branch)`` take an
    ``instance_type`` value; ``one_closed_form`` marks the systems whose
    ``solve`` ignores ``branch``.  ``planted(size, seed, eta)`` returns
    (instance, witness).  ``unsolvable_base``, same signature, is the
    planted generator ``gen_unsolvable`` starts from when the default
    shapes let the coupling reach its whole target space.
    """

    name: str
    instance_type: type
    rhs: str
    check: Callable
    solve: Callable
    planted: Callable
    unsolvable_base: Callable | None = None
    one_closed_form: bool = False

    @property
    def unknowns(self) -> tuple:
        return self.instance_type.unknown_names()


def _two_term_args(inst):
    return inst.C3, inst.D3, inst.C4, inst.D4, inst.E1


VARIANT_TABLE = {v.name: v for v in (
    Variant("master", MasterInstance, "Cc", check_master, solve_master,
            lambda size, seed, eta: gen_consistent(
                DimensionProfile.cube(size, seed))),
    Variant("three-term", ThreeTermInstance, "C",
            check_three_term, solve_three_term_system,
            lambda size, seed, eta: gen_three_term(size, seed)),
    Variant("mixed", MixedInstance, "Cc", check_mixed,
            lambda inst, tol, branch: solve_mixed_system(inst, tol),
            lambda size, seed, eta: gen_mixed(size, seed),
            one_closed_form=True),
    Variant("two-term", TwoTermInstance, "E1",
            lambda inst, tol: check_two_term(*_two_term_args(inst), tol=tol),
            lambda inst, tol, branch: solve_two_term(*_two_term_args(inst),
                                                     tol),
            lambda size, seed, eta: gen_two_term(size, seed),
            lambda size, seed, eta: gen_two_term(size, seed, deficient=True),
            one_closed_form=True),
    Variant("five-term", FiveTermInstance, "B", check_five_term,
            solve_five_term,
            lambda size, seed, eta: gen_five_term(size, seed),
            lambda size, seed, eta: gen_five_term(size, seed, wide_rhs=True)),
    Variant("eta-full", EtaFullInstance, "Cc", check_eta_full, solve_eta_full,
            gen_eta_full),
    Variant("eta-three", EtaThreeInstance, "C", check_eta_three,
            solve_eta_three, gen_eta_three),
    Variant("eta-two", EtaTwoInstance, "D1", check_eta_two,
            lambda inst, tol, branch: solve_eta_two(
                inst.B1, inst.C1, inst.D1, inst.eta, tol),
            gen_eta_two, one_closed_form=True),
    Variant("eta-mixed", EtaMixedInstance, "D3", check_eta_mixed,
            lambda inst, tol, branch: solve_eta_mixed(
                inst.A1, inst.C1, inst.B1, inst.D1, inst.A2, inst.A3,
                inst.D3, inst.eta, tol),
            gen_eta_mixed, one_closed_form=True),
)}

VARIANTS = tuple(VARIANT_TABLE)


def _variant(name: str) -> Variant:
    if name not in VARIANT_TABLE:
        raise ValueError(f"unknown variant {name!r}")
    return VARIANT_TABLE[name]


def gen_planted(variant: str, size: int, seed: int, eta: str = "i"):
    """(instance, witness) for any variant, consistent by construction."""
    return _variant(variant).planted(size, seed, eta)


def gen_unsolvable(variant: str, size: int, seed: int, eta: str = "i",
                   retries: int = 8, tol: float = DEFAULT_TOL):
    """Planted instance with its right side perturbed into inconsistency.

    For eta variants the perturbation is symmetrized so the instance
    still meets the eta-Hermicity precondition."""
    v = _variant(variant)
    inst, _ = (v.unsolvable_base or v.planted)(size, seed, eta)
    return _perturb_rhs(inst, v.rhs, v.check, seed, retries, tol)
