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
                  EtaTwoInstance, symmetrize)
from .qmatrix import DimensionError, QMatrix
from .solvers.basic import PairInstance
from .solvers.families import DEFAULT_TOL, Inconsistent, check, solve
from .solvers.five_term import FiveTermInstance
from .solvers.master import MasterInstance, MasterSolution
from .solvers.specials import MixedInstance, ThreeTermInstance
from .solvers.two_term import TwoTermInstance

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
    blocks, unknowns = {}, []
    for i, (q, p, r, s) in enumerate(profile.blocks, 1):
        blocks[f"A{i}"] = rand_qmatrix(rng, q, p)
        blocks[f"B{i}"] = rand_qmatrix(rng, r, s)
        blocks[f"E{i}"] = rand_qmatrix(rng, cr, p)
        blocks[f"F{i}"] = rand_qmatrix(rng, r, cc)
        if i == 1:
            unknowns += [rand_qmatrix(rng, p, cc), rand_qmatrix(rng, cr, r)]
        else:
            unknowns.append(rand_qmatrix(rng, p, r))
    inst = MasterInstance.from_witness(unknowns, **blocks)
    return inst, MasterSolution(*unknowns)


def gen_inconsistent(profile: DimensionProfile, retries: int = 8,
                     tol: float = DEFAULT_TOL) -> MasterInstance:
    """Consistent instance with the coupling right side perturbed by a
    random matrix of unit relative norm, re-tested to actually violate
    the residual certificate.  Raises RuntimeError when every retry
    lands consistent (the coupling reaches everything, which the
    default profiles avoid by using rectangular deficient blocks)."""
    inst, _ = gen_consistent(profile)
    return _perturb_rhs(inst, profile.seed, retries, tol)


def _perturb_rhs(inst, seed: int, retries: int, tol: float):
    """inst with its coupling right side (the last of ``rhs_names()``)
    plus a random perturbation of the same norm scale, redrawn until
    ``solve`` returns ``Inconsistent``, which it decides from the
    residual certificate without building a rank list.  Eta instances
    get eta-Hermitian perturbations, so the precondition still
    holds."""
    rng = _rng(seed ^ 0x9E3779B97F4A7C15)
    rhs = inst.rhs_names()[-1]
    target = getattr(inst, rhs)
    eta = getattr(inst, "eta", None)
    scale = max(1.0, target.norm())
    for _ in range(retries):
        pert = rand_qmatrix(rng, target.rows, target.cols)
        if eta is not None:
            pert = symmetrize(pert, eta)
        pert = pert * (scale / pert.norm())
        candidate = replace(inst, **{rhs: target + pert})
        if isinstance(solve(candidate, tol), Inconsistent):
            return candidate
    raise RuntimeError(
        "perturbations stayed consistent; the instance's coupling "
        "equation spans its whole target space")


def verify_solution(inst, sol, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Residuals of every equation of an instance (any supported type)
    against a proposed solution tuple; eta variants additionally get
    eta-Hermicity entries."""
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

def gen_pair(size: int, seed: int, deficient: bool = False):
    # A wide and B tall leave the family freedom; with A tall and B wide
    # (deficient) a perturbed D can leave the reach of X B
    rng = _rng(seed)
    q, p = (size + 1, size) if deficient else (size, size + 1)
    blocks = {"A": rand_qmatrix(rng, q, p), "B": rand_qmatrix(rng, p, q)}
    wit = (rand_qmatrix(rng, p, p),)
    return PairInstance.from_witness(wit, **blocks), wit


def gen_three_term(size: int, seed: int):
    rng = _rng(seed)
    cr = cc = size + 2
    q, p, r, s = size, size + 1, size + 1, size
    blocks, wit = {}, []
    for i in (1, 2, 3):
        blocks[f"A{i}"] = rand_qmatrix(rng, q, p)
        blocks[f"B{i}"] = rand_qmatrix(rng, r, s)
        blocks[f"E{i}"] = rand_qmatrix(rng, cr, p)
        blocks[f"F{i}"] = rand_qmatrix(rng, r, cc)
        wit.append(rand_qmatrix(rng, p, r))
    return ThreeTermInstance.from_witness(wit, **blocks), tuple(wit)


def gen_mixed(size: int, seed: int):
    rng = _rng(seed)
    q, p, t, s = size, size + 1, size + 1, size
    cr = cc = size + 2
    blocks = {"A1": rand_qmatrix(rng, q, p), "B1": rand_qmatrix(rng, t, s),
              "A2": rand_qmatrix(rng, q, p), "B2": rand_qmatrix(rng, t, s)}
    wit = (rand_qmatrix(rng, p, t), rand_qmatrix(rng, p, t))
    blocks.update(A3=rand_qmatrix(rng, cr, p), B3=rand_qmatrix(rng, t, cc),
                  A4=rand_qmatrix(rng, cr, p), B4=rand_qmatrix(rng, t, cc))
    return MixedInstance.from_witness(wit, **blocks), wit


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
    blocks = {"C3": rand_qmatrix(rng, p, m3), "D3": rand_qmatrix(rng, n3, q),
              "C4": rand_qmatrix(rng, p, m4), "D4": rand_qmatrix(rng, n4, q)}
    wit = (rand_qmatrix(rng, m3, n3), rand_qmatrix(rng, m4, n4))
    return TwoTermInstance.from_witness(wit, **blocks), wit


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
    mats = {"A1": rand_qmatrix(rng, p, a1), "B1": rand_qmatrix(rng, b1, q)}
    for i in (2, 3, 4):
        mats[f"A{i}"] = rand_qmatrix(rng, p, inner)
        mats[f"B{i}"] = rand_qmatrix(rng, inner, q)
    wit = (rand_qmatrix(rng, a1, q), rand_qmatrix(rng, p, b1),
           *(rand_qmatrix(rng, inner, inner) for _ in range(3)))
    return FiveTermInstance.from_witness(wit, **mats), wit


def _rand_eta_hermitian(rng, eta: str, *sizes) -> tuple:
    """One random eta-Hermitian matrix per size, drawn in order."""
    return tuple(symmetrize(rand_qmatrix(rng, n, n), eta) for n in sizes)


def gen_eta_full(size: int, seed: int, eta: str = "i"):
    rng = _rng(seed)
    n = size + 2
    q, p = size, size + 1
    a = {f"A{i}": rand_qmatrix(rng, q, p) for i in (1, 2, 3, 4)}
    e = {f"E{i}": rand_qmatrix(rng, n, p) for i in (1, 2, 3, 4)}
    wit = (rand_qmatrix(rng, p, n), *_rand_eta_hermitian(rng, eta, p, p, p))
    return EtaFullInstance.from_witness(wit, eta=eta, **a, **e), wit


def gen_eta_three(size: int, seed: int, eta: str = "i"):
    rng = _rng(seed)
    n = size + 2
    q, p = size, size + 1
    a = {f"A{i}": rand_qmatrix(rng, q, p) for i in (1, 2, 3)}
    e = {f"E{i}": rand_qmatrix(rng, n, p) for i in (1, 2, 3)}
    wit = _rand_eta_hermitian(rng, eta, p, p, p)
    return EtaThreeInstance.from_witness(wit, eta=eta, **a, **e), wit


def gen_eta_two(size: int, seed: int, eta: str = "i"):
    rng = _rng(seed)
    d = size + 2
    nb, nc = size + 1, size
    blocks = {"B1": rand_qmatrix(rng, d, nb), "C1": rand_qmatrix(rng, d, nc)}
    wit = _rand_eta_hermitian(rng, eta, nb, nc)
    return EtaTwoInstance.from_witness(wit, eta=eta, **blocks), wit


def gen_eta_mixed(size: int, seed: int, eta: str = "i"):
    rng = _rng(seed)
    nx, ny = size + 1, size + 1
    q, s, d = size, size, size + 2
    blocks = {"A1": rand_qmatrix(rng, q, nx), "B1": rand_qmatrix(rng, ny, s)}
    wit = _rand_eta_hermitian(rng, eta, nx, ny)
    blocks.update(A2=rand_qmatrix(rng, d, nx), A3=rand_qmatrix(rng, d, ny))
    return EtaMixedInstance.from_witness(wit, eta=eta, **blocks), wit


@dataclass(frozen=True)
class Variant:
    """One system of the hierarchy: the single place that knows it.

    ``unknowns`` names the solution blocks in order, as the instance
    type's ``SHAPES`` lists them.  ``check(inst, tol)`` and
    ``solve(inst, tol, branch)`` are the one driver of every system
    (:mod:`.solvers.families`); ``one_closed_form`` marks the systems
    whose families do not depend on ``branch``.  ``planted(size, seed,
    eta)`` returns (instance, witness).  ``unsolvable_base``, same
    signature, is the planted generator ``gen_unsolvable`` starts from
    when the default shapes let the coupling reach its whole target
    space.
    """

    name: str
    instance_type: type
    planted: Callable
    unsolvable_base: Callable | None = None
    one_closed_form: bool = False

    check = staticmethod(check)
    solve = staticmethod(solve)

    @property
    def unknowns(self) -> tuple:
        return self.instance_type.unknown_names()


VARIANT_TABLE = {v.name: v for v in (
    Variant("pair", PairInstance,
            lambda size, seed, eta: gen_pair(size, seed),
            lambda size, seed, eta: gen_pair(size, seed, deficient=True),
            one_closed_form=True),
    Variant("master", MasterInstance,
            lambda size, seed, eta: gen_consistent(
                DimensionProfile.cube(size, seed))),
    Variant("three-term", ThreeTermInstance,
            lambda size, seed, eta: gen_three_term(size, seed)),
    Variant("mixed", MixedInstance,
            lambda size, seed, eta: gen_mixed(size, seed),
            one_closed_form=True),
    Variant("two-term", TwoTermInstance,
            lambda size, seed, eta: gen_two_term(size, seed),
            lambda size, seed, eta: gen_two_term(size, seed, deficient=True),
            one_closed_form=True),
    Variant("five-term", FiveTermInstance,
            lambda size, seed, eta: gen_five_term(size, seed),
            lambda size, seed, eta: gen_five_term(size, seed, wide_rhs=True)),
    Variant("eta-full", EtaFullInstance, gen_eta_full),
    Variant("eta-three", EtaThreeInstance, gen_eta_three),
    Variant("eta-two", EtaTwoInstance, gen_eta_two, one_closed_form=True),
    Variant("eta-mixed", EtaMixedInstance, gen_eta_mixed,
            one_closed_form=True),
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
    return _perturb_rhs(inst, seed, retries, tol)
