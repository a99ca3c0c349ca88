"""Planted-instance generation, inconsistency fuzzing and verification.

Generation is witness-first: a solution tuple is drawn and the right
sides are computed from it, so consistency and a ground-truth
certificate are known before any solver runs.  One loop,
:func:`_planted`, does this for every system: it draws each coefficient
block and each unknown from one seeded PCG64 stream at its ``SHAPES``
shape, symmetrizes the ``ETA_HERMITIAN`` unknowns and calls
``from_witness``.  A variant's entry in ``VARIANT_TABLE`` holds only
data: its named dimensions as a function of ``size``, the dimensions of
the base ``gen_unsolvable`` perturbs when they differ, and the draw
order when it is not the coefficient fields, then the unknowns.
Identical (variant, size, seed, eta) inputs yield bit-identical
instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .eta import (EtaFullInstance, EtaMixedInstance, EtaThreeInstance,
                  EtaTwoInstance, symmetrize)
from .qmatrix import DimensionError, rand_qmatrix
from .solvers.basic import PairInstance
from .solvers.families import (DEFAULT_TOL, Inconsistent, require_tol,
                               safe_norm, solve)
from .solvers.master import MasterInstance, MasterSolution
from .solvers.specials import (FiveTermInstance, MixedInstance,
                               ThreeTermInstance)
from .solvers.two_term import TwoTermInstance


@dataclass(frozen=True)
class DimensionProfile:
    """Block dimensions of a master instance plus the generator seed.

    ``blocks[i]`` is (q, p, r, s) for the i-th unknown: its pair
    equations use A in q x p and B in r x s; the coupling right side is
    cc_rows x cc_cols.  Every count must be non-negative.
    """

    cc_rows: int
    cc_cols: int
    blocks: tuple = (((2, 3, 3, 2),) * 4)
    seed: int = 0

    def __post_init__(self):
        if len(self.blocks) != 4 or any(len(b) != 4 for b in self.blocks):
            raise DimensionError(
                "profile needs exactly 4 block entries, each (q, p, r, s)")
        if any(d < 0 for d in self.dims().values()):
            raise DimensionError("dimensions must be non-negative")

    @classmethod
    def cube(cls, size: int, seed: int = 0) -> "DimensionProfile":
        """Default desk profile: rectangular deficient blocks (A wide,
        B tall) so that solution families have genuine freedom and the
        coupling equation cannot span its target space."""
        return cls(cc_rows=size + 2, cc_cols=size + 2,
                   blocks=((size, size + 1, size + 1, size),) * 4,
                   seed=seed)

    def dims(self) -> dict:
        """The named dimensions of ``MasterInstance.SHAPES``."""
        dims = {"cr": self.cc_rows, "cc": self.cc_cols}
        for i, b in enumerate(self.blocks, 1):
            dims.update(zip((f"q{i}", f"p{i}", f"r{i}", f"s{i}"), b))
        return dims


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
        return {"passed": self.passed, "tol": self.tol,
                "entries": [dict(vars(e)) for e in self.entries]}


def _planted(cls, dims: dict, seed: int, eta: str = "i", order=None):
    """(instance, witness) of the instance type ``cls``.

    Each name of ``order`` (by default the coefficient fields, then the
    unknowns) is drawn in turn from one PCG64(seed) stream at its
    ``SHAPES`` shape under the named dimensions ``dims``.  The
    ``ETA_HERMITIAN`` unknowns are symmetrized, and the right sides are
    the left sides at the witness, the unknowns in ``SHAPES`` order."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    drawn = {k: rand_qmatrix(rng, *(dims[d] for d in cls.SHAPES[k]))
             for k in order or cls.coefficient_names() + cls.unknown_names()}
    for name in cls.ETA_HERMITIAN:
        drawn[name] = symmetrize(drawn[name], eta)
    witness = tuple(drawn.pop(name) for name in cls.unknown_names())
    if "eta" in cls.__dataclass_fields__:
        drawn["eta"] = eta
    return cls.from_witness(witness, **drawn), witness


# master draws block by block: A1 B1 E1 F1 and its unknowns U V, then
# A2 B2 E2 F2 and X, and so on; three-term likewise
_MASTER_ORDER = tuple("A1 B1 E1 F1 U V A2 B2 E2 F2 X A3 B3 E3 F3 Y "
                      "A4 B4 E4 F4 Z".split())


def gen_consistent(profile: DimensionProfile):
    """Witness-first consistent master instance: returns (instance,
    MasterSolution certificate)."""
    inst, witness = _planted(MasterInstance, profile.dims(), profile.seed,
                             order=_MASTER_ORDER)
    return inst, MasterSolution(*witness)


# how many perturbations _perturb_rhs draws before it gives up
_RETRIES = 8


def _perturb_rhs(inst, seed: int, tol: float):
    """inst with its coupling right side (the last of ``rhs_names()``)
    plus a random perturbation of the same norm scale, redrawn up to
    ``_RETRIES`` times until ``solve`` returns ``Inconsistent``, which
    it decides from the residual certificate without building a rank
    list.  Eta instances get eta-Hermitian perturbations, so the
    precondition still holds.  A right side without entries cannot be
    perturbed, so it raises as a spanning coupling does."""
    rng = np.random.default_rng(np.random.PCG64(seed ^ 0x9E3779B97F4A7C15))
    rhs = inst.rhs_names()[-1]
    target = getattr(inst, rhs)
    eta = getattr(inst, "eta", None)
    scale = max(1.0, target.norm())
    for _ in range(_RETRIES if target.rows and target.cols else 0):
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
    eta-Hermicity entries.  Every norm is a
    :func:`.solvers.families.safe_norm`, so data near the top of the
    double range verify as data of scale 1 do."""
    require_tol(tol)
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
        absolute = safe_norm(defect)
        relative = absolute / (1.0 + scale)
        entries.append(ResidualEntry(name, absolute, relative,
                                     relative <= tol))
    return ResidualReport(tuple(entries), all(e.passed for e in entries), tol)


@dataclass(frozen=True)
class Variant:
    """One system of the hierarchy: the single place that knows it.

    ``unknowns`` names the solution blocks in order, as the instance
    type's ``SHAPES`` lists them.  ``aliases`` maps the other labels a
    document may give a block field to that field (``{"Cc": "C"}`` for
    three-term).  Every system is decided by the one
    driver, :func:`.solvers.families.check` and
    :func:`.solvers.families.solve`, so an entry holds only data.

    ``dims(size)`` gives the named dimensions of a planted instance.
    ``twin_dims(size)``, when set, gives those of the base that
    ``gen_unsolvable`` perturbs, for the systems whose default shapes
    let the coupling reach its whole target space.  ``order`` is the
    draw order of :func:`_planted` where it is not the coefficient
    fields, then the unknowns.
    """

    name: str
    instance_type: type
    dims: Callable
    twin_dims: Callable | None = None
    order: tuple | None = None
    aliases: dict = field(default_factory=dict)

    @property
    def unknowns(self) -> tuple:
        return self.instance_type.unknown_names()

    def planted(self, size: int, seed: int, eta: str = "i",
                twin: bool = False):
        """(instance, witness), consistent by construction; ``twin``
        draws the base of ``gen_unsolvable`` instead."""
        dims = self.twin_dims if twin and self.twin_dims else self.dims
        return _planted(self.instance_type, dims(size), seed, eta,
                        self.order)


def _indexed(indices, **dims) -> dict:
    """``dims`` once per index: ``_indexed((1, 2), q=3)`` is
    ``{"q1": 3, "q2": 3}``."""
    return {f"{k}{i}": v for i in indices for k, v in dims.items()}


def _five_term_dims(p: int, size: int, inner: int) -> dict:
    return dict(p=p, q=p, a1=size, b1=size, **_indexed((2, 3, 4), a=inner,
                                                      b=inner))


# Default shapes make A wide and B tall, so families keep freedom.  The
# twins' shapes keep the coupling's reach strictly inside its target
# space, so a perturbed right side can leave it: the pair twin's A is
# tall and B wide; the two-term twin's C3, D3 are deficient; the
# five-term twin widens the right side, by 2 more per size from size 6.
VARIANT_TABLE = {v.name: v for v in (
    Variant("pair", PairInstance,
            lambda n: dict(q=n, p=n + 1, r=n + 1, s=n),
            lambda n: dict(q=n + 1, p=n, r=n, s=n + 1)),
    Variant("master", MasterInstance,
            lambda n: DimensionProfile.cube(n).dims(),
            order=_MASTER_ORDER),
    Variant("three-term", ThreeTermInstance,
            lambda n: dict(cr=n + 2, cc=n + 2,
                           **_indexed((1, 2, 3), q=n, p=n + 1, r=n + 1, s=n)),
            order=tuple("A1 B1 E1 F1 X A2 B2 E2 F2 Y A3 B3 E3 F3 Z".split()),
            aliases={"Cc": "C"}),
    Variant("mixed", MixedInstance,
            lambda n: dict(cr=n + 2, cc=n + 2,
                           **_indexed((1, 2), q=n, p=n + 1, t=n + 1, s=n)),
            order=tuple("A1 B1 A2 B2 X1 X2 A3 B3 A4 B4".split())),
    Variant("two-term", TwoTermInstance,
            lambda n: dict(p=n + 2, q=n + 2, m3=n + 3, n3=n + 3, m4=n,
                           n4=n + 1),
            lambda n: dict(p=2 * n + 3, q=2 * n + 3, m3=n, n3=n, m4=n,
                           n4=n + 1)),
    Variant("five-term", FiveTermInstance,
            lambda n: _five_term_dims(n + 2, n, n + 1),
            lambda n: _five_term_dims(2 * n + 3 + 2 * max(0, n - 5), n, n)),
    Variant("eta-full", EtaFullInstance,
            lambda n: dict(n=n + 2, **_indexed((1, 2, 3, 4), q=n, p=n + 1)),
            aliases={f"B{i}": f"C{i}" for i in (1, 2, 3, 4)}),
    Variant("eta-three", EtaThreeInstance,
            lambda n: dict(n=n + 2, **_indexed((1, 2, 3), q=n, p=n + 1)),
            aliases={"Cc": "C", **{f"B{i}": f"C{i}" for i in (1, 2, 3)}}),
    Variant("eta-two", EtaTwoInstance,
            lambda n: dict(d=n + 2, nb=n + 1, nc=n)),
    Variant("eta-mixed", EtaMixedInstance,
            lambda n: dict(d=n + 2, q1=n, s1=n, nx=n + 1, ny=n + 1),
            order=("A1", "B1", "X", "Y", "A2", "A3")),
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
                   tol: float = DEFAULT_TOL):
    """Planted instance with its right side perturbed into inconsistency.

    For eta variants the perturbation is symmetrized so the instance
    still meets the eta-Hermicity precondition.  Raises RuntimeError
    when every perturbation lands consistent (the coupling reaches its
    whole target space, which the default shapes avoid)."""
    inst, _ = _variant(variant).planted(size, seed, eta, twin=True)
    return _perturb_rhs(inst, seed, tol)
