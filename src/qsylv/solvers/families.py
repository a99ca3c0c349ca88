"""Instance shape and equation tables, solution families, free
parameters and solvability reports, and the one driver that decides
every system of the hierarchy.

Each instance type is declared by its tables (:class:`ShapedInstance`):
its shapes, its equations, and either its own reduction as ``WORK``
(the master, two-term and pair systems) or a ``LIFT`` onto a
larger system, with some blocks empty or, for the eta types, doubled
and averaged back.  :func:`check` and
:func:`solve` take the reduction of the caller's instance from a
one-slot memo keyed on that instance's type, ``eta`` and block bytes
(:func:`shared_work`); on a miss they copy its blocks once, follow the
lifts to a type with a ``WORK`` and build the reduction there
(:func:`_root_work`).  They build the certificates from it and, for
``solve``, map the family back through the lifts.  The public
``check_*`` and ``solve_*`` of every system are this pair or calls of
it.

A reduction (a work) is built from one instance in two parts.  Its
``factors`` are the coefficient factorization: every pinv bundle,
intermediate and left-to-right product prefix of the closed forms that
is a function of the coefficient blocks alone (the fields not in
``rhs_names()``), with their norms and the cascade floor, plus the
ranks of the coefficient-only rank panels, taken on the first rank
list.  The work itself is the right-side pass over them: the particular
solutions, the right-side intermediates and every certificate entry
that reads a right side.  ``cls(inst)`` builds both; ``cls(inst,
factors)`` builds only the pass, on factors of equal coefficients.  The
general solution is linear in the right sides, so one factorization
serves every right side.

Before any lift, :func:`check` and :func:`solve` equilibrate the
caller's instance by powers of two (:func:`_equilibrated`): each
equation and its coefficient factors by one, then every right side by
one more, so the data are in range and a verdict cannot depend on how
the instance is scaled.  Every step is exact, and the coefficient
exponents read the coefficients alone, so equal coefficients still
share one factorization.  An eta lift then doubles the scaled blocks,
so its root is an exact mirror, and its rank list takes the grids its
work marks as a :class:`Mirror` at their twins' ranks
(:func:`_rank_list`).

A work gives its certificates as data, and this module alone decides
them.  Its ``compat_terms()`` and ``mp_terms()`` give the ``(name,
value)`` of every compatibility product and residual term, each of
which must vanish; this module tests each at ``tol``, on the
equilibrated data: it takes their norms once per work and holds them on
it (``work.norms``), so a ``solve`` after a ``check`` on the same
instance forms none of those products again.  Its ``rank_terms()``
give the ``(name, grid, rhs)`` of every rank equality r(grid) =
sum(rhs), and this module alone ranks them (:func:`_rank_list`): each
coefficient-only panel, and each bordered grid when the compatibility
or residual form has failed, is first offered to :mod:`.decomp`'s
full-rank certificate, which settles the same integer as an SVD.  A
term that holds for every instance of its shapes, as the conditions of
an equation a lift leaves empty do, is in no list (:func:`_vacuous`).  A
work also gives its free parameters in order, ``params()``, and its
closed form over all of them by name, ``assemble(vals)``, from which
:func:`solve` alone builds the family.  A parameter the caller does not
give is a zero that costs no product (:class:`.qmatrix.Zero`), so the
particular solution pays only for the right side.  Through the lifts
many operands of the closed forms are empty, zero or the identity: the
pinv bundle of an empty or rank-0 block is made of the markers of
:mod:`.qmatrix`, so those products cost nothing either, and the map
back hands out plain, writable matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from ..decomp import ranks
from ..qcore import check_eta
from ..qmatrix import DimensionError, QMatrix, Zero, named_dims, rand_qmatrix

# Absolute truncation floor for pseudoinverses and ranks inside solver
# cascades.  Reduction intermediates frequently vanish in exact
# arithmetic; ranking their rounding noise would amplify it by 1/eps, so
# anything below CASCADE_EPS times the largest coefficient block norm
# (at least 1) is treated as zero.  The right sides do not enter it, so
# the whole factorization is a function of the coefficients.
CASCADE_EPS = 256.0 * float(np.finfo(np.float64).eps)

DEFAULT_TOL = 1e-9
PRECONDITION_TOL = 1e-9


def cascade_floor(norms) -> float:
    return CASCADE_EPS * max([1.0, *norms])


def coefficient_norms(inst) -> dict:
    """The norm of every coefficient block of ``inst``, by name: a
    factorization takes them once, for its floor and for
    :func:`_backward_stable`."""
    return {n: getattr(inst, n).norm() for n in inst.coefficient_names()}


def require_tol(tol: float):
    """Refuse a ``tol`` that is not finite and positive: at inf every
    residual test passes, at nan, 0 or below none does."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


ETA_STAR = "^eta*"


def _factor(vals: dict, name: str, eta):
    if name.endswith(ETA_STAR):
        return vals[name[:-len(ETA_STAR)]].eta_conj_transpose(eta)
    return vals[name]


def _left_side(terms, vals: dict, eta) -> QMatrix:
    """Sum of an equation's terms over ``vals`` (blocks and unknowns by
    name), left to right, each term's product formed on its own."""
    total = None
    for left, unknown, right, eta_conj in terms:
        p = vals[unknown]
        if left is not None:
            p = _factor(vals, left, eta) @ p
        if right is not None:
            p = p @ _factor(vals, right, eta)
        if eta_conj:
            p = p.eta_conj_transpose(eta)
        total = p if total is None else total + p
    return total


def _mean(mats):
    """The mean of one or more matrices; one is returned as is."""
    if len(mats) == 1:
        return mats[0]
    return sum(mats[1:], mats[0]) * (1.0 / len(mats))


def _equation_name(rhs: str, terms) -> str:
    if len(terms) > 1:
        return f"coupling={rhs}"
    return "*".join(n for n in terms[0][:3] if n is not None) + "=" + rhs


class ShapedInstance:
    """Base of the instance types: the one place that knows a system's
    shapes, equations and lift, each declared as a table.

    ``SHAPES`` maps every coefficient block and every unknown to a pair
    of named dimensions, so a repeated name means equal sizes (``("n",
    "n")`` is a square block).  Construction checks the blocks against
    it; ``unknown_shapes``, ``with_empty`` and the document parser read
    it too.

    ``TERMS`` maps each equation's right-side block to the terms summed
    on its left, in order.  A term ``(left, unknown, right, eta_conj)``
    is the product ``left @ unknown @ right``: ``None`` leaves a factor
    out, a name ending in ``^eta*`` stands for that block's
    eta-conjugate transpose, and ``eta_conj`` takes the eta-conjugate
    transpose of the whole product.  The last equation is the coupling
    equation.  ``ETA_HERMITIAN`` names the unknowns that must equal
    their eta-conjugate transpose.

    Each type that declares ``SHAPES`` is made a frozen dataclass, its
    fields derived from these tables: ``eta`` first when
    ``ETA_HERMITIAN`` is not empty, then every ``SHAPES`` entry that is
    no unknown of ``TERMS``, in table order; the unknowns are the
    remaining entries, in table order.
    ``residual_terms``, ``from_witness`` and ``rhs_names`` read the
    tables too.

    ``WORK`` is the reduction class of a system solved in its own
    right.  A system without one declares ``LIFT = (target, slots,
    back)``: the larger instance type it is solved through, and two
    tables of means in the notation of ``TERMS``, read by ``lift()``:
    ``slots`` maps target blocks to the own blocks each is the mean of
    (``"B1": ("A1^eta*",)``, ``"Cc": ("Cc", "Cc^eta*")``), every other
    target block being empty, and ``back`` each own unknown to target
    unknowns (``"U": ("U", "V^eta*")``).  ``require()`` raises
    ``ValueError`` when a precondition on the data fails: every type
    refuses non-finite entries, and an eta type (``ETA_HERMITIAN``,
    ``eta`` checked before the shapes) a coupling right side whose
    eta-Hermitian defect exceeds ``PRECONDITION_TOL`` of its norm.
    """

    SHAPES: dict = {}
    TERMS: dict = {}
    ETA_HERMITIAN: tuple = ()
    WORK = None
    LIFT = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "SHAPES" in vars(cls):
            unknowns = {t[1] for terms in cls.TERMS.values() for t in terms}
            cls._blocks = tuple(k for k in cls.SHAPES if k not in unknowns)
            cls.__annotations__ = {**({"eta": str} if cls.ETA_HERMITIAN
                                      else {}),
                                   **dict.fromkeys(cls._blocks, QMatrix)}
            dataclass(frozen=True)(cls)

    def __post_init__(self):
        if self.ETA_HERMITIAN:
            check_eta(self.eta)
        named_dims(self.SHAPES, vars(self))

    @classmethod
    def block_names(cls) -> tuple:
        """The block fields (every field but ``eta``), in field order."""
        return cls._blocks

    @classmethod
    def unknown_names(cls) -> tuple:
        return tuple(k for k in cls.SHAPES if k not in cls._blocks)

    @classmethod
    def rhs_names(cls) -> tuple:
        """The right-side fields, one per equation; the coupling last."""
        return tuple(cls.TERMS)

    @classmethod
    def coefficient_names(cls) -> tuple:
        """The coefficient fields: every block field but the right
        sides, in field order."""
        return tuple(n for n in cls._blocks if n not in cls.TERMS)

    @classmethod
    def with_empty(cls, present: dict) -> dict:
        """Every block field: those of ``present`` as given, the others
        zero, each named dimension taking its value from the blocks of
        ``present`` that carry it and 0 where none does.  Raises
        DimensionError when two blocks of ``present`` disagree."""
        dims = named_dims(cls.SHAPES, present)
        return {k: present[k] if k in present
                else QMatrix.zeros(*(dims.get(n, 0) for n in cls.SHAPES[k]))
                for k in cls._blocks}

    @classmethod
    def from_witness(cls, witness, **blocks):
        """The instance over the coefficient ``blocks`` (and ``eta``)
        whose every right side is its equation's left side at
        ``witness``, the unknowns in ``SHAPES`` order; so ``witness``
        solves it."""
        vals = dict(blocks)
        vals.update(zip(cls.unknown_names(), witness))
        eta = blocks.get("eta")
        return cls(**blocks, **{rhs: _left_side(terms, vals, eta)
                                for rhs, terms in cls.TERMS.items()})

    def lift(self):
        """The ``LIFT`` target instance this one is solved through, and
        the map from that instance's solution tuples to this one's."""
        target, slots, back = self.LIFT
        eta = getattr(self, "eta", None)

        def means(table, vals):
            return {k: _mean([_factor(vals, n, eta) for n in names])
                    for k, names in table.items()}

        blocks = target.with_empty(means(slots, vars(self)))
        if target.ETA_HERMITIAN:
            blocks["eta"] = eta
        names = target.unknown_names()

        def project(sol):
            return tuple(means(back, dict(zip(names, sol))).values())

        # with_empty checked the named dimensions, and eta is this
        # instance's own
        return target._unchecked(blocks), project

    @classmethod
    def _unchecked(cls, fields: dict):
        """The instance over ``fields`` (every field, by name) without the
        checks of construction: for fields known to pass them."""
        out = object.__new__(cls)
        vars(out).update(fields)
        return out

    def _replaced(self, blocks: dict):
        """This instance with the ``blocks`` of equal shapes in place of
        its own, unchecked."""
        return self._unchecked({**vars(self), **blocks})

    def residual_terms(self, sol) -> list:
        """``(name, defect, scale)`` for every equation, left side minus
        right side with the right side's norm as the scale, then
        ``(W=W^eta*, W - W^{eta*}, |W|)`` for every eta-Hermitian
        unknown W.  A one-term equation is named by its product
        (``A1*U=C1``), a longer one ``coupling=<right side>``."""
        vals = dict(vars(self))
        vals.update(zip(self.unknown_names(), sol))
        eta = vals.get("eta")
        out = []
        for rhs, terms in self.TERMS.items():
            target = vals[rhs]
            out.append((_equation_name(rhs, terms),
                        _left_side(terms, vals, eta) - target,
                        safe_norm(target)))
        for name in self.ETA_HERMITIAN:
            m = vals[name]
            out.append((f"{name}={name}{ETA_STAR}",
                        m - m.eta_conj_transpose(eta), safe_norm(m)))
        return out

    def require(self) -> dict:
        """Refuse a block with a nan or infinite entry, naming it, before
        any SVD can read it; return the :func:`max_exponents` of every
        block by name, all from one scan.  Then an eta type's coupling
        precondition, both norms taken after an exact division by the
        power of two of its largest entry, so no square overflows."""
        exps = dict(zip(self._blocks, max_exponents(self.blocks())))
        for name, e in exps.items():
            if e == math.inf:
                raise ValueError(f"{name} has a non-finite entry")
        if self.ETA_HERMITIAN:
            name = self.rhs_names()[-1]
            e = exps[name] or 0
            m = times_pow2(getattr(self, name), -e)
            defect = (m - m.eta_conj_transpose(self.eta)).norm()
            if defect > PRECONDITION_TOL * m.norm():
                raise ValueError(
                    f"{name} is not eta-Hermitian (defect "
                    f"{times_pow2(defect, e):.3e}); "
                    "refusing to symmetrize input data silently")
        return exps

    def unknown_shapes(self) -> dict:
        dims = named_dims(self.SHAPES, vars(self))
        return {k: tuple(dims[n] for n in self.SHAPES[k])
                for k in self.unknown_names()}

    def blocks(self) -> list:
        return [getattr(self, n) for n in self._blocks]

    def copy(self):
        """The same instance over copies of its blocks."""
        return replace(self, **{n: getattr(self, n).copy()
                                for n in self._blocks})


# The work of the last instance decided (see shared_work), as the one
# item of a list that is never rebound: it is read and replaced whole.
_SLOT = [None]


def _same_blocks(a, b, names) -> bool:
    """Whether the blocks ``names`` of two instances have equal shape,
    dtype and bytes."""
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        for p, q in ((x.a1, y.a1), (x.a2, y.a2)):
            if (p.shape != q.shape or p.dtype != q.dtype
                    or p.tobytes() != q.tobytes()):
                return False
    return True


def shared_work(inst):
    """The work of ``inst`` (:func:`_root_work`), sharing what it can
    with the previous call.

    The slot holds the last work built, which holds the copy of the
    caller's instance it was built from (``work.caller``).  When that
    copy has the type, ``eta`` and coefficient bytes of ``inst``:

    - and equal right sides too, the work itself is returned, with no
      ``require()``, lift or equilibration, so ``check`` then ``solve``
      (or the reverse) on one instance pay for them and for the cascade
      once;
    - otherwise only a new right-side pass is built on its
      factorization, so a new right side over the same coefficients
      takes no pinv SVD and no coefficient-only rank SVD once the panels
      are known.  A lift maps right sides to right sides and
      equilibration scales the coefficients by their own exponents, so
      equal coefficients of ``inst`` give equal coefficients of the
      root.

    On any other miss the whole work is built cold.  The slot is emptied
    before a new work is built, so two passes are never alive at once.
    Every block a work reads is its own copy, made on entry to
    :func:`_root_work`: editing the caller's matrices in place
    afterwards misses the slot and cannot reach a family or report
    already handed out.  A factorization is a function of the
    coefficient bytes alone, and everything that depends on ``tol`` is
    computed by the caller on every call, so a hit or a new pass gives
    bit-identical results to a cold call.  The slot is read and replaced
    whole, so concurrent callers can at worst miss."""
    held = _SLOT[0]
    keep = factors = None
    if (held is not None and type(held.caller) is type(inst)
            and getattr(held.caller, "eta", None) == getattr(inst, "eta", None)
            and _same_blocks(held.caller, inst, inst.coefficient_names())):
        if _same_blocks(held.caller, inst, inst.rhs_names()):
            return held
        keep, factors = held.caller, held.factors
    # free the old pass before the new one is built
    held = _SLOT[0] = None
    _SLOT[0] = work = _root_work(inst, keep, factors)
    return work


@dataclass(frozen=True)
class FreeParam:
    """One free parameter slot of a solution family."""

    name: str
    shape: tuple


@dataclass(frozen=True)
class Condition:
    """Residual test of a single "...= 0" statement."""

    name: str
    residual: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class RankCondition:
    """Integer rank equality, both sides recorded for auditability."""

    name: str
    lhs: int
    rhs: int
    passed: bool


class SolvabilityReport:
    """Outcome of both certificate forms for one instance.

    ``consistent`` requires all three lists to pass; ``forms_agree``
    records whether the residual-based verdict and the rank-based
    verdict coincide (they are equivalent in exact arithmetic).

    The compatibility and residual lists are held as built.  The rank
    list is given either as a list or as a zero-argument builder of it.
    A builder runs here only if every compatibility and residual
    condition passes, since only then does the verdict need it;
    otherwise it runs at most once, on the first read of
    ``rank_conditions``, ``forms_agree``, ``failing()``, ``to_dict()``,
    ``==`` or ``repr``, and is dropped afterwards.

    ``check_*`` always builds both forms before it returns.  ``solve_*``
    builds a report only when it does not return a family (see
    :func:`solve`), so an ``Inconsistent`` carries the report
    ``check_*`` gives; when a compatibility or residual condition fails,
    its rank list is built on first read.
    """

    def __init__(self, compat, mp, ranks):
        self.compat_conditions = list(compat)
        self.mp_conditions = list(mp)
        self._ranks = ranks if callable(ranks) else list(ranks)
        self.consistent = (self._residual_verdict()
                           and all(c.passed for c in self.rank_conditions))

    def _residual_verdict(self) -> bool:
        return (all(c.passed for c in self.compat_conditions)
                and all(c.passed for c in self.mp_conditions))

    @property
    def rank_conditions(self) -> list:
        if callable(self._ranks):
            self._ranks = list(self._ranks())
        return self._ranks

    @property
    def forms_agree(self) -> bool:
        rank_ok = all(c.passed for c in self.rank_conditions)
        compat_ok = all(c.passed for c in self.compat_conditions)
        return self._residual_verdict() == (compat_ok and rank_ok)

    def _fields(self) -> tuple:
        return (self.mp_conditions, self.rank_conditions,
                self.compat_conditions, self.consistent, self.forms_agree)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        names = ("mp_conditions", "rank_conditions", "compat_conditions",
                 "consistent", "forms_agree")
        return "SolvabilityReport(" + ", ".join(
            f"{n}={v!r}" for n, v in zip(names, self._fields())) + ")"

    def failing(self) -> list:
        names = [c.name for c in self.compat_conditions if not c.passed]
        names += [c.name for c in self.mp_conditions if not c.passed]
        names += [c.name for c in self.rank_conditions if not c.passed]
        return names

    def to_dict(self) -> dict:
        return {
            "consistent": self.consistent,
            "forms_agree": self.forms_agree,
            "compat_conditions": [dict(vars(c))
                                  for c in self.compat_conditions],
            "mp_conditions": [dict(vars(c)) for c in self.mp_conditions],
            "rank_conditions": [dict(vars(c)) for c in self.rank_conditions],
        }


@dataclass(frozen=True)
class Inconsistent:
    """Returned (never raised) when an instance has no solution."""

    report: SolvabilityReport

    @property
    def failing_conditions(self) -> list:
        return self.report.failing()


class LinearSolutionFamily:
    """Particular solution plus free parameters spanning the general one.

    assemble() maps a full choice of free-parameter matrices (sequence in
    declared order, or mapping by name) to the concrete solution tuple:
    it hands ``assemble_fn`` every parameter by name, an omitted one as
    a :class:`.qmatrix.Zero`, which costs no product and sums as a
    stored zero.  assemble() with no arguments returns a copy of
    ``particular``, which :func:`solve` assembled once, so editing a
    returned matrix in place changes no later result.
    """

    def __init__(self, unknowns: Sequence[str], params: Sequence[FreeParam],
                 assemble_fn: Callable, particular):
        self.unknowns = tuple(unknowns)
        self.free_params = tuple(params)
        self._assemble = assemble_fn
        self._particular = tuple(particular)

    @property
    def free_param_shapes(self) -> list:
        return [p.shape for p in self.free_params]

    @property
    def particular(self):
        return self.assemble()

    def _full_params(self, params) -> dict:
        values = {p.name: Zero(*p.shape) for p in self.free_params}
        if isinstance(params, Mapping):
            items = dict(params)
        else:
            params = list(params)
            if len(params) != len(values):
                raise DimensionError(
                    f"expected {len(values)} free parameters, "
                    f"got {len(params)}")
            items = dict(zip(values, params))
        for name, value in items.items():
            if name not in values:
                raise KeyError(f"unknown free parameter {name!r}")
            if value.shape != values[name].shape:
                raise DimensionError(
                    f"parameter {name} has shape {value.shape}, "
                    f"expected {values[name].shape}")
            values[name] = value
        return values

    def assemble(self, params=None) -> tuple:
        if params is not None:
            return self._assemble(self._full_params(params))
        return tuple(m.copy() for m in self._particular)

    def random_params(self, rng) -> list:
        """Draw one matrix per free parameter."""
        return [rand_qmatrix(rng, *p.shape) for p in self.free_params]

    def __repr__(self):
        names = ",".join(self.unknowns)
        return (f"LinearSolutionFamily(unknowns=({names}), "
                f"{len(self.free_params)} free parameters)")


def _reduced(inst):
    """The instance with a ``WORK`` that ``inst`` lifts onto (``inst``
    itself when it has one), and the maps back, outermost first."""
    maps = []
    while inst.WORK is None:
        inst, project = inst.lift()
        maps.append(project)
    return inst, maps


def max_exponents(mats) -> list:
    """For each of ``mats``, the e with 2^(e-1) <= max |entry| < 2^e
    over the real parts of its entries, ``None`` when it has no nonzero
    entry, or ``math.inf`` when one is nan or infinite; one scan of all
    their planes.  Max-abs, not a norm, so no square can overflow or
    underflow."""
    sizes = [4 * m.a1.size for m in mats]
    full = [i for i, n in enumerate(sizes) if n]
    out = [None] * len(mats)
    if full:
        flat = np.concatenate(
            [x.ravel() for m in mats for x in (m.a1, m.a2)]).view(np.float64)
        starts = np.cumsum([0] + sizes[:-1])[full]
        tops = np.maximum(np.maximum.reduceat(flat, starts),
                          -np.minimum.reduceat(flat, starts))
        for i, top, e in zip(full, tops, np.frexp(tops)[1]):
            if not math.isfinite(top):
                out[i] = math.inf
            elif top:
                out[i] = int(e)
    return out


def times_pow2(m, s: int):
    """``m * 2^s`` for a matrix or a float, exact unless the result
    leaves the double range.  It multiplies in steps of at most 2^1000,
    since 2^s itself may not be a double (a block whose largest entry is
    subnormal scales by more than 2^1023)."""
    while abs(s) > 1000:
        step = 1000 if s > 0 else -1000
        m, s = m * 2.0 ** step, s - step
    return m * 2.0 ** s


def safe_norm(m) -> float:
    """``m.norm()``, taken again on ``m`` times 2^-e, e its
    :func:`max_exponents`, and scaled back when a square overflowed and
    left it not finite.  A finite norm keeps its bits, so data in range
    pay one test; a nan or infinite entry still gives a nan or inf."""
    n = m.norm()
    if math.isfinite(n):
        return n
    e, = max_exponents([m])
    return n if e == math.inf else times_pow2(times_pow2(m, -e).norm(), e)


def _equilibrated(inst, exps: dict):
    """``inst`` scaled by powers of two, and the exponent k of its right
    sides' scale 2^k.  ``exps`` holds the :func:`max_exponents` of its
    blocks by name (from ``require()``).

    Each equation of ``TERMS`` is multiplied by 2^-e, e the largest of
    the ``max_exponents`` of its terms' coefficient factors (each term's
    left factor, or its right one if it has no left).  A term
    ``E W E^eta*`` counts twice the exponent of E, the equation's e is
    rounded up to even, and E is multiplied by 2^(-e/2), so E^eta*
    takes the same shift.  Then every right side is divided by 2^k, k
    from their largest entry, so the largest is in [1/2, 1).  Each right
    side takes its two factors in one multiply, and a block whose
    exponent is 0 is not multiplied.  Every step is exact, and the
    coefficient exponents read the coefficients alone."""
    shifts, rhs_exps = {}, []
    for rhs, terms in inst.TERMS.items():
        # each term's factor, and whether it is E of E W E^eta*
        fs = [(left or right, right == f"{left}{ETA_STAR}")
              for left, _, right, _ in terms]
        e = max(((2 if pair else 1) * exps[n] for n, pair in fs
                 if exps[n] is not None), default=0)
        if any(pair for _, pair in fs):
            e += e % 2
        shifts[rhs] = -e
        for n, pair in fs:
            shifts[n] = -e // 2 if pair else -e
        if exps[rhs] is not None:
            rhs_exps.append(exps[rhs] - e)
    k = max(rhs_exps, default=0)
    for rhs in inst.TERMS:
        shifts[rhs] -= k
    return inst._replaced({n: times_pow2(getattr(inst, n), s)
                           for n, s in shifts.items() if s}), k


def _root_work(inst, keep=None, factors=None):
    """The work of the instance the equilibrated ``inst`` lifts onto.

    On entry it copies the blocks of ``inst``; the copy, the maps back
    through the lifts and the exponent k of the right sides' scale are
    held on the work as ``work.caller``, ``work.maps`` and ``work.k``.
    Given ``keep``, an instance with the coefficients of ``inst`` that
    no caller holds, the copy shares its coefficients and the work is
    only the right-side pass over ``factors``.  One scan
    (``require()``) checks the blocks and gives the exponents that
    equilibrate the copy, before any lift.  The lifts then write each
    target block as the mean of scaled blocks: an eta type's doubled
    blocks from their scaled twins, so its root is an exact mirror,
    which the work records as ``work.mirrored``, and its coupling right
    side as its eta-Hermitian part."""
    exps = inst.require()
    names = inst.block_names() if keep is None else inst.rhs_names()
    caller = (inst if keep is None else keep)._replaced(
        {n: getattr(inst, n).copy() for n in names})
    scaled, k = _equilibrated(caller, exps)
    root, maps = _reduced(scaled)
    work = root.WORK(root, factors)
    work.caller, work.maps, work.k = caller, maps, k
    work.mirrored = bool(type(inst).ETA_HERMITIAN)
    return work


def _vacuous(term) -> bool:
    """Whether a certificate term holds for every instance of its shapes:
    a compatibility or residual term ``(name, value)`` whose value has
    no entries, or a rank term ``(name, grid, rhs)`` whose grid has no
    entries and whose ``rhs`` is known ranks of 0.  Such terms come from
    the empty equations of a lift, and no list carries them."""
    if len(term) == 2:
        return not term[1].a1.size
    _, grid, rhs = term
    return (all(c is None or not c.a1.size for row in grid for c in row)
            and all(isinstance(x, int) and x == 0 for x in rhs))


def _residual_lists(work, tol: float) -> tuple:
    """The compatibility and residual lists: each term's norm against
    ``tol``, vacuous terms left out.  The ``(name, norm)`` of every term
    is taken on the first call on a work and held on it as
    ``work.norms``; only the thresholds are set per call."""
    norms = getattr(work, "norms", None)
    if norms is None:
        kept = ([t for t in terms if not _vacuous(t)]
                for terms in (work.compat_terms(), work.mp_terms()))
        norms = work.norms = tuple(
            [(name, value.norm()) for name, value in terms] for terms in kept)
    return tuple([Condition(name, r, tol, r <= tol)
                  for name, r in terms] for terms in norms)


class Mirror:
    """A block grid ``grid`` that is the eta-conjugate transpose of the
    grid ``twin``, up to an order and signs of its block rows and
    columns, as a work's rank terms mark it: on the root of an eta lift
    it has the singular values of ``twin`` in exact arithmetic.
    Iterating it iterates ``grid``.  (A plain class: a dataclass would
    cost about 0.4 ms at import.)"""

    __slots__ = ("grid", "twin")

    def __init__(self, grid, twin):
        self.grid, self.twin = grid, twin

    def __iter__(self):
        return iter(self.grid)


def _ranked(grids, floor: float, full_first: bool, mirrored: bool) -> list:
    """The ranks of ``grids`` at ``floor``, in one :func:`.decomp.ranks`
    call with ``full_first``.  A :class:`Mirror` takes its twin's rank
    (the same object's, which the list holds), with no SVD, on a
    mirrored root, and is ranked as its ``grid`` on any other; none
    reaches ``ranks``."""
    if not mirrored:
        grids = [g.grid if isinstance(g, Mirror) else g for g in grids]
    plain = [g for g in grids if not isinstance(g, Mirror)]
    got = dict(zip(map(id, plain), ranks(plain, floor, full_first)))
    return [got[id(g.twin if isinstance(g, Mirror) else g)] for g in grids]


def _rank_list(work, full_first: bool) -> list:
    """The rank list of a work: one ``RankCondition`` per entry ``(name,
    grid, rhs)`` of its ``rank_terms()`` that is not vacuous, comparing
    the rank of ``grid`` with the sum of ``rhs``, whose entries are
    known ranks (ints) and coefficient-only panel grids, all at
    ``factors.floor`` (:func:`_ranked`, with ``work.mirrored``).  The
    panels are ranked only on the first list of a factorization, in a
    call of their own that offers each to the full-rank certificate
    (their coefficients are almost always of full rank), and their
    ranks are held, in order, as ``factors.panels``.  The bordered grids
    follow in a second call, with ``full_first``: a caller sets it when
    the compatibility or residual form has already failed, where the
    grids are almost always of full rank.  The two calls keep the
    panels' Cholesky factorizations from overlapping the rank helper's
    SVD, which raised peak memory.  The certificate only picks how each
    rank is settled, never its value, so the rank form stays
    independent of the residual one."""
    terms = [t for t in work.rank_terms() if not _vacuous(t)]
    k, mirrored = work.factors, work.mirrored
    panels = getattr(k, "panels", None)
    if panels is None:
        panels = k.panels = _ranked(
            [x for _, _, rhs in terms for x in rhs if not isinstance(x, int)],
            k.floor, True, mirrored)
    got = _ranked([grid for _, grid, _ in terms], k.floor, full_first,
                  mirrored)
    held = iter(panels)
    out = []
    for (name, _, rhs), lhs in zip(terms, got):
        total = sum(x if isinstance(x, int) else next(held) for x in rhs)
        out.append(RankCondition(name, lhs, total, lhs == total))
    return out


def _backward_stable(work, sol, tol: float) -> bool:
    """Whether every equation of the work's instance holds at ``sol``
    with normwise backward error ``|sum L W R - b| / (sum |L| |W| |R| +
    |b|)`` at most ``tol`` (Rigal and Gaches, J. ACM 14 (1967); Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 7), the sum
    over the equation's terms in ``TERMS``.  A factor left out has norm
    1 and a ``^eta*`` factor its block's norm, read from the
    factorization's ``block_norms``."""
    inst, norms = work.inst, work.factors.block_norms
    factor = lambda n: 1.0 if n is None else norms[n.removesuffix(ETA_STAR)]
    unknown = dict(zip(inst.unknown_names(), (m.norm() for m in sol)))
    for (_, defect, b), terms in zip(inst.residual_terms(sol),
                                     inst.TERMS.values()):
        scale = b + sum(factor(left) * unknown[w] * factor(right)
                        for left, w, right, _ in terms)
        if defect.norm() > tol * scale:
            return False
    return True


def check(inst, tol: float = DEFAULT_TOL) -> SolvabilityReport:
    """Both certificate forms of any instance: the compatibility
    products, the residual certificate and the rank certificate of its
    reduction, with ``forms_agree`` filled.  A lifted system reports the
    lists of the system it lifts onto, under that system's names.  The
    reduction is built on the equilibrated instance
    (:func:`_equilibrated`), so residuals and thresholds are in its
    units.  It is shared with a ``solve`` on equal content just before,
    and its coefficient factorization with the call before on equal
    coefficients (see :func:`shared_work`).  The norms of the
    compatibility and residual terms are held on the work; the lists are
    built per call, each term at ``tol``.  When a compatibility or
    residual condition fails, the rank list offers each grid to the
    full-rank certificate first (:func:`_rank_list`), as the deferred
    list of :func:`solve`'s ``Inconsistent`` does."""
    require_tol(tol)
    work = shared_work(inst)
    compat, mp = _residual_lists(work, tol)
    passed = all(c.passed for c in compat + mp)
    return SolvabilityReport(compat, mp, _rank_list(work, not passed))


def solve(inst, tol: float = DEFAULT_TOL):
    """General solution family of any instance, or Inconsistent.

    The reduction is built on the equilibrated instance, as in
    :func:`check`.  The verdict: ``Inconsistent`` when a compatibility or
    residual condition fails, with the rank list built on first read
    from the work's own copy of the instance (:func:`shared_work`), so
    editing the caller's blocks in place later cannot change it.
    Otherwise the family, without a rank list, when every equation of
    the equilibrated instance has a normwise backward error of at most
    ``tol`` at its particular solution (:func:`_backward_stable`);
    otherwise the full report's verdict.  The particular solution is the
    work's ``assemble`` at a :class:`.qmatrix.Zero` for each of its
    ``params()``, formed once.  The family, built here alone, holds it
    mapped back and keeps the parameters with no zero dimension, the
    others staying those zeros.  It divides the parameters it is given
    by 2^k, the right sides' scale, and maps each assembled tuple back
    through the lifts and multiplies it by 2^k."""
    require_tol(tol)
    work = shared_work(inst)
    maps, k = work.maps, work.k
    compat, mp = _residual_lists(work, tol)
    held, passed = None, all(c.passed for c in compat + mp)
    if passed:
        params = work.params()
        zeros = {p.name: Zero(*p.shape) for p in params}
        held = work.assemble(zeros)
    if held is None or not _backward_stable(work, held, tol):
        report = SolvabilityReport(compat, mp,
                                   lambda: _rank_list(work, not passed))
        if not report.consistent:
            return Inconsistent(report)

    def back(sol):
        for project in reversed(maps):
            sol = project(sol)
        if k:
            sol = [times_pow2(m, k) for m in sol]
        # a closed form that is zero in every term is a Zero
        return tuple(m if type(m) is QMatrix else m.copy() for m in sol)

    def assemble(vals):
        if k:
            vals = {name: times_pow2(v, -k) for name, v in vals.items()}
        return back(work.assemble({**zeros, **vals}))

    return LinearSolutionFamily(
        inst.unknown_names(), [p for p in params if 0 not in p.shape],
        assemble, back(held))
