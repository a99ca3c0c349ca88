"""Shared fixtures and helpers.

qsylv settles every rank it decides by one of four routes: an SVD of
its embedding, the full-rank certificate (``decomp._full_rank``), its
twin's rank when it is a mirror on the root of an eta lift, or the
helper thread of ``decomp.ranks``.  ``tests/test_routes.py`` proves that
every route gives the report an SVD would, ``tests/test_counts.py`` pins
what each call costs, and the route modules test each route's own
mechanics.  They share one instrument, kept here:

- the ``counter`` fixture records every SVD and every certificate;
- :func:`set_route` (the ``route`` fixture in a test) turns one route
  off, offers every grid to the certificate or opens or shuts the
  helper's gates; :func:`evict` turns the held work off for the next
  call;
- :func:`corpus` yields the labelled instances those tests run on.

Hypothesis runs under one profile that derandomizes every property test
and keeps no example database, so a run's outcome depends on the tree
alone.
"""

import functools
import itertools
import math
import os
import pathlib
import threading
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

import qsylv
from qsylv import QMatrix, block, decomp, pinv, rank
from qsylv.harness import (VARIANT_TABLE, _planted, gen_planted,
                           gen_unsolvable, verify_solution)
from qsylv.qmatrix import rand_qmatrix
from qsylv.solvers import families

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def make_rand(rng):
    def rand_q(rows, cols, scale=1.0):
        return QMatrix(*(scale * rng.standard_normal((rows, cols))
                         for _ in range(4)))
    return rand_q


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def rand_q(rng):
    return make_rand(rng)


@pytest.fixture
def data_dir():
    return DATA_DIR


def worst_rel(inst, sol):
    """The largest relative residual of ``verify_solution`` at ``sol``."""
    return max(e.relative for e in verify_solution(inst, sol).entries)


def rank_block_oracle(a, b, c, d, e, tol=None):
    """Evaluate both sides of the block rank identity

        r([[A, B L_D], [R_E C, 0]])
            = r([[A, B, 0], [C, 0, E], [0, D, 0]]) - r(D) - r(E)

    and return (lhs, rhs) as integers.  The two sides are computed by
    independent routes; the identity is used as a cross-check oracle.

    The projector products on the left side vanish in exact arithmetic
    whenever D (or E) has full column (row) rank, so rank decisions use
    an absolute noise floor scaled to the operand norms on top of the
    default relative tolerance.
    """
    eps = float(np.finfo(np.float64).eps)
    floor = 256.0 * eps * max([1.0] + [m.norm() for m in (a, b, c, d, e)])
    ld = pinv(d, tol, floor=floor).proj_left
    re = pinv(e, tol, floor=floor).proj_right
    lhs = rank(block([[a, b @ ld], [re @ c, None]]), tol, floor=floor)
    big = rank(block([[a, b, None], [c, None, e], [None, d, None]]),
               tol, floor=floor)
    rhs = big - rank(d, tol, floor=floor) - rank(e, tol, floor=floor)
    return lhs, rhs


def same_bits(a, b) -> bool:
    """Whether quaternion matrices ``a`` and ``b`` have one shape and the
    same bytes in both planes, so -0.0 and 0.0 differ."""
    return (a.shape == b.shape and a.a1.tobytes() == b.a1.tobytes()
            and a.a2.tobytes() == b.a2.tobytes())


def planes(sol):
    """Shape and bytes of each matrix of ``sol``."""
    return [(m.shape, m.a1.tobytes(), m.a2.tobytes()) for m in sol]


def equilibrated_root(inst):
    """The root of ``inst`` as ``check`` builds it, and k: ``inst``
    equilibrated at the exponents of its ``require()`` scan, then
    lifted."""
    scaled, k = families._equilibrated(inst, inst.require())
    return families._reduced(scaled)[0], k


def evict():
    """Fill the work slot with an unrelated instance, so the next call
    on any test instance is cold."""
    e = QMatrix.identity(1)
    qsylv.check(qsylv.TwoTermInstance(e, e, e, e, e))


# -- scalings -----------------------------------------------------------------

def scaled_rhs(inst, factor):
    """``inst`` with every right side multiplied by ``factor``."""
    return replace(inst, **{f: getattr(inst, f) * factor
                            for f in inst.rhs_names()})


def scaled_equations(inst, t, rhs_names):
    """``inst`` with each equation of ``rhs_names`` multiplied by t: its
    right side and each term's coefficient factor (the left one, or the
    right one if there is no left) by t, except the factor E of a term
    ``E W E^eta*``, which takes sqrt(t)."""
    scale = {}
    for rhs in rhs_names:
        scale[rhs] = t
        for left, _, right, _ in inst.TERMS[rhs]:
            scale[left or right] = (math.sqrt(t) if right == f"{left}^eta*"
                                    else t)
    return replace(inst, **{n: getattr(inst, n) * f
                            for n, f in scale.items()})


def coupling_defect(inst, seed, rel):
    """eta instance ``inst`` with a random anti-eta-Hermitian matrix,
    drawn from ``seed``, of ``rel`` times the norm of its coupling right
    side (its last) added to that side; ``require()`` accepts ``rel`` up
    to 1e-9."""
    name = inst.rhs_names()[-1]
    c = getattr(inst, name)
    r = rand_qmatrix(np.random.default_rng(seed), *c.shape)
    anti = r - r.eta_conj_transpose(inst.eta)
    return replace(inst, **{name: c + anti * (rel * c.norm() / anti.norm())})


# -- the corpus ---------------------------------------------------------------

# how far "moved" instances sit from their twin's base, as a fraction of
# the way to the twin: the residual form is closest to its threshold
MOVES = (1e-4, 1e-6, 1e-9, 1e-11, 1e-13)


def _degenerate(variant, count=12):
    """Planted instances whose named dimensions are each drawn from
    {0, 1, 2, 3}, so blocks, whole equations and twins can be empty, and
    each with a random perturbation of its coupling right side, made
    eta-Hermitian for an eta variant."""
    cls = VARIANT_TABLE[variant].instance_type
    names = sorted(VARIANT_TABLE[variant].dims(1))
    rng = np.random.default_rng(43)
    for seed in range(count):
        dims = dict(zip(names, (int(d) for d in rng.integers(0, 4,
                                                             len(names)))))
        eta = "ijk"[seed % 3]
        inst, _ = _planted(cls, dims, seed, eta)
        rhs = cls.rhs_names()[-1]
        c = getattr(inst, rhs)
        r = rand_qmatrix(rng, *c.shape)
        moved = c + r
        if cls.ETA_HERMITIAN:
            moved = moved + r.eta_conj_transpose(eta)
        twin = replace(inst, **{rhs: moved})
        yield f"degenerate {dims} {eta}", inst
        yield f"degenerate {dims} {eta} perturbed", twin


def corpus(variant, kinds=("planted", "twin"), sizes=(2,), seeds=(0,),
           etas=None, scales=(1.0,), defect=0.0):
    """``(label, instance)`` pairs of ``variant``.  For each size, seed
    and eta (``etas``, by default i, j and k, for an eta variant;
    always i for the others, whose instances do not depend on it), and
    each of ``kinds``:

    - "planted": ``gen_planted``, consistent by construction;
    - "zero": the planted instance with every right side zero;
    - "twin": ``gen_unsolvable``, its unsolvable twin;
    - "moved": the twin's base moved toward the twin by each d of
      ``MOVES``;

    each with the :func:`coupling_defect` of relative norm ``defect``
    (an eta variant's; drawn from the seed), if nonzero, and its right
    sides multiplied by every factor of ``scales``.  "degenerate" adds
    24 instances of random shapes of sizes 0 to 3 (:func:`_degenerate`).
    """
    etas = (etas or "ijk") if variant.startswith("eta") else "i"
    for size, seed, eta in itertools.product(sizes, seeds, etas):
        where = f"{size} {seed} {eta}"
        found = []
        if {"planted", "zero"} & set(kinds):
            planted, _ = gen_planted(variant, size, seed, eta)
        if "planted" in kinds:
            found.append(("planted", planted))
        if "zero" in kinds:
            found.append(("zero", scaled_rhs(planted, 0.0)))
        if {"twin", "moved"} & set(kinds):
            twin = gen_unsolvable(variant, size, seed, eta)
        if "twin" in kinds:
            found.append(("twin", twin))
        if "moved" in kinds:
            base, _ = VARIANT_TABLE[variant].planted(size, seed, eta,
                                                     twin=True)
            found += [(f"moved {d:g}", replace(base, **{
                n: getattr(base, n) + (getattr(twin, n) - getattr(base, n))
                * d for n in base.rhs_names()})) for d in MOVES]
        if defect:
            found = [(f"{kind} defect {defect:g}",
                      coupling_defect(inst, seed, defect))
                     for kind, inst in found]
        for (kind, inst), scale in itertools.product(found, scales):
            label = f"{kind} {where}" + (f" x{scale:g}" if scale != 1 else "")
            yield label, inst if scale == 1 else scaled_rhs(inst, scale)
    if "degenerate" in kinds:
        yield from _degenerate(variant)


# -- the counter --------------------------------------------------------------

class Event(NamedTuple):
    """One SVD or certificate: ``kind`` is "pinv" or "rank" for an SVD
    (with or without its factors) and "certificate" for a full-rank
    certificate tried; ``shape`` is that of the embedding; ``settled``
    is whether a certificate certified its grid (None for an SVD)."""

    kind: str
    shape: tuple
    thread: str
    settled: bool | None


KINDS = ("pinv", "rank", "certificate")


class Counter:
    """Records an :class:`Event` for every SVD qsylv takes through
    ``decomp._svd`` and every certificate it tries through
    ``decomp._full_rank``, from its creation on, on every thread."""

    def __init__(self, monkeypatch):
        self.events = []
        svd, full_rank = decomp._svd, decomp._full_rank

        def recorded_svd(m, **kwargs):
            kind = "pinv" if kwargs.get("compute_uv", True) else "rank"
            self._record(kind, m)
            return svd(m, **kwargs)

        def recorded_full_rank(m, floor):
            got = full_rank(m, floor)
            self._record("certificate", m, got)
            return got

        monkeypatch.setattr(decomp, "_svd", recorded_svd)
        monkeypatch.setattr(decomp, "_full_rank", recorded_full_rank)

    def _record(self, kind, m, settled=None):
        self.events.append(Event(kind, m.shape,
                                 threading.current_thread().name, settled))

    def take(self) -> list:
        """The events since the last take, which starts the record
        afresh."""
        events, self.events = self.events, []
        return events


def counts(events) -> tuple:
    """``(pinv SVDs, rank SVDs, certificates)`` among ``events``."""
    return tuple(sum(e.kind == kind for e in events) for kind in KINDS)


@pytest.fixture
def counter(monkeypatch):
    return Counter(monkeypatch)


def cold_check(inst, counter):
    """The report of a cold ``check`` of ``inst`` at tol 1e-9, and the
    events it took."""
    evict()
    counter.take()
    report = families.check(inst, 1e-9)
    return report, counter.take()


# -- the route switch ---------------------------------------------------------

def set_gates(monkeypatch, blas="1", cpus=2, min_entries=0):
    """Set the three gates of the rank helper: the BLAS thread variable,
    the CPUs allowed and the smallest embedding ranked on the helper;
    by default all open."""
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    if blas is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(decomp, "_HELPER_MIN_ENTRIES", min_entries)


def set_route(monkeypatch, name):
    """Change how ranks are settled until ``monkeypatch`` is undone:

    - "certificate": no grid is offered to the full-rank certificate;
    - "certificate-first": every grid of every rank list is offered to
      it first, the bordered grids also where the residual form holds;
    - "mirrors": no root is a mirror (``work.mirrored = False``), so a
      mirror is ranked as its grid;
    - "helper": every gate of the rank helper is open
      (:func:`set_gates`);
    - "serial": the helper's size gate is shut, so no grid reaches it
      whatever the BLAS thread setting.
    """
    if name in ("certificate", "certificate-first"):
        offer = name == "certificate-first"
        monkeypatch.setattr(families, "ranks", lambda grids, floor,
                            full_first: decomp.ranks(grids, floor, offer))
    elif name == "mirrors":
        root_work = families._root_work

        def unmirrored(*args):
            work = root_work(*args)
            work.mirrored = False
            return work

        monkeypatch.setattr(families, "_root_work", unmirrored)
    elif name == "helper":
        set_gates(monkeypatch)
    elif name == "serial":
        set_gates(monkeypatch, min_entries=1 << 62)
    else:
        raise ValueError(f"no route {name!r}")


@pytest.fixture
def route(monkeypatch):
    """``route(name)``: :func:`set_route` for the rest of the test."""
    return functools.partial(set_route, monkeypatch)
