"""Ranks read off mirrors on the root of an eta lift.

The eta lifts double a system: eta-full, eta-three and eta-mixed onto
the master system with B_i = A_i^eta*, D_i = C_i^eta* and F_i =
E_i^eta*, eta-two onto two-term with D3 = C3^eta* and D4 = C4^eta*.
The caller's instance is equilibrated before the lift, which writes
each doubled block from its scaled twin, so the root is an exact
mirror.  The works mark grids as ``families.Mirror`` s (master's side
r(D;B) grids, R5-R8 and the right panels of R1-R8; two-term's second
and fourth grids and the second's panel), and on such a root
``families._rank_list`` gives each its twin's rank, with no SVD or
certificate; no mirror reaches ``decomp.ranks``.  The doubled blocks
must stay bit-exact mirrors through equilibration, and a root that is
no mirror must keep its shifts.  That the reports equal those of
ranking every grid by SVD, also on degenerate shapes and with an
accepted defect, is the contract of ``tests/test_routes.py``.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from qsylv import decomp
from qsylv.harness import (VARIANT_TABLE, VARIANTS, gen_planted,
                           gen_unsolvable)
from qsylv.solvers import families
from qsylv.solvers.families import (ETA_STAR, Mirror, _rank_list, _reduced,
                                    max_exponents)

from tests.conftest import (counts, evict, planes, scaled_equations,
                            scaled_rhs)

TOL = 1e-9
ETA_VARIANTS = ("eta-full", "eta-three", "eta-mixed", "eta-two")


def _root(inst):
    """The equilibrated root of a cold check of ``inst``, and its
    work."""
    evict()
    families.check(inst, TOL)
    work = families._SLOT[0]
    return work.inst, work


def _doubled(cls) -> dict:
    """The blocks of the root ``cls`` lifts onto that its last lift
    writes as the eta-conjugate transpose of another root block, each
    mapped to that block (``{"B1": "A1", ...}``), read off the ``LIFT``
    tables; empty for a type that is not lifted or whose last lift
    doubles nothing."""
    if cls.LIFT is None:
        return {}
    while cls.LIFT[0].WORK is None:
        cls = cls.LIFT[0]
    # a slot of one name is that block or its eta-conjugate transpose
    slots = {k: own for k, (own, *rest) in cls.LIFT[1].items() if not rest}
    plain = {own: k for k, own in slots.items() if not own.endswith(ETA_STAR)}
    return {k: plain[own.removesuffix(ETA_STAR)] for k, own in slots.items()
            if own.endswith(ETA_STAR)}


@pytest.mark.parametrize("variant", ETA_VARIANTS)
@pytest.mark.parametrize("eta", ["i", "j", "k"])
def test_the_mirror_survives_equilibration(variant, eta):
    mirrors = _doubled(VARIANT_TABLE[variant].instance_type)
    assert len(mirrors) == (2 if variant == "eta-two" else 12)
    for size in (1, 2, 3):
        planted, _ = gen_planted(variant, size, 0, eta)
        twin = gen_unsolvable(variant, size, 0, eta)
        for inst in (planted, twin):
            names = inst.rhs_names()
            for t in (1e-300, 1e-7, 1.0, 3e5, 1e300):
                for scaled in (scaled_rhs(inst, t),
                               scaled_equations(inst, t, names),
                               scaled_equations(inst, t, names[-1:])):
                    root, work = _root(scaled)
                    assert work.mirrored
                    for block, twin_block in mirrors.items():
                        mirror = getattr(root, twin_block).eta_conj_transpose(
                            eta)
                        assert planes([getattr(root, block)]) == planes(
                            [mirror]), (size, t, block)


def _shifts(inst):
    """The exponent each root block was shifted by, for the blocks that
    moved, and k."""
    root, work = _root(inst)
    before = max_exponents(_reduced(inst)[0].blocks())
    after = max_exponents(root.blocks())
    return {n: a - b for n, a, b in zip(root.block_names(), after, before)
            if a is not None and a != b}, work.k


def test_a_root_that_is_no_mirror_keeps_its_shifts():
    """Shifts and k as before the pair rule, pinned: E2 X F2 and
    C3 X3 D3 take the exponent of their left factor alone, however
    large F2 and D3 are, and F2, D3 and D4 are not shifted."""
    inst, _ = gen_planted("master", 2, 0)
    inst = replace(scaled_rhs(inst, 1e8), F2=inst.F2 * 2.0 ** 20,
                   E3=inst.E3 * 2.0 ** -9)
    assert not _root(inst)[1].mirrored
    assert _shifts(inst) == ({
        "A1": -2, "A2": -2, "A3": -2, "A4": -2, "B1": -1, "B2": -2,
        "B3": -1, "B4": -2, "C1": -32, "C2": -32, "C3": -32, "C4": -32,
        "D1": -31, "D2": -32, "D3": -31, "D4": -32, "E1": -2, "E2": -2,
        "E3": -2, "E4": -2, "F1": -2, "Cc": -32}, 30)
    inst, _ = gen_planted("two-term", 2, 0)
    inst = replace(inst, D3=inst.D3 * 2.0 ** 20, E1=inst.E1 * 1e-8)
    assert not _root(inst)[1].mirrored
    assert _shifts(inst) == ({"C3": -2, "C4": -2, "E1": 20}, -22)


def _work(terms, mirrored):
    """A work with these rank terms and no panel ranks held yet."""
    return SimpleNamespace(rank_terms=lambda: terms, mirrored=mirrored,
                           factors=SimpleNamespace(floor=0.0))


def test_a_mirror_takes_its_twins_rank_without_an_svd(rand_q, counter):
    a, b = rand_q(5, 3), rand_q(4, 2)
    twin, panel = [[a]], [[b]]
    terms = [("twin", twin, (panel,)),
             ("mirror", Mirror([[a.eta_conj_transpose("j")]], twin),
              (Mirror([[b.eta_conj_transpose("j")]], panel),))]
    got = []
    for mirrored in (True, False):
        ranked = _rank_list(_work(terms, mirrored), False)
        got.append(([(c.lhs, c.rhs) for c in ranked],
                    counts(counter.take())))
    # the twin takes an SVD and its panel a certificate; a root that is
    # no mirror ranks each mirror as its grid
    assert got == [([(3, 2), (3, 2)], (0, 1, 1)),
                   ([(3, 2), (3, 2)], (0, 2, 2))]


def test_no_mirror_reaches_the_helper(monkeypatch, counter, route):
    """``decomp.ranks``, which alone starts the helper, never receives a
    mirror: with every gate open, a cold check of every variant lays out
    plain grids only, though the works it reaches mark mirrors (the
    master and two-term works on every root), and the helper runs."""
    laid, block_grid = [], decomp.BlockGrid

    def recorded(grid):
        laid.append(grid)
        return block_grid(grid)

    monkeypatch.setattr(decomp, "BlockGrid", recorded)
    route("helper")
    for variant in VARIANTS:
        inst, _ = gen_planted(variant, 2, 0, "k")
        laid.clear()
        _, work = _root(inst)
        assert laid and not any(isinstance(g, Mirror) for g in laid), variant
        terms = [x for _, grid, rhs in work.rank_terms()
                 for x in (grid, *rhs)]
        assert any(isinstance(x, Mirror) for x in terms) == (
            variant != "pair"), variant
    assert any(e.thread == "qsylv-rank" for e in counter.take())
    assert not hasattr(decomp, "Mirror")


def test_a_lift_without_mirrors_marks_nothing():
    """A root is mirrored exactly when the caller's type has eta-Hermitian
    unknowns, which is exactly when its last lift doubles blocks."""
    for variant in VARIANTS:
        inst, _ = gen_planted(variant, 2, 0)
        mirrored = variant in ETA_VARIANTS
        assert bool(_doubled(type(inst))) == mirrored, variant
        assert _root(inst)[1].mirrored == mirrored, variant
