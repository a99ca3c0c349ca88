"""Ranks read off mirrors on the root of an eta lift.

The eta lifts double a system: eta-full, eta-three and eta-mixed onto
the master system with B_i = A_i^eta*, D_i = C_i^eta* and F_i =
E_i^eta*, eta-two onto two-term with D3 = C3^eta* and D4 = C4^eta*.
Equilibration shifts each such pair alike, so the root stays an exact
mirror, and the rank list takes each grid marked as a
``decomp.Mirror`` (master's side r(D;B) grids, R5-R8 and R8's right
panel; two-term's second and fourth grids and the second's panel) at
its twin's rank, without an SVD.  The reports must equal those of
ranking every grid directly, the mirrored blocks must stay bit-exact
mirrors through equilibration, a root that is no mirror must keep its
shifts, and no marked grid may reach the rank helper.
"""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from qsylv import decomp
from qsylv.decomp import Mirror, SubGrid
from qsylv.harness import gen_planted, gen_unsolvable
from qsylv.qmatrix import rand_qmatrix
from qsylv.solvers import families
from qsylv.solvers.families import _mirrors, _reduced, max_exponents

from tests.test_equilibration import _scaled_equations
from tests.test_nested_panels import _direct, _svd_calls
from tests.test_rank_helper import _gates
from tests.test_shared_work import _evict, _planes, _scaled

TOL = 1e-9
ETA_VARIANTS = ("eta-full", "eta-three", "eta-mixed", "eta-two")
SCALES = (1e-8, 1.0, 1e8)


def _cold(inst, shapes):
    """A cold check's report and its rank SVD count."""
    _evict()
    shapes.clear()
    report = families.check(inst, TOL).to_dict()
    return report, len(shapes)


def _instances(variant):
    """The instances of ``tests/test_nested_panels.py`` at every eta,
    with the right sides scaled by 1e-8, 1 and 1e8."""
    for size in (1, 2, 3, 4, 8):
        for eta in ("i", "j", "k"):
            planted, _ = gen_planted(variant, size, 0, eta)
            twin = gen_unsolvable(variant, size, 0, eta)
            for truth, inst in (("planted", planted), ("unsolvable", twin)):
                for scale in SCALES:
                    yield (f"{truth} {size} {eta} x{scale:g}",
                           _scaled(variant, inst, scale))


def _with_defect(inst, seed, rel):
    """``inst`` with an anti-eta-Hermitian defect of ``rel`` times the
    norm of its coupling right side added to it."""
    rng = np.random.default_rng(seed)
    r = rand_qmatrix(rng, *inst.Cc.shape)
    anti = r - r.eta_conj_transpose(inst.eta)
    return replace(inst, Cc=inst.Cc + anti * (rel * inst.Cc.norm()
                                              / anti.norm()))


def _compare(cases):
    with pytest.MonkeyPatch.context() as mp:
        shapes = _svd_calls(mp)
        mirrored = [_cold(inst, shapes) for _, inst in cases]
        _direct(mp)
        direct = [_cold(inst, shapes) for _, inst in cases]
    for (label, _), m, d in zip(cases, mirrored, direct):
        assert m[0] == d[0], label
        assert m[1] < d[1], label
    return [report for report, _ in direct]


@pytest.mark.parametrize("variant", ETA_VARIANTS)
def test_mirrored_ranks_equal_direct_ones(variant):
    reports = _compare(list(_instances(variant)))
    assert any(not r["consistent"] for r in reports)
    assert any(r["consistent"] for r in reports)


def test_an_accepted_coupling_defect_leaves_the_mirrors_equal():
    """A coupling right side 1e-11 (relative) off eta-Hermitian passes
    the precondition, so the root's K differs from its mirror in R5-R8
    by that much; the ranks still equal the direct ones."""
    cases = []
    for size in (1, 2, 4, 8):
        for eta in ("i", "j", "k"):
            for seed in (0, 1):
                planted, _ = gen_planted("eta-full", size, seed, eta)
                twin = gen_unsolvable("eta-full", size, seed, eta)
                cases += [(f"{size} {eta} {seed} {i}",
                           _with_defect(inst, seed, 1e-11))
                          for i, inst in enumerate((planted, twin))]
    _compare(cases)


def _root(inst):
    """The equilibrated root of a cold check of ``inst``, and its
    work."""
    _evict()
    families.check(inst, TOL)
    work = families._SLOT[0]
    return work.inst, work


@pytest.mark.parametrize("variant", ETA_VARIANTS)
@pytest.mark.parametrize("eta", ["i", "j", "k"])
def test_the_mirror_survives_equilibration(variant, eta):
    mirrors = _mirrors(type(gen_planted(variant, 1, 0, eta)[0]))
    assert len(mirrors) == (2 if variant == "eta-two" else 12)
    for size in (1, 2, 3):
        planted, _ = gen_planted(variant, size, 0, eta)
        twin = gen_unsolvable(variant, size, 0, eta)
        for inst in (planted, twin):
            names = inst.rhs_names()
            for t in (1e-300, 1e-7, 1.0, 3e5, 1e300):
                for scaled in (_scaled(variant, inst, t),
                               _scaled_equations(inst, t, names),
                               _scaled_equations(inst, t, names[-1:])):
                    root, work = _root(scaled)
                    assert work.mirrored
                    for block, twin_block in mirrors.items():
                        mirror = getattr(root, twin_block).eta_conj_transpose(
                            eta)
                        assert _planes([getattr(root, block)]) == _planes(
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
    inst = replace(_scaled("master", inst, 1e8), F2=inst.F2 * 2.0 ** 20,
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


def test_a_mirror_takes_its_twins_rank_without_an_svd(rand_q, monkeypatch):
    a = rand_q(5, 3)
    twin = [[a]]
    mirror = Mirror([[a.eta_conj_transpose("j")]], twin)
    shapes = _svd_calls(monkeypatch)
    assert decomp.ranks([twin, mirror], 0.0) == [3, 3]
    assert len(shapes) == 1
    # a twin that is not in the list leaves the mirror to be ranked
    shapes.clear()
    assert decomp.ranks([mirror, [[rand_q(2, 2)]]], 0.0) == [3, 2]
    assert len(shapes) == 2


def test_a_mirrored_full_grid_lends_its_margin(rand_q, monkeypatch):
    """Row sub-grids of a mirrored full grid are read off its twin's
    singular values, with the twin's columns as the mirror's rows."""
    a, b = rand_q(7, 2), rand_q(7, 3)
    full = [[a.eta_conj_transpose("i")], [b.eta_conj_transpose("i")]]
    twin = [[a, b]]
    grids = [twin, Mirror(full, twin), SubGrid([full[0]], full, 0),
             SubGrid([full[1]], full, 0)]
    shapes = _svd_calls(monkeypatch)
    assert decomp.ranks(grids, 0.0) == [5, 5, 2, 3]
    assert len(shapes) == 1
    monkeypatch.setattr(decomp, "_SUBGRID_MARGIN", math.inf)
    shapes.clear()
    assert decomp.ranks(grids, 0.0) == [5, 5, 2, 3]
    assert len(shapes) == 3


def test_no_mirror_reaches_the_helper(rand_q, monkeypatch):
    """With every gate open the helper ranks the largest grid that is
    no mirror; a mirror is never embedded, even one laid out larger than
    every other grid, and takes its twin's rank once the helper is
    joined."""
    small, twin = [[rand_q(2, 2)]], [[rand_q(6, 4)]]
    mirror = Mirror([[rand_q(9, 9)]], twin)
    _gates(monkeypatch)
    threads, svdvals = [], decomp._svdvals

    def recorded(m):
        threads.append((threading.current_thread().name, m.shape))
        return svdvals(m)

    monkeypatch.setattr(decomp, "_svdvals", recorded)
    assert decomp.ranks([small, mirror, twin], 0.0) == [2, 4, 4]
    assert sorted(threads) == [("MainThread", (4, 4)),
                               ("qsylv-rank", (12, 8))]


def test_a_lift_without_mirrors_marks_nothing():
    for variant in ("master", "five-term", "three-term", "mixed",
                    "two-term", "pair"):
        inst, _ = gen_planted(variant, 2, 0)
        assert _mirrors(type(inst)) == {}
        assert not _root(inst)[1].mirrored
