"""check_* and solve_* on one instance share one reduction, and
instances with equal coefficients share its factorization.

The solvers keep the work of the last instance in one slot keyed by its
content (``solvers.families.shared_work``); a new right side over equal
coefficients gets a new right-side pass on the held factorization.  A
warm call must give exactly what a cold one gives, in either order; an
instance whose coefficients are edited in place must miss; and a family
or deferred rank list handed out must not see a later edit of the
instance whose work it shares.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qsylv
from qsylv import QMatrix
from qsylv.harness import (VARIANT_TABLE, VARIANTS, DimensionProfile,
                           gen_consistent, gen_planted, gen_unsolvable)
from qsylv.solvers import basic, families, master, two_term
from qsylv.solvers.families import Inconsistent, _reduced, check, solve

from tests.test_decision import _SvdCounter

TOL = 1e-9
SCALES = (1e-8, 1.0, 1e8)


def _evict():
    """Fill the slot with an unrelated instance, so the next call on
    any test instance is cold."""
    e = QMatrix.identity(1)
    qsylv.check_two_term(e, e, e, e, e)


def _scaled(variant, inst, factor):
    rhs = VARIANT_TABLE[variant].instance_type.rhs_names()
    return replace(inst, **{f: getattr(inst, f) * factor for f in rhs})


def _planes(sol):
    return [(m.shape, m.a1.tobytes(), m.a2.tobytes()) for m in sol]


def _solved(res):
    """What a solve result shows: the report, or the particular solution
    and one seeded random member, as bytes."""
    if isinstance(res, Inconsistent):
        return ("inconsistent", res.report.to_dict())
    rng = np.random.default_rng(7)
    return ("family", _planes(res.assemble()),
            _planes(res.assemble(res.random_params(rng))))


def _cold(inst):
    _evict()
    report = check(inst, TOL).to_dict()
    _evict()
    return report, _solved(solve(inst, TOL))


def _cases(variant):
    planted, _ = gen_planted(variant, 2, 0, "j")
    for truth, inst in (("planted", planted),
                        ("unsolvable", gen_unsolvable(variant, 2, 0, "j"))):
        for scale in SCALES:
            yield f"{truth} x{scale:g}", _scaled(variant, inst, scale)


@pytest.mark.parametrize("variant", VARIANTS)
def test_warm_calls_equal_cold_calls(variant, monkeypatch):
    counter = _SvdCounter(monkeypatch)
    for label, inst in _cases(variant):
        cold = _cold(inst)

        _evict()
        report = check(inst, TOL).to_dict()
        counter.take()
        solved = _solved(solve(inst, TOL))
        assert counter.take()[0] == 0, (label, "solve after check")
        assert (report, solved) == cold, label

        _evict()
        solved = _solved(solve(inst, TOL))
        counter.take()
        report = check(inst, TOL).to_dict()
        assert counter.take()[0] == 0, (label, "check after solve")
        assert (report, solved) == cold, label


def test_warm_master_svd_counts(monkeypatch):
    planted, _ = gen_consistent(DimensionProfile.cube(2, 1))
    _evict()
    counter = _SvdCounter(monkeypatch)
    # 17 bordered matrices; the 18 panels are settled by the full-rank
    # certificate
    qsylv.check_master(planted)
    # 34 pinv bundles, 3 shared within the vw3 kernel
    assert counter.take() == (31, 17)
    assert counter.take_certificates() == 18
    family = qsylv.solve_master(planted)
    assert not isinstance(family, Inconsistent)
    family.assemble()
    assert counter.take() == (0, 0)

    _evict()
    counter.take()
    counter.take_certificates()
    qsylv.solve_master(planted)
    assert counter.take() == (31, 0)
    qsylv.check_master(planted)
    assert counter.take() == (0, 17)
    assert counter.take_certificates() == 18


def test_eta_full_hits_through_the_lift(monkeypatch):
    inst, _ = gen_planted("eta-full", 2, 0, "k")
    _evict()
    counter = _SvdCounter(monkeypatch)
    assert not isinstance(qsylv.solve_eta_full(inst), Inconsistent)
    pinvs, _ = counter.take()
    assert pinvs > 0
    report = qsylv.check_eta_full(inst)
    assert report.consistent
    # master's 17 bordered grids less the 8 read off mirrors: the r(D;B)
    # grid of each of the four side pairs and R5-R8; of the 18 panels,
    # the right ones of R1-R8 are mirrors and the other 10 are certified
    assert counter.take() == (0, 9)
    assert counter.take_certificates() == 10


def test_eta_two_check_after_solve_ranks_one_half(monkeypatch):
    inst, _ = gen_planted("eta-two", 2, 0, "k")
    _evict()
    counter = _SvdCounter(monkeypatch)
    assert not isinstance(solve(inst, TOL), Inconsistent)
    assert counter.take() == (7, 0)
    assert check(inst, TOL).consistent
    # two-term's 4 grids, less the mirrors of the first and third, and
    # its 2 panels, less the mirror of the first, which is certified
    assert counter.take() == (0, 2)
    assert counter.take_certificates() == 1


def test_in_place_edit_misses(monkeypatch):
    """An in-place edit of a right side misses the work but reuses its
    factorization; an edit of a coefficient block misses both."""
    inst, _ = gen_consistent(DimensionProfile.cube(2, 2))
    counter = _SvdCounter(monkeypatch)
    for block, pinvs in (("C2", 0), ("A2", 31)):
        _evict()
        qsylv.check_master(inst)
        getattr(inst, block).a1[0, 0] += 1.0
        counter.take()
        solved = _solved(qsylv.solve_master(inst))
        assert counter.take()[0] == pinvs, block
        report = qsylv.check_master(inst).to_dict()
        assert (report, solved) == _cold(inst), block


@pytest.mark.parametrize("variant", VARIANTS)
def test_cold_work_shares_no_memory_with_the_caller(variant):
    """A cold build copies the blocks that equilibration left as they
    were and keeps the scaled ones, which are new arrays."""
    for _, inst in _cases(variant):
        _evict()
        check(inst, TOL)
        held = [p for m in families._SLOT[0].inst.blocks()
                for p in (m.a1, m.a2)]
        for m in inst.blocks():
            for plane in (m.a1, m.a2):
                assert not any(np.shares_memory(plane, p) for p in held)


def test_right_side_change_reuses_factorization(monkeypatch):
    planted, _ = gen_consistent(DimensionProfile.cube(2, 1))
    _evict()
    counter = _SvdCounter(monkeypatch)
    qsylv.check_master(planted)
    assert counter.take() == (31, 17)
    assert counter.take_certificates() == 18
    for factor in SCALES:
        scaled = _scaled("master", planted, factor * 3.0)
        qsylv.solve_master(scaled)
        assert counter.take() == (0, 0)
        # the 18 panel ranks are known; the 17 that read a right side
        # are taken again
        qsylv.check_master(scaled)
        assert counter.take() == (0, 17)
        assert counter.take_certificates() == 0


@pytest.mark.parametrize("variant, panels, grids", [
    ("pair", 0, 2), ("two-term", 2, 4), ("five-term", 18, 9),
    ("master", 18, 17)])
def test_a_ranks_call_for_the_panels_and_one_for_the_rest(
        variant, panels, grids, monkeypatch):
    """The coefficient-only panels of a rank list are ranked only on the
    first list of a factorization, in one ``decomp.ranks`` call that
    offers each to the full-rank certificate; every other rank of a
    list is taken in one more call.  On a planted instance the panels
    are all certified, and the bordered grids take SVDs."""
    planted, _ = gen_planted(variant, 2, 0)
    calls, ranks = [], families.ranks

    def recorded(grids, floor, full_first):
        calls.append((len(grids), full_first))
        return ranks(grids, floor, full_first)

    monkeypatch.setattr(families, "ranks", recorded)
    _evict()
    counter = _SvdCounter(monkeypatch)
    calls.clear()
    check(planted, TOL)
    assert calls == [(panels, True), (grids, False)]
    assert (counter.take()[1], counter.take_certificates()) == (grids,
                                                                panels)
    calls.clear()
    check(_scaled(variant, planted, 3.0), TOL)
    assert calls == [(grids, False)]
    assert (counter.take()[1], counter.take_certificates()) == (grids, 0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_passes_on_held_factorization_equal_cold_calls(variant, monkeypatch):
    """All cases in order without eviction: every call after the first
    on one set of coefficients takes no pinv SVD, and every result
    equals a cold call's."""
    coefficients = VARIANT_TABLE[variant].instance_type.coefficient_names()
    cases = list(_cases(variant))
    cold = {label: _cold(inst) for label, inst in cases}
    _evict()
    counter = _SvdCounter(monkeypatch)
    previous = None
    for label, inst in cases:
        shared = previous is not None and all(
            _planes([getattr(previous, n)]) == _planes([getattr(inst, n)])
            for n in coefficients)
        counter.take()
        solved = _solved(solve(inst, TOL))
        pinvs = counter.take()[0]
        report = check(inst, TOL).to_dict()
        assert (report, solved) == cold[label], label
        if shared:
            assert pinvs == 0, label
        previous = inst


def _bundles(inst) -> list:
    """rank, tol_used and component bytes of every pinv bundle a cold
    reduction of ``inst`` builds, in order."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        for mod in (basic, two_term, master):
            def recorded(m, *args, real=mod.pinv, **kwargs):
                b = real(m, *args, **kwargs)
                out.append((b.rank, b.tol_used,
                            _planes([b.pinv, b.proj_left, b.proj_right])))
                return b
            mp.setattr(mod, "pinv", recorded)
        root, _ = _reduced(inst)
        root.WORK(root)
    return out


@settings(max_examples=40, deadline=None)
@given(variant=st.sampled_from(VARIANTS), seed=st.integers(0, 3),
       exponent=st.floats(-12.0, 12.0))
def test_pinv_bundles_ignore_right_side_scale(variant, seed, exponent):
    """Every pinv bundle of a reduction is a function of the
    coefficients alone, also in its truncation floor."""
    inst, _ = gen_planted(variant, 2, seed, "j")
    base = _bundles(inst)
    assert base
    assert _bundles(_scaled(variant, inst, 10.0 ** exponent)) == base


@pytest.mark.parametrize("variant", ("master", "five-term", "two-term"))
def test_equal_content_shares_work_but_not_edits(variant, monkeypatch):
    planted, _ = gen_planted(variant, 2, 0)
    twin = gen_unsolvable(variant, 2, 1)
    counter = _SvdCounter(monkeypatch)
    for first in (planted, twin):
        expected = _cold(first)[1]
        second = first.copy()
        _evict()
        check(first, TOL)
        counter.take()
        res = solve(second, TOL)
        assert counter.take()[0] == 0
        # the family and the deferred rank list of the second instance
        # do not read the first one's matrices
        for m in first.blocks():
            for plane in m.components():
                plane[...] = 0.0
        assert _solved(res) == expected


def test_threads_never_get_another_instances_work():
    # each base also scaled: instances that share their coefficients
    # but not their right sides
    variants = ("two-term", "five-term", "master", "eta-two")
    cases = [_scaled(v, inst, factor) for v in variants
             for inst in (gen_planted(v, 1, 0)[0], gen_unsolvable(v, 1, 0))
             for factor in (1.0, 1e4)]
    expected = [_cold(inst) for inst in cases]
    failures = []

    def worker(offset):
        for k in range(40):
            i = (offset + k) % len(cases)
            inst = cases[i]
            try:
                if k % 2:
                    got = (check(inst, TOL).to_dict(),
                           _solved(solve(inst, TOL)))
                else:
                    solved = _solved(solve(inst, TOL))
                    got = (check(inst, TOL).to_dict(), solved)
            except Exception as exc:
                got = exc
            if got != expected[i]:
                failures.append((i, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
