"""check_* and solve_* on one instance share one reduction, and
instances with equal coefficients share its factorization.

The solvers keep the work of the last instance in one slot keyed by its
content (``solvers.families.shared_work``); a new right side over equal
coefficients gets a new right-side pass on the held factorization.  A
warm call must give exactly what a cold one (after ``evict``) gives, in
either order, and takes no pinv SVD; an instance whose coefficients
are edited in place must miss; and a family or deferred rank list
handed out must not see a later edit of the instance whose work it
shares.
What each call costs is pinned in ``tests/test_counts.py``.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsylv.harness import (VARIANT_TABLE, VARIANTS, gen_planted,
                           gen_unsolvable)
from qsylv.solvers import basic, families, master, two_term
from qsylv.solvers.families import Inconsistent, _reduced, check, solve

from tests.conftest import corpus, counts, evict, planes, scaled_rhs

TOL = 1e-9
SCALES = (1e-8, 1.0, 1e8)


def _solved(res):
    """What a solve result shows: the report, or the particular solution
    and one seeded random member, as bytes."""
    if isinstance(res, Inconsistent):
        return ("inconsistent", res.report.to_dict())
    rng = np.random.default_rng(7)
    return ("family", planes(res.assemble()),
            planes(res.assemble(res.random_params(rng))))


def _cold(inst):
    evict()
    report = check(inst, TOL).to_dict()
    evict()
    return report, _solved(solve(inst, TOL))


def _cases(variant):
    return corpus(variant, etas="j", scales=SCALES)


def _run(inst, order, counter):
    """The report and the solve result of ``inst`` from calls in
    ``order``, and the pinv SVDs of each call."""
    out, pinvs = {}, []
    for call in order:
        counter.take()
        out[call] = (check(inst, TOL).to_dict() if call == "check"
                     else _solved(solve(inst, TOL)))
        pinvs.append(counts(counter.take())[0])
    return (out["check"], out["solve"]), pinvs


def _equal_cold_calls(warm, cases):
    """Each of ``warm``'s ``(label, result)`` equals that of cold
    calls."""
    cold = {label: _cold(inst) for label, inst in cases}
    for label, got in warm:
        assert got == cold[label], label


@pytest.mark.parametrize("variant", VARIANTS)
def test_warm_calls_equal_cold_calls(variant, counter):
    """Each case checked then solved, and solved then checked, from
    cold: the second call, on held work, takes no pinv SVD, and both
    results equal those of cold calls."""
    cases = list(_cases(variant))
    warm = []
    for label, inst in cases:
        for order in (("check", "solve"), ("solve", "check")):
            evict()
            got, pinvs = _run(inst, order, counter)
            assert pinvs[1] == 0, (label, order)
            warm.append((label, got))
    _equal_cold_calls(warm, cases)


@pytest.mark.parametrize("variant", VARIANTS)
def test_passes_on_held_factorization_equal_cold_calls(variant, counter):
    """All cases in order without eviction, so most calls run on the
    factorization of the case before: every call after the first on one
    set of coefficients takes no pinv SVD, and every result equals a
    cold call's."""
    coefficients = VARIANT_TABLE[variant].instance_type.coefficient_names()
    cases = list(_cases(variant))
    warm, previous = [], None
    evict()
    for label, inst in cases:
        shared = previous is not None and all(
            planes([getattr(previous, n)]) == planes([getattr(inst, n)])
            for n in coefficients)
        got, pinvs = _run(inst, ("solve", "check"), counter)
        assert pinvs[1] == 0, label
        assert pinvs[0] == 0 or not shared, label
        warm.append((label, got))
        previous = inst
    _equal_cold_calls(warm, cases)


def test_in_place_edit_misses(counter):
    """An in-place edit of a right side misses the work but reuses its
    factorization; an edit of a coefficient block misses both, and takes
    the pinv SVDs of a cold solve."""
    inst, _ = gen_planted("master", 2, 2)
    evict()
    counter.take()
    solve(inst)
    cold = counts(counter.take())[0]
    for block, pinvs in (("C2", 0), ("A2", cold)):
        evict()
        check(inst)
        getattr(inst, block).a1[0, 0] += 1.0
        counter.take()
        solved = _solved(solve(inst))
        assert counts(counter.take())[0] == pinvs, block
        report = check(inst).to_dict()
        assert (report, solved) == _cold(inst), block


@pytest.mark.parametrize("variant", VARIANTS)
def test_cold_work_shares_no_memory_with_the_caller(variant):
    """A cold build copies the blocks that equilibration left as they
    were and keeps the scaled ones, which are new arrays."""
    for _, inst in _cases(variant):
        evict()
        check(inst, TOL)
        held = [p for m in families._SLOT[0].inst.blocks()
                for p in (m.a1, m.a2)]
        for m in inst.blocks():
            for plane in (m.a1, m.a2):
                assert not any(np.shares_memory(plane, p) for p in held)


def _bundles(inst) -> list:
    """rank, tol_used and component bytes of every pinv bundle a cold
    reduction of ``inst`` builds, in order."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        for mod in (basic, two_term, master):
            def recorded(m, *args, real=mod.pinv, **kwargs):
                b = real(m, *args, **kwargs)
                out.append((b.rank, b.tol_used,
                            planes([b.pinv, b.proj_left, b.proj_right])))
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
    assert _bundles(scaled_rhs(inst, 10.0 ** exponent)) == base


@pytest.mark.parametrize("variant", ("master", "five-term", "two-term"))
def test_equal_content_shares_work_but_not_edits(variant, counter):
    planted, _ = gen_planted(variant, 2, 0)
    twin = gen_unsolvable(variant, 2, 1)
    for first in (planted, twin):
        expected = _cold(first)[1]
        second = first.copy()
        evict()
        check(first, TOL)
        counter.take()
        res = solve(second, TOL)
        assert counts(counter.take())[0] == 0
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
    cases = [scaled_rhs(inst, factor) for v in variants
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
