"""The full-rank certificate moves no report.

``check`` offers the coefficient-only panels of a factorization's first
rank list to the full-rank certificate (``decomp._full_rank``), and the
bordered grids of a list exactly when its compatibility or residual
form has failed.  The certificate only picks how each rank is settled,
never its value.  So every report and every held panel rank must be
the same with the certificate off and with every grid of every list
offered to it (the ``route`` fixture), also the bordered grids of
lists whose residual form holds, which are rank-deficient; some
bordered grid must be offered, and every panel must be certified, so a
cold list takes fewer SVDs.  The corpus: all ten variants at sizes
1-4, seeds 0-2, eta i/j/k for the eta variants, planted instances,
their unsolvable twins and the twins' bases moved toward the twin by
d = 1e-4 ... 1e-13, where the residual form is closest to its
threshold.  The test takes about 20 s on a 2-vCPU x86-64 host.  The
helper thread certifies as the calling thread does; how a refused
panel is ranked is in ``tests/test_nested_panels.py``.
"""

import pytest

from qsylv.harness import VARIANTS, gen_planted, gen_unsolvable
from qsylv.solvers import families
from qsylv.solvers.families import Mirror

from tests.conftest import cold_check, corpus, evict

TOL = 1e-9


def _offered(work) -> int:
    """How many panels the first list of ``work`` offers to the
    certificate: all but the mirrors of a mirrored root."""
    return sum(not (work.mirrored and isinstance(x, Mirror))
               for _, _, rhs in work.rank_terms() for x in rhs
               if not isinstance(x, int))


def _cold(inst, counter):
    """A cold check's report, its held panel ranks, its rank SVDs and
    certificates in order, and how many panels it offered."""
    report, events = cold_check(inst, counter)
    work = families._SLOT[0]
    return (report.to_dict(), list(work.factors.panels),
            [e for e in events if e.kind != "pinv"], _offered(work))


@pytest.mark.parametrize("variant", VARIANTS)
def test_reports_equal_with_the_certificate_off_and_on(variant, counter,
                                                       route):
    cases = list(corpus(variant, ("planted", "twin", "moved"),
                        sizes=(1, 2, 3, 4), seeds=(0, 1, 2)))
    route("certificate-first")
    on = [_cold(inst, counter) for _, inst in cases]
    route("certificate")
    off = [_cold(inst, counter) for _, inst in cases]
    bordered = 0
    for (label, _), (report, panels, ranked, offered), o in zip(cases, on,
                                                               off):
        assert (report, panels) == o[:2], label
        assert {e.kind for e in o[2]} <= {"rank"}, label
        assert [(e.kind, e.settled) for e in ranked[:offered]] == [
            ("certificate", True)] * offered, label
        bordered += sum(e.kind == "certificate" for e in ranked[offered:])
        if offered:
            assert sum(e.kind == "rank" for e in ranked) < len(o[2]), label
    assert bordered > 0
    assert any(r[0]["consistent"] for r in off)
    assert any(not r[0]["consistent"] for r in off)


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_twin_check_runs_the_certificate(variant, counter):
    """``check`` offers the bordered grids to the certificate on a twin,
    whose residual form fails, and not on its planted instance: a second
    check, which reads the held panel ranks, tries certificates on the
    twin alone."""
    planted, _ = gen_planted(variant, 2, 0, "j")
    twin = gen_unsolvable(variant, 2, 0, "j", TOL)
    for inst, runs in ((planted, False), (twin, True)):
        evict()
        report = families.check(inst, TOL)
        counter.take()
        families.check(inst, TOL)
        tried = [e for e in counter.take() if e.kind == "certificate"]
        assert bool(tried) == runs, variant
        assert report.consistent != runs


def test_the_helper_thread_certifies_as_the_caller_does(counter, route):
    """With every helper gate open, the largest grid of each list is
    offered to the certificate on the helper thread; the twins' reports
    equal those with the certificate off."""
    cases = [gen_unsolvable(variant, size, 1, "k", TOL)
             for variant in ("master", "eta-full", "two-term", "five-term")
             for size in (2, 4)]
    route("helper")
    on = [cold_check(inst, counter) for inst in cases]
    route("certificate")
    off = [cold_check(inst, counter)[0].to_dict() for inst in cases]
    assert [report.to_dict() for report, _ in on] == off
    assert {e.thread for _, events in on for e in events
            if e.kind == "certificate"} == {"MainThread", "qsylv-rank"}
