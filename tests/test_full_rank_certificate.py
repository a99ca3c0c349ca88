"""The full-rank certificate moves no report.

``check`` offers the bordered grids of a rank list to the full-rank
certificate exactly when its compatibility or residual form has failed,
and the coefficient-only panels of a cold list always; the certificate
only picks how each rank is settled, never its value.  So every report
must be the same with it forced off and forced on for the bordered
grids, and every panel must be certified, on every list: all ten
variants at sizes 1-4, seeds 0-2, eta i/j/k for the eta variants,
planted instances, their unsolvable twins, and the twins' bases moved
toward the twin by d = 1e-4 ... 1e-13, where the residual form is
closest to its threshold.  The test takes about 20 s on a
2-vCPU x86-64 host.
"""

import threading
from dataclasses import replace

import pytest

from qsylv import decomp
from qsylv.harness import VARIANT_TABLE, VARIANTS, gen_planted, gen_unsolvable
from qsylv.solvers import families

from tests.test_rank_helper import _gates
from tests.test_shared_work import _evict

TOL = 1e-9
MOVES = (1e-4, 1e-6, 1e-9, 1e-11, 1e-13)


def _instances(variant):
    etas = ("i", "j", "k") if variant.startswith("eta") else ("i",)
    for size in (1, 2, 3, 4):
        for seed in (0, 1, 2):
            for eta in etas:
                label = f"{variant} {size} {seed} {eta}"
                yield f"planted {label}", gen_planted(variant, size, seed,
                                                      eta)[0]
                twin = gen_unsolvable(variant, size, seed, eta, TOL)
                yield f"twin {label}", twin
                base, _ = VARIANT_TABLE[variant].planted(size, seed, eta,
                                                         twin=True)
                for d in MOVES:
                    yield f"moved {d:g} {label}", replace(base, **{
                        n: getattr(base, n)
                        + (getattr(twin, n) - getattr(base, n)) * d
                        for n in base.rhs_names()})


def _ranks_calls(monkeypatch):
    """The ``decomp.ranks`` calls of the rank lists from here on, each as
    ``(full_first, grid count, certificate results)``."""
    ranks, full_rank, calls = families.ranks, decomp._full_rank, []

    def recorded(grids, floor, full_first):
        calls.append((full_first, len(grids), []))
        return ranks(grids, floor, full_first)

    def counted(m, floor):
        got = full_rank(m, floor)
        calls[-1][2].append(got)
        return got

    monkeypatch.setattr(families, "ranks", recorded)
    monkeypatch.setattr(decomp, "_full_rank", counted)
    return calls


def _cold_calls(inst, calls):
    """A cold check's report, and the ``ranks`` calls of its list: the
    panels' and the bordered grids'."""
    _evict()
    calls.clear()
    report = families.check(inst, TOL)
    panels, bordered = calls
    return report, panels, bordered


def _reports(cases, full_first, monkeypatch):
    """Cold reports of ``cases`` with the ``full_first`` of every rank
    list's bordered call forced, the number of bordered grids offered to
    the certificate, and the number of panels that are not certified."""
    rank_list = families._rank_list
    monkeypatch.setattr(families, "_rank_list",
                        lambda work, _: rank_list(work, full_first))
    calls = _ranks_calls(monkeypatch)
    out, offered, uncertified = [], 0, 0
    for _, inst in cases:
        report, (_, count, settled), bordered = _cold_calls(inst, calls)
        out.append(report.to_dict())
        offered += len(bordered[2])
        uncertified += count - settled.count(True)
    monkeypatch.undo()
    return out, offered, uncertified


@pytest.mark.parametrize("variant", VARIANTS)
def test_reports_equal_with_the_certificate_off_and_on(variant,
                                                       monkeypatch):
    cases = list(_instances(variant))
    off, none, uncertified_off = _reports(cases, False, monkeypatch)
    on, tried, uncertified_on = _reports(cases, True, monkeypatch)
    # no bordered grid is offered with the switch off, some with it on
    assert none == 0 and tried > 0
    # every panel of every cold list is certified either way
    assert uncertified_off == uncertified_on == 0
    for (label, _), a, b in zip(cases, off, on):
        assert a == b, label
    assert any(r["consistent"] for r in off)
    assert any(not r["consistent"] for r in off)


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_twin_check_runs_the_certificate(variant, monkeypatch):
    """``check`` itself offers the bordered grids to the certificate on
    a twin, whose residual form fails, and not on its planted instance;
    it offers the panels of both."""
    planted, _ = gen_planted(variant, 2, 0, "j")
    twin = gen_unsolvable(variant, 2, 0, "j", TOL)
    calls = _ranks_calls(monkeypatch)
    for inst, runs in ((planted, False), (twin, True)):
        report, panels, bordered = _cold_calls(inst, calls)
        assert (panels[0], bordered[0]) == (True, runs), variant
        assert bool(bordered[2]) == runs, variant
        assert report.consistent != runs


def test_the_helper_thread_certifies_as_the_caller_does(monkeypatch):
    """With every helper gate open, the largest grid of each list is
    offered to the certificate on the helper thread; the twins' reports
    equal those with the certificate off."""
    cases = [(variant, gen_unsolvable(variant, size, 1, "k", TOL))
             for variant in ("master", "eta-full", "two-term", "five-term")
             for size in (2, 4)]
    off, _, _ = _reports(cases, False, monkeypatch)
    _gates(monkeypatch)
    threads, full_rank = [], decomp._full_rank

    def counted(m, floor):
        threads.append(threading.current_thread().name)
        return full_rank(m, floor)

    monkeypatch.setattr(decomp, "_full_rank", counted)
    on = []
    for _, inst in cases:
        _evict()
        on.append(families.check(inst, TOL).to_dict())
    assert on == off
    assert "qsylv-rank" in threads and "MainThread" in threads
