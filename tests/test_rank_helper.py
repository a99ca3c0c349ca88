"""The rank certificate's helper thread.

Each ``decomp.ranks`` call of a rank list (one for the coefficient-only
panels on the first list of a factorization, one for the other grids)
ranks its largest matrix on one helper thread while the calling thread
ranks the rest, when BLAS is pinned to one thread, two CPUs are allowed
and the largest embedding is large.  The gates are forced on here at
small sizes: the reports must equal the serial ones, an error in the
helper must reach the caller, the helper's offer to the full-rank
certificate must not depend on the calling thread, and no thread may
outlive a call.
"""

import os
import threading

import pytest

import qsylv
from qsylv import QMatrix, decomp
from qsylv.harness import gen_planted, gen_unsolvable
from qsylv.solvers.families import check

from tests.test_shared_work import _evict

TOL = 1e-9


def _gates(monkeypatch, blas="1", cpus=2, min_entries=0):
    """Set the three gates: the BLAS thread variable, the CPUs allowed
    and the smallest embedding ranked on the helper."""
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    if blas is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(decomp, "_HELPER_MIN_ENTRIES", min_entries)


def _rank_threads(monkeypatch):
    """The names of the threads that rank a grid from here on, by SVD or
    by full-rank certificate (``decomp._rank_step``)."""
    names, step = [], decomp._rank_step

    def recorded(*args, **kwargs):
        names.append(threading.current_thread().name)
        return step(*args, **kwargs)

    monkeypatch.setattr(decomp, "_rank_step", recorded)
    return names


def _starts(monkeypatch):
    """The threads started from here on."""
    started, start = [], threading.Thread.start

    def recorded(self):
        started.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    return started


def _cold_check(variant, inst):
    _evict()
    report = check(inst, TOL)
    report.rank_conditions
    return report


@pytest.mark.parametrize("variant", ["master", "five-term", "three-term",
                                     "eta-full", "two-term", "pair",
                                     "eta-two"])
def test_helper_reports_equal_serial_reports(variant, monkeypatch):
    insts = [make(variant, size, seed)
             for size in (2, 3, 4) for seed in (1, 2)
             for make in (lambda *a: gen_planted(*a)[0], gen_unsolvable)]
    _gates(monkeypatch, min_entries=1 << 62)
    serial = [_cold_check(variant, inst) for inst in insts]
    _gates(monkeypatch)
    names = _rank_threads(monkeypatch)
    before = threading.active_count()
    helper, helpers = [], 0
    for inst in insts:
        # the eviction checks a two-term instance, with a helper of its
        # own; only the helper of the checked call counts
        _evict()
        names.clear()
        helper.append(check(inst, TOL))
        helpers += names.count("qsylv-rank")
    assert threading.active_count() == before
    # a cold list ranks its panels (pair has none) and its other grids
    # in two ranks calls, each with a helper
    assert helpers == (1 if variant == "pair" else 2) * len(insts)
    assert any(not r.consistent for r in serial)
    for s, h in zip(serial, helper):
        assert s == h and s.to_dict() == h.to_dict()


def test_helper_error_reaches_the_caller(monkeypatch):
    inst, _ = gen_planted("master", 3, 1)
    shapes, svdvals = [], decomp._svdvals

    def recorded(m):
        shapes.append(m.shape)
        return svdvals(m)

    monkeypatch.setattr(decomp, "_svdvals", recorded)
    _cold_check("master", inst)
    largest = max(shapes, key=lambda s: s[0] * s[1])
    failed = []

    def failing(m):
        if m.shape == largest:
            failed.append(threading.current_thread().name)
            raise decomp.NumericError("forced")
        return svdvals(m)

    monkeypatch.setattr(decomp, "_svdvals", failing)
    _gates(monkeypatch)
    before = threading.active_count()
    _evict()
    with pytest.raises(decomp.NumericError, match="forced"):
        qsylv.check_master(inst)
    assert failed == ["qsylv-rank"]
    assert threading.active_count() == before
    _evict()


@pytest.mark.parametrize("gates", [
    {"blas": None}, {"blas": "2"}, {"blas": ""}, {"cpus": 1},
    {"min_entries": 1 << 18}])
def test_no_thread_with_a_gate_off(gates, monkeypatch):
    inst, _ = gen_planted("master", 4, 1)
    _gates(monkeypatch, **gates)
    started = _starts(monkeypatch)
    assert _cold_check("master", inst).consistent
    assert started == []


def test_the_helpers_offer_does_not_depend_on_the_calling_thread(
        rand_q, monkeypatch):
    """With the gates open and a certificate that refuses the calling
    thread's first grid, the helper's grid is still offered to it
    exactly when ``full_first`` is set, and the calling thread stops
    after its refusal; the same in every run.  The helper waits until
    the calling thread has ranked its first grid."""
    grids = [[[rand_q(3, 2)]], [[rand_q(6, 5)]], [[rand_q(2, 3)]],
             [[rand_q(4, 4)]]]
    want = [decomp.rank(g) for g in grids]
    full_rank, step, tried = decomp._full_rank, decomp._rank_step, []
    first_ranked = threading.Event()

    def refusing(m, floor):
        name = threading.current_thread().name
        tried.append((name, m.shape))
        if name == "MainThread" and len(tried) == 1:
            return False
        return full_rank(m, floor)

    def ordered(*args):
        if threading.current_thread().name == "qsylv-rank":
            assert first_ranked.wait(10)
            return step(*args)
        out = step(*args)
        first_ranked.set()
        return out

    monkeypatch.setattr(decomp, "_full_rank", refusing)
    monkeypatch.setattr(decomp, "_rank_step", ordered)
    _gates(monkeypatch)
    started = _starts(monkeypatch)
    for full_first in (True, False):
        counts = set()
        for _ in range(20):
            tried.clear()
            first_ranked.clear()
            assert decomp.ranks(grids, 0.0, full_first) == want
            helper = [shape for name, shape in tried if name == "qsylv-rank"]
            counts.add((len(helper), len(tried) - len(helper)))
            if full_first:
                assert helper == [(12, 10)]
        assert counts == ({(1, 1)} if full_first else {(0, 0)})
    assert started == ["qsylv-rank"] * 40


def test_blas_gate_reads_the_first_variable_set(monkeypatch):
    _gates(monkeypatch)
    assert decomp._helper_allowed(0)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert decomp._helper_allowed(0)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert not decomp._helper_allowed(0)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert decomp._helper_allowed(0)


def test_ranks_equal_rank_on_each_grid(rand_q, monkeypatch):
    a, b, c = rand_q(3, 4), rand_q(3, 2), rand_q(5, 4)
    # rank 1 plus noise: its rank is 6 at floor 0 and 1 at the floor used
    low = rand_q(6, 1) @ rand_q(1, 6) + rand_q(6, 6, scale=1e-10)
    grids = [[[a, b]], [[a], [c]], [[low, None], [None, low]],
             [[a, b], [c, None]], [[QMatrix.zeros(0, 2)]]]
    want = [decomp.rank(g, floor=1e-8) for g in grids]
    assert want[2] == 2 and decomp.rank(grids[2]) == 12
    _gates(monkeypatch)
    started = _starts(monkeypatch)
    assert decomp.ranks(grids, 1e-8) == want
    assert decomp.ranks([], 1e-8) == []
    assert started == ["qsylv-rank"]
