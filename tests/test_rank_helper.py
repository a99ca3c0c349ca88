"""The rank certificate's helper thread.

Each ``decomp.ranks`` call of a rank list (one for the coefficient-only
panels on the first list of a factorization, one for the other grids)
ranks its largest matrix on one helper thread while the calling thread
ranks the rest, when BLAS is pinned to one thread, two CPUs are allowed
and the largest embedding is large.  The gates are opened here at small
sizes (the ``route`` fixture): the helper's grid must be offered to the
certificate as the calling thread's are, whatever that thread's
certificate says, its grid must be embedded on the calling thread, an
error in it must reach the caller with no thread left running, and no
thread may start with a gate shut.  That the reports equal the serial
ones, from the same SVDs and certificates, is the contract of
``tests/test_routes.py``.  No mirror reaches ``decomp.ranks``, so the
helper ranks plain grids only (``tests/test_mirrored_ranks.py``).
"""

import threading

import pytest

from qsylv import QMatrix, decomp
from qsylv.harness import gen_planted
from qsylv.solvers.families import check

from tests.conftest import Counter, evict, set_gates

TOL = 1e-9


def _starts(monkeypatch):
    """The threads started from here on."""
    started, start = [], threading.Thread.start

    def recorded(self):
        started.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    return started


def test_helper_error_reaches_the_caller(monkeypatch, counter, route):
    inst, _ = gen_planted("master", 3, 1)
    evict()
    counter.take()
    check(inst, TOL)
    largest = max((e.shape for e in counter.take() if e.kind == "rank"),
                  key=lambda s: s[0] * s[1])
    failed, svd = [], decomp._svd

    def failing(m, **kwargs):
        # rank SVDs only: a pinv SVD of that shape runs on the caller
        if m.shape == largest and kwargs.get("compute_uv", True) is False:
            failed.append(threading.current_thread().name)
            raise decomp.NumericError("forced")
        return svd(m, **kwargs)

    monkeypatch.setattr(decomp, "_svd", failing)
    route("helper")
    before = threading.active_count()
    evict()
    with pytest.raises(decomp.NumericError, match="forced"):
        check(inst, TOL)
    assert failed == ["qsylv-rank"]
    assert threading.active_count() == before
    evict()


@pytest.mark.parametrize("gates", [
    {"blas": None}, {"blas": "2"}, {"blas": ""}, {"cpus": 1},
    {"min_entries": 1 << 18}])
def test_no_thread_with_a_gate_off(gates, monkeypatch):
    inst, _ = gen_planted("master", 4, 1)
    set_gates(monkeypatch, **gates)
    started = _starts(monkeypatch)
    evict()
    assert check(inst, TOL).consistent
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
    full_rank, step = decomp._full_rank, decomp._rank_step
    first_ranked = threading.Event()

    def refusing(m, floor):
        if (threading.current_thread().name == "MainThread"
                and not any(e.kind == "certificate" for e in counter.events)):
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
    # counts the refusals too
    counter = Counter(monkeypatch)
    set_gates(monkeypatch)
    started = _starts(monkeypatch)
    for full_first in (True, False):
        seen = set()
        for _ in range(20):
            counter.take()
            first_ranked.clear()
            assert decomp.ranks(grids, 0.0, full_first) == want
            tried = [e for e in counter.take() if e.kind == "certificate"]
            helper = [e.shape for e in tried if e.thread == "qsylv-rank"]
            seen.add((len(helper), len(tried) - len(helper)))
            if full_first:
                assert helper == [(12, 10)]
        assert seen == ({(1, 1)} if full_first else {(0, 0)})
    assert started == ["qsylv-rank"] * 40


def test_blas_gate_reads_the_first_variable_set(monkeypatch):
    set_gates(monkeypatch)
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
    set_gates(monkeypatch)
    started = _starts(monkeypatch)
    assert decomp.ranks(grids, 1e-8) == want
    assert decomp.ranks([], 1e-8) == []
    assert started == ["qsylv-rank"]


def test_helper_grid_is_embedded_on_the_calling_thread(monkeypatch, counter,
                                                       route):
    inst, _ = gen_planted("master", 3, 1)
    embeds, embed_block = [], decomp.embed_block

    def embed(grid):
        out = embed_block(grid)
        embeds.append((threading.current_thread().name, out.shape))
        return out

    monkeypatch.setattr(decomp, "embed_block", embed)
    route("helper")
    evict()
    embeds.clear()
    counter.take()
    check(inst, TOL)
    svds = [e for e in counter.take() if e.kind == "rank"]
    largest = max(svds, key=lambda e: e.shape[0] * e.shape[1])
    assert largest.thread == "qsylv-rank"
    assert [e.thread for e in svds].count("qsylv-rank") == 1
    assert {name for name, _ in embeds} == {"MainThread"}
    assert largest.shape in [shape for _, shape in embeds]
