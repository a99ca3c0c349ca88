"""Coefficient-only panels settled by the full-rank certificate.

Every rank term compares a bordered grid with the sum of the ranks of
its coefficient-only panels.  ``families._rank_list`` ranks the panels
on the first list of a factorization, in a ``decomp.ranks`` call of
their own that offers each to the full-rank certificate
(``decomp._full_rank``), whatever the residual form says.  The ranks
and reports must equal those of ranking every panel by SVD, a refused
panel (rank-deficient, or of full rank but ill-conditioned) must send
the rest of the panels to SVDs, and the helper's grid must be embedded
on the calling thread.
"""

import threading

import numpy as np
import pytest

import qsylv
from qsylv import QMatrix, decomp
from qsylv.harness import gen_planted, gen_unsolvable
from qsylv.solvers import families
from qsylv.solvers.master import MasterInstance

from tests.test_rank_helper import _gates
from tests.test_shared_work import _evict

TOL = 1e-9
ETA_VARIANTS = ("eta-full", "eta-three", "eta-mixed", "eta-two")


def _svd_calls(monkeypatch):
    """The shapes of the embeddings ranked by SVD from here on."""
    shapes, svdvals = [], decomp._svdvals

    def recorded(m):
        shapes.append(m.shape)
        return svdvals(m)

    monkeypatch.setattr(decomp, "_svdvals", recorded)
    return shapes


def _rank_calls(monkeypatch):
    """The shapes of the embeddings ranked from here on: one entry per
    SVD and one per full-rank certificate tried."""
    shapes, full_rank = _svd_calls(monkeypatch), decomp._full_rank

    def recorded(m, floor):
        shapes.append(m.shape)
        return full_rank(m, floor)

    monkeypatch.setattr(decomp, "_full_rank", recorded)
    return shapes


def _certificates(monkeypatch):
    """The ``(embedding, floor, certified)`` of every full-rank
    certificate tried from here on."""
    tried, full_rank = [], decomp._full_rank

    def recorded(m, floor):
        got = full_rank(m, floor)
        tried.append((m, floor, got))
        return got

    monkeypatch.setattr(decomp, "_full_rank", recorded)
    return tried


def _direct(monkeypatch):
    """Rank every grid by SVD: the full-rank certificate off in every
    ``ranks`` call, and each Mirror ranked as its grid, as on a root
    that is no mirror (``work.mirrored`` off)."""
    ranks, root_work = families.ranks, families._root_work

    def direct(grids, floor, full_first):
        return ranks(grids, floor, False)

    def unmirrored(*args):
        work = root_work(*args)
        work.mirrored = False
        return work

    monkeypatch.setattr(families, "ranks", direct)
    monkeypatch.setattr(families, "_root_work", unmirrored)


def _cold(inst, shapes, *records):
    """A cold check's report, its panel ranks and the count it adds to
    ``shapes``; ``records`` are cleared with it."""
    _evict()
    for recorded in (shapes, *records):
        recorded.clear()
    report = families.check(inst, TOL)
    return report.to_dict(), list(families._SLOT[0].factors.panels), len(
        shapes)


def _instances(variant):
    etas = ("i", "j", "k") if variant in ETA_VARIANTS else ("i",)
    for size in (1, 2, 3, 4, 8):
        for eta in etas:
            yield f"planted {size} {eta}", gen_planted(variant, size, 0,
                                                       eta)[0]
            yield f"unsolvable {size} {eta}", gen_unsolvable(variant, size,
                                                             0, eta)


@pytest.mark.parametrize("variant", ["master", "three-term", "mixed",
                                     "eta-full", "eta-three", "eta-mixed",
                                     "five-term", "two-term", "eta-two"])
def test_derived_panel_ranks_equal_direct_ones(variant):
    """Certified panel ranks equal SVD ranks: every report and every
    held panel rank is that of ranking each grid by SVD, and every cold
    list takes fewer SVDs, since its panels take none."""
    cases = list(_instances(variant))
    with pytest.MonkeyPatch.context() as mp:
        shapes = _svd_calls(mp)
        tried = _certificates(mp)
        derived = [_cold(inst, shapes) for _, inst in cases]
        _direct(mp)
        direct = [_cold(inst, shapes, tried) + (len(tried),)
                  for _, inst in cases]
    assert not any(d[3] for d in direct)
    assert any(not d[0]["consistent"] for d in direct)
    for (label, _), d, r in zip(cases, derived, direct):
        assert d[:2] == r[:2], label
        assert d[2] < r[2], label


def _master_with(seed, e2, a2):
    """A planted master instance at cube 3 with these E2 and A2."""
    inst, witness = gen_planted("master", 3, seed)
    blocks = {n: getattr(inst, n) for n in inst.coefficient_names()}
    blocks.update(E2=e2, A2=a2)
    return MasterInstance.from_witness(witness, **blocks)


def _deficient_master(seed):
    """A planted master instance with E2 = 0 and A2 of rank 1, so the
    block column [E2; A2] of R1's left panel has rank 1."""
    inst, _ = gen_planted("master", 3, seed)
    rng = np.random.default_rng(seed)
    a2 = inst.A2
    return _master_with(seed, QMatrix.zeros(*inst.E2.shape),
                        QMatrix(*rng.standard_normal((4, a2.rows, 1)))
                        @ QMatrix(*rng.standard_normal((4, 1, a2.cols))))


def _with_singular_values(rng, rows, values):
    """A real rows x len(values) QMatrix with these singular values."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, len(values))))
    v, _ = np.linalg.qr(rng.standard_normal((len(values), len(values))))
    zero = np.zeros((rows, len(values)))
    return QMatrix((u * values) @ v.T, zero, zero, zero)


def _ill_conditioned_master(seed):
    """A planted master instance whose block column [E2; A2] of R1's
    left panel has singular values 1, 0.5, 0.25 and 1e-10: of full
    column rank at any cut ``check`` uses, with condition number 1e10."""
    inst, _ = gen_planted("master", 3, seed)
    rows = inst.E2.rows
    column = _with_singular_values(np.random.default_rng(seed),
                                   rows + inst.A2.rows,
                                   [1.0, 0.5, 0.25, 1e-10])
    cut = lambda r: column.submatrix(r, slice(None))
    return _master_with(seed, cut(slice(0, rows)), cut(slice(rows, None)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_deficient_full_panel_falls_back(seed, monkeypatch):
    inst = _deficient_master(seed)
    shapes = _svd_calls(monkeypatch)
    tried = _certificates(monkeypatch)
    derived = _cold(inst, shapes, tried)
    # R1's left panel, the first of the list, is refused, so all 18
    # panels take SVDs, beside the 17 bordered grids of a planted list
    assert [got for _, _, got in tried] == [False]
    assert derived[2] == 17 + 18
    _direct(monkeypatch)
    assert _cold(inst, shapes) == derived[:2] + (35,)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_an_ill_conditioned_full_rank_panel_is_refused(seed, monkeypatch):
    """A panel of full rank with condition number about 1e10 is below
    the certificate's reach: it is refused and ranked by SVD, at its
    full rank, and the report equals one from direct ranking."""
    inst = _ill_conditioned_master(seed)
    shapes = _svd_calls(monkeypatch)
    tried = _certificates(monkeypatch)
    derived = _cold(inst, shapes, tried)
    refused = [(m, floor) for m, floor, got in tried if not got]
    assert len(refused) == 1
    m, floor = refused[0]
    assert decomp.rank(m, floor=floor) == min(m.shape) // 2
    assert derived[0]["consistent"]
    _direct(monkeypatch)
    assert _cold(inst, shapes)[:2] == derived[:2]


def test_helper_grid_is_embedded_on_the_calling_thread(monkeypatch):
    inst, _ = gen_planted("master", 3, 1)
    embeds, embed_block = [], decomp.embed_block
    svds, svdvals = [], decomp._svdvals

    def embed(grid):
        out = embed_block(grid)
        embeds.append((threading.current_thread().name, out.shape))
        return out

    def values(m):
        svds.append((threading.current_thread().name, m.shape))
        return svdvals(m)

    monkeypatch.setattr(decomp, "embed_block", embed)
    monkeypatch.setattr(decomp, "_svdvals", values)
    _gates(monkeypatch)
    _evict()
    embeds.clear()
    svds.clear()
    qsylv.check_master(inst)
    largest = max(svds, key=lambda s: s[1][0] * s[1][1])
    assert largest[0] == "qsylv-rank"
    assert [name for name, _ in svds].count("qsylv-rank") == 1
    assert {name for name, _ in embeds} == {"MainThread"}
    assert largest[1] in [shape for _, shape in embeds]
