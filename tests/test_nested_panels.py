"""Panels ranked by interlacing.

Every coefficient-only panel of R2-R8 is a block sub-grid of one of two
full panels: the left ones keep block columns of R1's left panel, the
right ones block rows of R8's right panel.  ``decomp.ranks`` ranks the
full panels first and, when one has full column (row) rank with a
margin, gives each panel nested in it its column (row) count without an
SVD.  The ranks and reports must equal those of ranking every panel
directly, the fallback must run when a full panel is rank-deficient or
within its margin, and the helper's grid must be embedded on the
calling thread.
"""

import math
import threading

import numpy as np
import pytest

import qsylv
from qsylv import QMatrix, decomp
from qsylv.decomp import SubGrid
from qsylv.harness import gen_planted, gen_unsolvable
from qsylv.solvers import families
from qsylv.solvers.families import Mirror
from qsylv.solvers.master import MasterInstance

from tests.test_rank_helper import _gates
from tests.test_shared_work import _evict

TOL = 1e-9
ETA_VARIANTS = ("eta-full", "eta-three", "eta-mixed")


def _svd_calls(monkeypatch):
    """The shapes of the embeddings ranked from here on."""
    shapes, svdvals = [], decomp._svdvals

    def recorded(m):
        shapes.append(m.shape)
        return svdvals(m)

    monkeypatch.setattr(decomp, "_svdvals", recorded)
    return shapes


def _rank_calls(monkeypatch):
    """The shapes of the embeddings ranked from here on: one entry per
    SVD and one per full-rank certificate tried, which a list takes in
    place of SVDs when its residual form has failed."""
    shapes, full_rank = _svd_calls(monkeypatch), decomp._full_rank

    def recorded(m, floor):
        shapes.append(m.shape)
        return full_rank(m, floor)

    monkeypatch.setattr(decomp, "_full_rank", recorded)
    return shapes


def _direct(monkeypatch):
    """Rank every panel directly: each SubGrid as its own grid, and
    each Mirror too, as on a root that is no mirror (``work.mirrored``
    off)."""
    ranks, root_work = families.ranks, families._root_work

    def direct(grids, floor, full_first):
        return ranks([g.grid if isinstance(g, SubGrid) else g
                      for g in grids], floor, full_first)

    def unmirrored(*args):
        work = root_work(*args)
        work.mirrored = False
        return work

    monkeypatch.setattr(families, "ranks", direct)
    monkeypatch.setattr(families, "_root_work", unmirrored)


def _cold(inst, shapes):
    """A cold check's report, its panel ranks and the count it adds to
    ``shapes``."""
    _evict()
    shapes.clear()
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
                                     "five-term"])
def test_derived_panel_ranks_equal_direct_ones(variant):
    cases = list(_instances(variant))
    with pytest.MonkeyPatch.context() as mp:
        shapes = _rank_calls(mp)
        derived = [_cold(inst, shapes) for _, inst in cases]
        _direct(mp)
        direct = [_cold(inst, shapes) for _, inst in cases]
    assert any(not report["consistent"] for report, _, _ in direct)
    for (label, _), d, r in zip(cases, derived, direct):
        assert d[:2] == r[:2], label
        assert d[2] <= r[2], label
    # a full panel wider (taller) than it is tall (wide), as at the
    # smallest sizes and in five-term's planted shapes, settles nothing
    assert any(d[2] < r[2] for d, r in zip(derived, direct))


def _cells(grid, axis):
    """Each block column (``axis`` 1) or row (0) of ``grid`` as the ids
    of its cells that are not None."""
    lines = zip(*grid) if axis else grid
    return [tuple(id(c) for c in line if c is not None) for line in lines]


def test_every_nested_panel_is_a_block_sub_grid_of_its_full_panel():
    inst, _ = gen_planted("master", 2, 0)
    _evict()
    qsylv.check_master(inst)
    terms = families._SLOT[0].rank_terms()
    # the right panels are marked as mirrors around their sub-grids
    plain = lambda x: x.grid if isinstance(x, Mirror) else x
    subs = [plain(x) for _, _, rhs in terms for x in rhs
            if isinstance(plain(x), SubGrid)]
    fulls = {id(s.full) for s in subs}
    assert len(subs) == 14 and len(fulls) == 2
    for sub in subs:
        lines = _cells(sub.full, sub.axis)
        kept = [lines.index(line) for line in _cells(sub.grid, sub.axis)]
        assert kept == sorted(kept)
        full = sub.full if sub.axis == 0 else [list(r) for r in
                                               zip(*sub.full)]
        # the kept lines, without the cross lines they leave all zero
        picked = [full[k] for k in kept]
        picked = [list(x) for x in zip(*picked)
                  if any(c is not None for c in x)]
        got = picked if sub.axis else [list(r) for r in zip(*picked)]
        assert [[id(c) for c in row] for row in got] == [
            [id(c) for c in row] for row in sub.grid]


def _deficient_master(seed):
    """A planted master instance with E2 = 0 and A2 of rank 1, so the
    block column [E2; A2] of R1's left panel has rank 1."""
    inst, witness = gen_planted("master", 3, seed)
    rng = np.random.default_rng(seed)
    blocks = {n: getattr(inst, n) for n in inst.coefficient_names()}
    a2 = blocks["A2"]
    blocks["E2"] = QMatrix.zeros(*blocks["E2"].shape)
    blocks["A2"] = (QMatrix(*rng.standard_normal((4, a2.rows, 1)))
                    @ QMatrix(*rng.standard_normal((4, 1, a2.cols))))
    return MasterInstance.from_witness(witness, **blocks)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_deficient_full_panel_falls_back(seed, monkeypatch):
    inst = _deficient_master(seed)
    shapes = _svd_calls(monkeypatch)
    derived = _cold(inst, shapes)
    # the 7 left panels nested in R1's are ranked directly; the right
    # ones are still read off R8's
    assert derived[2] == 21 + 7
    _direct(monkeypatch)
    assert _cold(inst, shapes) == derived[:2] + (35,)


def _with_singular_values(rng, rows, values):
    """A real rows x len(values) QMatrix with these singular values."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, len(values))))
    v, _ = np.linalg.qr(rng.standard_normal((len(values), len(values))))
    zero = np.zeros((rows, len(values)))
    return QMatrix((u * values) @ v.T, zero, zero, zero)


@pytest.mark.parametrize("smallest, svds", [
    (1e-7, 3),     # rank-deficient at the cut 1e-6
    (4e-6, 3),     # full column rank, but within 16 times the cut
    (2e-5, 1),     # full column rank with the margin: no SVD
])
def test_sub_grid_is_read_off_only_outside_the_margin(smallest, svds,
                                                      monkeypatch):
    rng = np.random.default_rng(3)
    m = _with_singular_values(rng, 9, [1.0, 0.5, 0.25, 0.1, smallest])
    cols = [m.submatrix(slice(None), slice(j, j + 1)) for j in range(5)]
    full = [cols]
    grids = [full, SubGrid([cols[:2]], full, 1), SubGrid([cols[3:]], full, 1)]
    shapes = _svd_calls(monkeypatch)
    got = decomp.ranks(grids, 1e-6)
    assert len(shapes) == svds
    assert got == [decomp.rank(g.grid if isinstance(g, SubGrid) else g,
                               floor=1e-6) for g in grids]


def test_sub_grid_of_a_grid_not_in_the_list_is_ranked_directly(
        rand_q, monkeypatch):
    a, b = rand_q(6, 2), rand_q(6, 3)
    sub = SubGrid([[a]], [[a, b]], 1)
    shapes = _svd_calls(monkeypatch)
    assert decomp.ranks([[[b]], sub], 0.0) == [3, 2]
    assert len(shapes) == 2


def test_row_sub_grids_are_read_off_their_full_grid(rand_q, monkeypatch):
    a, b, c = rand_q(2, 7), rand_q(3, 7), rand_q(2, 4)
    full = [[a, c], [b, None]]
    grids = [SubGrid([[a, c]], full, 0), full, SubGrid([[b]], full, 0)]
    shapes = _svd_calls(monkeypatch)
    assert decomp.ranks(grids, 0.0) == [2, 5, 3]
    assert len(shapes) == 1
    monkeypatch.setattr(decomp, "_SUBGRID_MARGIN", math.inf)
    shapes.clear()
    assert decomp.ranks(grids, 0.0) == [2, 5, 3]
    assert len(shapes) == 3


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
