"""A solve on held work pays only for what its right side needs.

Three things are kept from one call to the next, and none may change a
bit of any result:

- the norms of the compatibility and residual terms, held on the work,
  so a ``solve_*`` after a ``check_*`` on the same instance forms no
  certificate product again;
- the coefficient-only left-to-right prefixes of the closed forms, held
  with the factorization;
- nothing for an omitted free parameter, which is a zero that costs no
  product and sums as a stored zero does, signed zeros included.

The rank certificate ranks its bordered matrices from their block grids,
embedded without forming the block matrix; that embedding must equal
``block(grid).embed()`` byte for byte.
"""

import numpy as np
import pytest

import qsylv
from qsylv import QMatrix, block, decomp
from qsylv.harness import (VARIANT_TABLE, VARIANTS, DimensionProfile,
                           gen_consistent, gen_planted, gen_unsolvable)
from qsylv.qmatrix import embed_block
from qsylv.solvers import Inconsistent
from qsylv.solvers.families import _Zero
from qsylv.solvers.master import _MasterWork
from qsylv.solvers.two_term import _TwoTermFactors

from tests.test_shared_work import _evict, _planes

TOL = 1e-9


def _etas(variant):
    return ("i", "j", "k") if variant.startswith("eta") else ("i",)


def _branches(variant):
    return (("first",) if VARIANT_TABLE[variant].one_closed_form
            else ("first", "second"))


def _same(a: QMatrix, b: QMatrix) -> bool:
    return (a.shape == b.shape and a.a1.tobytes() == b.a1.tobytes()
            and a.a2.tobytes() == b.a2.tobytes())


class _Products:
    """Counts QMatrix products from its creation on."""

    def __init__(self, monkeypatch):
        self.n = 0
        matmul = QMatrix.__matmul__

        def counted(a, b):
            self.n += 1
            return matmul(a, b)

        monkeypatch.setattr(QMatrix, "__matmul__", counted)


# -- free zeros ----------------------------------------------------------------

@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("size", (0, 1, 3))
def test_omitted_parameters_equal_explicit_zeros(variant, size):
    entry = VARIANT_TABLE[variant]
    for eta in _etas(variant):
        inst, _ = gen_planted(variant, size, 0, eta)
        for branch in _branches(variant):
            family = entry.solve(inst, TOL, branch)
            assert not isinstance(family, Inconsistent)
            zeros = [QMatrix.zeros(*p.shape) for p in family.free_params]
            names = [p.name for p in family.free_params]
            sols = [family.assemble(), family.assemble({}),
                    family.assemble(zeros),
                    family.assemble(dict(zip(names, zeros))),
                    family.particular]
            for sol in sols:
                assert len(sol) == len(inst.unknown_names())
                for m in sol:
                    assert type(m) is QMatrix
                    assert m.a1.flags.writeable and m.a2.flags.writeable
                assert _planes(sol) == _planes(sols[0])


def test_partly_given_parameters_equal_explicit_zeros():
    inst, _ = gen_planted("master", 2, 3)
    family = qsylv.solve_master(inst)
    params = family.random_params(np.random.default_rng(5))
    given = {p.name: m for p, m in zip(family.free_params[::2], params[::2])}
    full = [given.get(p.name, QMatrix.zeros(*p.shape))
            for p in family.free_params]
    assert _planes(family.assemble(given)) == _planes(family.assemble(full))


def test_free_zero_arithmetic_is_that_of_a_stored_zero(rand_q):
    x = rand_q(3, 4)
    # signed zeros in every plane: x + 0 turns -0.0 into +0.0
    x.a1[0, :2] = [complex(-0.0, 0.0), complex(0.0, -0.0)]
    x.a2[1, 1:3] = [complex(-0.0, -0.0), 0.0]
    a, b = rand_q(2, 3), rand_q(4, 5)
    z, stored = _Zero(3, 4), QMatrix.zeros(3, 4)
    cases = [(x + z, x + stored), (z + x, stored + x), (x - z, x - stored),
             (z - x, stored - x), (z + z, stored + stored),
             (z - z, stored - stored), (-z, -stored), (z.copy(), stored),
             (z.submatrix(slice(1, 3), slice(None)),
              stored.submatrix(slice(1, 3), slice(None)))]
    for got, want in cases:
        assert _same(got, want)
    # a product is zero without a matmul; a stored zero's product is
    # zero too, its signs as the BLAS kernel leaves them
    for got, want in ((a @ z, a @ stored), (z @ b, stored @ b)):
        assert type(got) is _Zero and got.shape == want.shape
        assert _same(got.copy(), QMatrix.zeros(*want.shape))
        assert not (want.a1.any() or want.a2.any())
    assert type(x + z) is QMatrix and type(z - x) is QMatrix
    assert not z.a1.flags.writeable
    for bad in (lambda: x + _Zero(4, 3), lambda: _Zero(4, 3) - x,
                lambda: x - _Zero(3, 3), lambda: a @ _Zero(2, 2),
                lambda: z @ a):
        with pytest.raises(qsylv.DimensionError):
            bad()


# -- held norms and held products ----------------------------------------------

def test_solve_after_check_forms_no_certificate_product(monkeypatch):
    inst, _ = gen_consistent(DimensionProfile.cube(2, 0))
    _evict()
    calls = []
    for name in ("compat_terms", "mp_terms"):
        terms = getattr(_MasterWork, name)
        monkeypatch.setattr(_MasterWork, name, lambda self, terms=terms,
                            name=name: calls.append(name) or terms(self))
    report = qsylv.check_master(inst)
    assert report.consistent
    products = _Products(monkeypatch)
    family = qsylv.solve_master(inst)
    family.assemble()
    assert sorted(calls) == ["compat_terms", "mp_terms"]
    # the particular solution's right-side products, then the
    # residual_terms of the particular solution that solve verifies
    assert products.n == 72
    assert qsylv.check_master(inst) == report
    assert sorted(calls) == ["compat_terms", "mp_terms"]


def test_thresholds_follow_tol_on_held_norms():
    inst = gen_unsolvable("two-term", 2, 0)
    _evict()
    loose = qsylv.check_two_term(*inst.blocks(), tol=1e3)
    tight = qsylv.check_two_term(*inst.blocks(), tol=1e-9)
    for a, b in zip(loose.mp_conditions, tight.mp_conditions):
        assert a.name == b.name and a.residual == b.residual
        assert (a.threshold, b.threshold) == (1e3, 1e-9)
    _evict()
    assert qsylv.check_two_term(*inst.blocks(), tol=1e3) == loose


def test_held_prefixes_keep_the_bits_of_the_chains(rand_q):
    inst, _ = gen_planted("two-term", 3, 1)
    k = _TwoTermFactors(inst)
    e1 = inst.E1
    shape3, shape4 = inst.unknown_shapes().values()
    ys = [rand_q(*p) for p in (shape4, shape3, shape3, shape4, shape4)]
    y11, y12, y13, y14, y15 = ys
    bc3, bc4, bd3, bd4 = k.bc3, k.bc4, k.bd3, k.bd4
    bm, bn, bs, c4, d4, s = k.bm, k.bn, k.bs, k.c4, k.d4, k.s
    x3 = (bc3.pinv @ e1 @ bd3.pinv
          - bc3.pinv @ c4 @ bm.pinv @ e1 @ bd3.pinv
          - bc3.pinv @ s @ bc4.pinv @ e1 @ bn.pinv @ d4 @ bd3.pinv
          - bc3.pinv @ s @ y11 @ bn.proj_right @ d4 @ bd3.pinv
          + bc3.proj_left @ y12
          + y13 @ bd3.proj_right)
    x4 = (bm.pinv @ e1 @ bd4.pinv
          + bs.pinv @ s @ bc4.pinv @ e1 @ bn.pinv
          + bm.proj_left @ bs.proj_left @ y14
          + y15 @ bd4.proj_right
          + bm.proj_left @ y11 @ bn.proj_right)
    got = k.solve(e1, *ys)
    assert _same(got[0], x3) and _same(got[1], x4)
    five, _ = gen_planted("five-term", 3, 2)
    w = _MasterWork(five.lift()[0])
    f, bC, bD = w.factors, w.factors.bC, w.factors.bD
    assert _same(w.F1, bC[0].pinv @ w.L1 @ bD[0].pinv
                 + bC[0].proj_left @ bC[1].pinv @ w.L2 @ bD[1].pinv)
    assert _same(w.F2, bC[2].pinv @ w.L3 @ bD[2].pinv
                 + bC[2].proj_left @ bC[3].pinv @ w.L4 @ bD[3].pinv)
    assert _same(f.c11_pc11, f.C11 @ f.bC11.pinv)
    assert _same(f.a1_pa1, f.reduced[0] @ f.bA1.pinv)


# -- rank matrices embedded from their grids -------------------------------------

def test_embedded_grid_equals_embedded_block(rand_q):
    a, b, c = rand_q(2, 3), rand_q(2, 1), rand_q(4, 1)
    c.a2[0, 0] = complex(-0.0, 0.0)
    empty_rows, empty_cols = QMatrix.zeros(0, 3), QMatrix.zeros(4, 0)
    grids = [[[a]], [[a, b], [None, c]], [[None, b], [rand_q(4, 3), None]],
             [[a, None, b], [empty_rows, None, None],
              [None, empty_cols, c]],
             [[QMatrix.zeros(0, 2)]], [[empty_cols, c]]]
    for grid in grids:
        got, want = embed_block(grid), block(grid).embed()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for bad in ([[a, rand_q(3, 3)]], [[None, None], [a, None]], [[]]):
        with pytest.raises(qsylv.DimensionError):
            embed_block(bad)


@pytest.mark.parametrize("variant", VARIANTS)
def test_rank_grids_embed_as_their_block_matrices(variant, monkeypatch):
    grids = []
    embedding = decomp._embedding

    def recorded(a):
        if not isinstance(a, QMatrix):
            grids.append(a)
        return embedding(a)

    monkeypatch.setattr(decomp, "_embedding", recorded)
    entry = VARIANT_TABLE[variant]
    for size in (0, 2):
        inst, _ = gen_planted(variant, size, 1, "k")
        _evict()
        assert entry.check(inst, TOL).forms_agree
    monkeypatch.undo()
    cells = [cell for grid in grids for row in grid for cell in row]
    assert grids and None in cells
    if variant == "mixed":
        # the lift onto master leaves blocks empty
        assert any(0 in cell.shape for cell in cells if cell is not None)
    for grid in grids:
        got, want = embed_block(grid), block(grid).embed()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert decomp.rank(grid, floor=1e-12) == decomp.rank(
            block(grid), floor=1e-12)
