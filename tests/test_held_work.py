"""A solve on held work pays only for what its right side needs.

Three things are kept from one call to the next, and none may change a
bit of any result:

- the work itself, keyed on the caller's instance, so a ``solve_*``
  after a ``check_*`` on the same instance runs no ``require()``, lift or
  equilibration again, and forms no certificate product again: the
  norms of the compatibility and residual terms are held on the work;
- the coefficient-only left-to-right prefixes of the closed forms, held
  with the factorization;
- nothing for an omitted free parameter, which is a zero that costs no
  product and sums as a stored zero does, signed zeros included.

No product reaches BLAS with an empty, zero or identity operand: the
pinv bundles of empty and rank-0 blocks are markers that cost no
product, and every matrix a family hands out is a plain one of its own.

The rank certificate ranks its bordered matrices from their block grids,
embedded without forming the block matrix; that embedding must equal
``block(grid).embed()`` byte for byte.
"""

from dataclasses import replace

import numpy as np
import pytest

import qsylv
from qsylv import QMatrix, block, decomp
from qsylv.harness import (VARIANT_TABLE, VARIANTS, gen_planted,
                           gen_unsolvable)
from qsylv.qmatrix import Zero, embed_block
from qsylv.solvers import families
from qsylv.solvers.families import ETA_STAR, Inconsistent, max_exponents
from qsylv.solvers.master import _MasterWork
from qsylv.solvers.two_term import _TwoTermFactors

from tests.conftest import evict, planes, same_bits

TOL = 1e-9


def _etas(variant):
    return ("i", "j", "k") if variant.startswith("eta") else ("i",)


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
    for eta in _etas(variant):
        inst, _ = gen_planted(variant, size, 0, eta)
        family = families.solve(inst, TOL)
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
            assert planes(sol) == planes(sols[0])


def test_partly_given_parameters_equal_explicit_zeros():
    inst, _ = gen_planted("master", 2, 3)
    family = families.solve(inst)
    params = family.random_params(np.random.default_rng(5))
    given = {p.name: m for p, m in zip(family.free_params[::2], params[::2])}
    full = [given.get(p.name, QMatrix.zeros(*p.shape))
            for p in family.free_params]
    assert planes(family.assemble(given)) == planes(family.assemble(full))


def test_free_zero_arithmetic_is_that_of_a_stored_zero(rand_q):
    x = rand_q(3, 4)
    # signed zeros in every plane: x + 0 turns -0.0 into +0.0
    x.a1[0, :2] = [complex(-0.0, 0.0), complex(0.0, -0.0)]
    x.a2[1, 1:3] = [complex(-0.0, -0.0), 0.0]
    a, b = rand_q(2, 3), rand_q(4, 5)
    z, stored = Zero(3, 4), QMatrix.zeros(3, 4)
    cases = [(x + z, x + stored), (z + x, stored + x), (x - z, x - stored),
             (z - x, stored - x), (z + z, stored + stored),
             (z - z, stored - stored), (-z, -stored), (z.copy(), stored),
             (z.submatrix(slice(1, 3), slice(None)),
              stored.submatrix(slice(1, 3), slice(None)))]
    for got, want in cases:
        assert same_bits(got, want)
    # a product is zero without a matmul; a stored zero's product is
    # zero too, its signs as the BLAS kernel leaves them
    for got, want in ((a @ z, a @ stored), (z @ b, stored @ b)):
        assert type(got) is Zero and got.shape == want.shape
        assert same_bits(got.copy(), QMatrix.zeros(*want.shape))
        assert not (want.a1.any() or want.a2.any())
    assert type(x + z) is QMatrix and type(z - x) is QMatrix
    assert not z.a1.flags.writeable
    for bad in (lambda: x + Zero(4, 3), lambda: Zero(4, 3) - x,
                lambda: x - Zero(3, 3), lambda: a @ Zero(2, 2),
                lambda: z @ a):
        with pytest.raises(qsylv.DimensionError):
            bad()


# -- markers: no product on an empty, zero or identity operand ---------------

class _BlasOperands:
    """Records the operands of every QMatrix product that reaches BLAS
    from its creation on; a product with no entries or an empty inner
    dimension must be a Zero without one."""

    def __init__(self, monkeypatch):
        self.operands = []
        matmul = QMatrix.__matmul__

        def recorded(a, b):
            out = matmul(a, b)
            if a.rows and a.cols and b.cols:
                self.operands.append((a, b))
            else:
                assert type(out) is Zero
            return out

        monkeypatch.setattr(QMatrix, "__matmul__", recorded)


def _marked(m):
    """What makes ``m`` an operand no product needs: a marker type, or
    stored zero or identity values; ``None`` for none of them."""
    if type(m) is not QMatrix:
        return type(m).__name__
    if not (m.a1.any() or m.a2.any()):
        return "zero"
    if (m.rows == m.cols and not m.a2.any()
            and (m.a1 == np.eye(m.rows)).all()):
        return "identity"
    return None


@pytest.mark.parametrize("variant", VARIANTS)
def test_no_blas_product_reads_an_empty_zero_or_identity_operand(
        variant, monkeypatch):
    inst, _ = gen_planted(variant, 4, 1, "j")

    def check():
        assert families.check(inst, TOL).consistent

    def solve():
        family = families.solve(inst, TOL)
        assert not isinstance(family, Inconsistent)
        family.assemble()

    blas = _BlasOperands(monkeypatch)
    for order in ((check, solve), (solve, check)):
        evict()
        blas.operands.clear()
        for call in order:
            call()
        assert blas.operands
        bad = [(a.shape, b.shape, _marked(a), _marked(b))
               for a, b in blas.operands if _marked(a) or _marked(b)]
        assert not bad, (order[0].__name__, bad)


@pytest.mark.parametrize("variant", VARIANTS)
def test_assembled_matrices_are_plain_and_their_own(variant):
    """The particular solution and a member are plain, writable
    matrices that share no memory with the instance or the parameters,
    also where a closed form is zero in every term (a Zero)."""
    for size in (0, 3, 4):
        inst, _ = gen_planted(variant, size, 1, "j")
        evict()
        family = families.solve(inst, TOL)
        params = family.random_params(np.random.default_rng(size))
        names = [p.name for p in family.free_params]
        given = [p for m in (*inst.blocks(), *params) for p in (m.a1, m.a2)]
        for sol in (family.assemble(), family.particular,
                    family.assemble(params),
                    family.assemble(dict(zip(names, params)))):
            for m in sol:
                assert type(m) is QMatrix
                assert m.a1.flags.writeable and m.a2.flags.writeable
                for plane in (m.a1, m.a2):
                    assert not any(np.shares_memory(plane, p)
                                   for p in given)


def _lifts(cls) -> int:
    depth = 0
    while cls.LIFT is not None:
        cls, depth = cls.LIFT[0], depth + 1
    return depth


@pytest.mark.parametrize("variant", VARIANTS)
def test_check_then_solve_prepares_the_instance_once(variant, monkeypatch):
    """``require()``, the lifts and the equilibration run on the first
    call only: the later ones find the work of the same instance."""
    inst, _ = gen_planted(variant, 2, 1, "j")
    calls = []
    for owner, name in ((families.ShapedInstance, "require"),
                        (families.ShapedInstance, "lift"),
                        (families, "_equilibrated")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    want = sorted(["_equilibrated", "require"]
                  + ["lift"] * _lifts(type(inst)))
    evict()
    calls.clear()
    families.check(inst, TOL)
    assert sorted(calls) == want
    families.solve(inst, TOL).assemble()
    families.check(inst, TOL)
    assert sorted(calls) == want


def test_lifts_map_right_sides_to_right_sides():
    """A work is shared on equal coefficient bytes of the caller's
    instance, which fix the root's coefficients only if no lift fills a
    coefficient slot from a right side, or the reverse."""
    lifted = [e.instance_type for e in VARIANT_TABLE.values()
              if e.instance_type.LIFT is not None]
    assert lifted
    for cls in lifted:
        target, slots, _ = cls.LIFT
        for slot, means in slots.items():
            for own in means:
                assert ((slot in target.rhs_names())
                        == (own.removesuffix(ETA_STAR) in cls.rhs_names())), (
                            cls.__name__, slot)


def test_a_new_right_side_copies_only_the_right_sides():
    inst, _ = gen_planted("eta-full", 2, 1, "k")
    evict()
    families.check(inst)
    held = families._SLOT[0].caller
    scaled = replace(inst, **{n: getattr(inst, n).copy()
                              for n in inst.rhs_names()})
    for name in scaled.rhs_names():
        getattr(scaled, name).a1[...] *= 3.0
    families.check(scaled)
    caller = families._SLOT[0].caller
    for name in inst.block_names():
        mine, theirs = getattr(caller, name), getattr(scaled, name)
        assert not any(np.shares_memory(p, q) for p in (mine.a1, mine.a2)
                       for q in (theirs.a1, theirs.a2))
        assert (mine is getattr(held, name)) == (
            name in inst.coefficient_names())


def test_one_scan_checks_the_blocks_and_gives_their_exponents():
    inst, _ = gen_planted("eta-mixed", 2, 0, "j")
    assert inst.require() == dict(zip(inst.block_names(),
                                      max_exponents(inst.blocks())))
    for name in ("A1", "D3"):
        for bad in (np.nan, np.inf, -np.inf):
            edited = inst.copy()
            getattr(edited, name).a2[0, 1] = complex(0.0, bad)
            with pytest.raises(ValueError,
                               match=f"^{name} has a non-finite entry$"):
                edited.require()
    top = QMatrix.zeros(2, 2)
    top.a1[1, 0] = complex(0.0, -3.0)
    assert max_exponents([QMatrix.zeros(2, 2), QMatrix.zeros(0, 3), top,
                          QMatrix(np.full((1, 1), np.nan))]) == [
        None, None, 2, np.inf]


# -- held norms and held products ----------------------------------------------

def test_solve_after_check_forms_no_certificate_product(monkeypatch):
    inst, _ = gen_planted("master", 2, 0)
    evict()
    calls = []
    for name in ("compat_terms", "mp_terms"):
        terms = getattr(_MasterWork, name)
        monkeypatch.setattr(_MasterWork, name, lambda self, terms=terms,
                            name=name: calls.append(name) or terms(self))
    report = families.check(inst)
    assert report.consistent
    products = _Products(monkeypatch)
    family = families.solve(inst)
    family.assemble()
    assert sorted(calls) == ["compat_terms", "mp_terms"]
    # the particular solution's right-side products, then the
    # residual_terms of the particular solution that solve verifies; the
    # 22 with an operand that is a free zero, the Zero pinv or an
    # Identity projector of a rank-0 block (the vw3 kernel's M and N),
    # or one of U's and V's empty halves cost no product
    assert products.n == 50
    assert families.check(inst) == report
    assert sorted(calls) == ["compat_terms", "mp_terms"]


def test_thresholds_follow_tol_on_held_norms():
    inst = gen_unsolvable("two-term", 2, 0)
    evict()
    loose = families.check(inst, 1e3)
    tight = families.check(inst, 1e-9)
    for a, b in zip(loose.mp_conditions, tight.mp_conditions):
        assert a.name == b.name and a.residual == b.residual
        assert (a.threshold, b.threshold) == (1e3, 1e-9)
    evict()
    assert families.check(inst, 1e3) == loose


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
    assert same_bits(got[0], x3) and same_bits(got[1], x4)
    five, _ = gen_planted("five-term", 3, 2)
    w = _MasterWork(five.lift()[0])
    f, bC, bD = w.factors, w.factors.bC, w.factors.bD
    assert same_bits(w.F1, bC[0].pinv @ w.L1 @ bD[0].pinv
                     + bC[0].proj_left @ bC[1].pinv @ w.L2 @ bD[1].pinv)
    assert same_bits(w.F2, bC[2].pinv @ w.L3 @ bD[2].pinv
                     + bC[2].proj_left @ bC[3].pinv @ w.L4 @ bD[3].pinv)
    assert same_bits(f.c11_pc11, f.C11 @ f.bC11.pinv)
    assert same_bits(f.a1_pa1, f.reduced[0] @ f.bA1.pinv)


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
    for size in (0, 2):
        inst, _ = gen_planted(variant, size, 1, "k")
        evict()
        assert families.check(inst, TOL).forms_agree
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
