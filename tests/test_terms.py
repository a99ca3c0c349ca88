"""Each instance type's TERMS table: it names real blocks and unknowns,
its products have the shapes of their right sides, and the residual
list, the planted right sides and the coupling field all follow it."""

import dataclasses

import numpy as np
import pytest

from qsylv import QMatrix
from qsylv.harness import VARIANT_TABLE, VARIANTS, gen_planted, gen_unsolvable
from qsylv.qmatrix import DimensionError, rand_qmatrix
from qsylv.solvers.families import ETA_STAR

CASES = [(v, eta) for v in VARIANTS
         for eta in ("ijk" if v.startswith("eta-") else "i")]

# the entry names that ``verify`` reports and the CLI print, in order
RESIDUAL_NAMES = {
    "pair": ("A*X=C", "X*B=D"),
    "master": ("A1*U=C1", "V*B1=D1", "A2*X=C2", "X*B2=D2", "A3*Y=C3",
               "Y*B3=D3", "A4*Z=C4", "Z*B4=D4", "coupling=Cc"),
    "three-term": ("A1*X=C1", "X*B1=D1", "A2*Y=C2", "Y*B2=D2", "A3*Z=C3",
                   "Z*B3=D3", "coupling=C"),
    "mixed": ("A1*X1=C1", "X1*B1=C2", "A2*X2=C3", "X2*B2=C4",
              "coupling=Cc"),
    "two-term": ("coupling=E1",),
    "five-term": ("coupling=B",),
    "eta-full": ("A1*U=C1", "A2*X=C2", "A3*Y=C3", "A4*Z=C4", "coupling=Cc",
                 "X=X^eta*", "Y=Y^eta*", "Z=Z^eta*"),
    "eta-three": ("A1*X=C1", "A2*Y=C2", "A3*Z=C3", "coupling=C",
                  "X=X^eta*", "Y=Y^eta*", "Z=Z^eta*"),
    "eta-two": ("coupling=D1", "Y=Y^eta*", "Z=Z^eta*"),
    "eta-mixed": ("A1*X=C1", "Y*B1=D1", "coupling=D3", "X=X^eta*",
                  "Y=Y^eta*"),
}


def _block_names(cls):
    return {f.name for f in dataclasses.fields(cls) if f.name != "eta"}


def _factor_shape(cls, name):
    """The named dimensions of a factor; ``^eta*`` transposes them."""
    if name.endswith(ETA_STAR):
        rows, cols = cls.SHAPES[name[:-len(ETA_STAR)]]
        return cols, rows
    return cls.SHAPES[name]


@pytest.mark.parametrize("variant, eta", CASES)
def test_terms_name_real_blocks_and_unknowns(variant, eta):
    cls = VARIANT_TABLE[variant].instance_type
    blocks, unknowns = _block_names(cls), set(cls.unknown_names())
    assert cls.TERMS
    for rhs, terms in cls.TERMS.items():
        assert rhs in blocks, rhs
        for left, unknown, right, eta_conj in terms:
            assert unknown in unknowns, (rhs, unknown)
            for factor in (left, right):
                if factor is not None:
                    assert factor.removesuffix(ETA_STAR) in blocks, factor
            assert isinstance(eta_conj, bool)
    assert set(cls.ETA_HERMITIAN) <= unknowns
    uses_eta = bool(cls.ETA_HERMITIAN) or any(
        t[3] or ETA_STAR in f"{t[0]}{t[2]}"
        for terms in cls.TERMS.values() for t in terms)
    assert uses_eta == ("eta" in cls.__dataclass_fields__)


@pytest.mark.parametrize("variant, eta", CASES)
def test_every_product_has_its_right_sides_shape(variant, eta):
    cls = VARIANT_TABLE[variant].instance_type
    for rhs, terms in cls.TERMS.items():
        for left, unknown, right, eta_conj in terms:
            rows, cols = cls.SHAPES[unknown]
            if left is not None:
                l_rows, l_cols = _factor_shape(cls, left)
                assert l_cols == rows, (rhs, left, unknown)
                rows = l_rows
            if right is not None:
                r_rows, r_cols = _factor_shape(cls, right)
                assert r_rows == cols, (rhs, unknown, right)
                cols = r_cols
            if eta_conj:
                rows, cols = cols, rows
            assert (rows, cols) == cls.SHAPES[rhs], (rhs, left, unknown, right)


@pytest.mark.parametrize("variant, eta", CASES)
def test_residual_names_are_pinned_and_witnesses_solve(variant, eta):
    tol = 1e-12
    for size in (1, 2, 3):
        for seed in (0, 1):
            inst, wit = gen_planted(variant, size, seed, eta)
            terms = inst.residual_terms(wit)
            assert tuple(n for n, _, _ in terms) == RESIDUAL_NAMES[variant]
            for name, defect, scale in terms:
                assert defect.norm() <= tol * scale, (name, size, seed)


@pytest.mark.parametrize("variant, eta", CASES)
def test_unsolvable_twin_moves_only_the_coupling_right_side(variant, eta):
    entry = VARIANT_TABLE[variant]
    coupling = entry.instance_type.rhs_names()[-1]
    base, _ = entry.planted(2, 1, eta, twin=True)
    twin = gen_unsolvable(variant, 2, 1, eta)
    moved = {name for name in _block_names(type(twin))
             if (getattr(twin, name) - getattr(base, name)).norm() != 0.0}
    assert moved == {coupling}


# the blocks of one planted instance (size 2, seed 0, eta = j) after its
# lift, in the target's field order
LIFTED_SHAPES = {
    "three-term": ((0, 0), (2, 3), (2, 3), (2, 3), (0, 0), (3, 2), (3, 2),
                   (3, 2), (0, 4), (2, 3), (2, 3), (2, 3), (4, 0), (3, 2),
                   (3, 2), (3, 2), (4, 0), (4, 3), (4, 3), (4, 3), (0, 4),
                   (3, 4), (3, 4), (3, 4), (4, 4)),
    "mixed": ((0, 0), (2, 3), (2, 3), (0, 0), (0, 0), (3, 2), (3, 2), (0, 0),
              (0, 4), (2, 3), (2, 3), (0, 0), (4, 0), (3, 2), (3, 2), (0, 0),
              (4, 0), (4, 3), (4, 3), (4, 0), (0, 4), (3, 4), (3, 4), (0, 4),
              (4, 4)),
    "five-term": ((0, 2), (0, 3), (0, 3), (0, 3), (2, 0), (3, 0), (3, 0),
                  (3, 0), (0, 4), (0, 3), (0, 3), (0, 3), (4, 0), (3, 0),
                  (3, 0), (3, 0), (4, 2), (4, 3), (4, 3), (4, 3), (2, 4),
                  (3, 4), (3, 4), (3, 4), (4, 4)),
    "eta-full": ((2, 3), (2, 3), (2, 3), (2, 3), (3, 2), (3, 2), (3, 2),
                 (3, 2), (2, 4), (2, 3), (2, 3), (2, 3), (4, 2), (3, 2),
                 (3, 2), (3, 2), (4, 3), (4, 3), (4, 3), (4, 3), (3, 4),
                 (3, 4), (3, 4), (3, 4), (4, 4)),
    "eta-three": ((0, 0), (2, 3), (2, 3), (2, 3), (0, 4), (2, 3), (2, 3),
                  (2, 3), (4, 0), (4, 3), (4, 3), (4, 3), (4, 4)),
    "eta-two": ((4, 3), (3, 4), (4, 2), (2, 4), (4, 4)),
    "eta-mixed": ((2, 3), (2, 3), (0, 0), (2, 3), (2, 3), (0, 0), (4, 3),
                  (4, 3), (4, 0), (4, 4)),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_each_type_has_a_work_or_a_lift(variant):
    cls = VARIANT_TABLE[variant].instance_type
    assert (cls.WORK is None) != (cls.LIFT is None)
    assert (cls.LIFT is not None) == (variant in LIFTED_SHAPES)


@pytest.mark.parametrize("variant", sorted(LIFTED_SHAPES))
def test_lift_slots_name_real_blocks(variant):
    cls = VARIANT_TABLE[variant].instance_type
    target, slots, back = cls.LIFT
    own = set(cls.block_names())
    fed = set()
    for slot, means in slots.items():
        assert slot in target.block_names(), slot
        assert means, slot
        for name in means:
            assert name.removesuffix(ETA_STAR) in own, name
            assert not name.endswith(ETA_STAR) or cls.ETA_HERMITIAN, name
            fed.add(name.removesuffix(ETA_STAR))
    # a typo cannot leave a block of this type unused
    assert fed == own
    assert tuple(back) == cls.unknown_names()
    for unknown, means in back.items():
        assert means and all(
            n.removesuffix(ETA_STAR) in target.unknown_names()
            for n in means), unknown
        assert all(not n.endswith(ETA_STAR) or cls.ETA_HERMITIAN
                   for n in means), unknown


@pytest.mark.parametrize("variant", sorted(LIFTED_SHAPES))
def test_lifted_shapes_are_pinned(variant):
    inst, wit = gen_planted(variant, 2, 0, "j")
    lifted, project = inst.lift()
    assert type(lifted) is type(inst).LIFT[0]
    assert tuple(m.shape for m in lifted.blocks()) == LIFTED_SHAPES[variant]
    assert getattr(lifted, "eta", "j") == "j"
    # the map back keeps the shapes of this type's unknowns
    shapes = lifted.unknown_shapes()
    sol = project([QMatrix.zeros(*s) for s in shapes.values()])
    assert [m.shape for m in sol] == [m.shape for m in wit]


def _equal(a, b) -> bool:
    """Entry by entry equal (a zero equals a negative zero)."""
    return np.array_equal(a.a1, b.a1) and np.array_equal(a.a2, b.a2)


@pytest.mark.parametrize("variant, eta", [c for c in CASES
                                          if c[0] in LIFTED_SHAPES])
def test_lifts_are_tables_of_means(variant, eta):
    # an eta type's coupling slot is the mean of its right side and that
    # side's eta-conjugate transpose, so a defect require() accepts
    # reaches no target block; every one-name slot hands the target the
    # caller's block itself, or its eta-conjugate transpose
    cls = VARIANT_TABLE[variant].instance_type
    for size in (1, 2):
        inst, _ = gen_planted(variant, size, 0, eta)
        name = inst.rhs_names()[-1]
        c = getattr(inst, name)
        if cls.ETA_HERMITIAN:
            a = rand_qmatrix(np.random.default_rng(size), *c.shape)
            anti = a - a.eta_conj_transpose(eta)
            inst = dataclasses.replace(
                inst, **{name: c + anti * (1e-10 * c.norm() / anti.norm())})
            inst.require()
        lifted = inst.lift()[0]
        if cls.ETA_HERMITIAN:
            side = getattr(lifted, lifted.rhs_names()[-1])
            assert _equal(side, side.eta_conj_transpose(eta))
            assert not _equal(side, getattr(inst, name))
            # eta is checked before the shapes
            with pytest.raises(ValueError, match="eta must be one of") as exc:
                dataclasses.replace(inst, eta="q", **{
                    name: QMatrix.zeros(c.rows + 1, c.cols)})
            assert not isinstance(exc.value, DimensionError)
        for slot, (own, *rest) in cls.LIFT[1].items():
            if rest:
                continue
            got = getattr(lifted, slot)
            if own.endswith(ETA_STAR):
                block = getattr(inst, own.removesuffix(ETA_STAR))
                assert _equal(got, block.eta_conj_transpose(eta))
            else:
                assert got is getattr(inst, own), (slot, own)
