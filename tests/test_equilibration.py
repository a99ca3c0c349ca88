"""One zero rule: ``check`` and ``solve`` equilibrate the caller's
instance by powers of two before any lift, and test every compatibility
and residual condition at ``tol`` on the equilibrated root.

These tests pin how: every variant reaches one of three roots; no
variant and no root uses one coefficient factor in two equations, which
makes per-equation scaling valid; a cold check scans the blocks once;
and the largest equilibrated right-side entry is in [1/2, 1).  That
scaled right sides, equations or unknowns move no verdict is the
contract of ``tests/test_invariance.py``.
"""

import math

import pytest

from qsylv.harness import VARIANT_TABLE, VARIANTS, gen_planted
from qsylv.qmatrix import Zero
from qsylv.solvers import families
from qsylv.solvers.families import _reduced, check

from tests.conftest import equilibrated_root, evict, scaled_rhs

TOL = 1e-9


def _roots():
    types = {}
    for variant in VARIANTS:
        root, _ = _reduced(gen_planted(variant, 1, 0)[0])
        types[type(root).__name__] = type(root)
    return types


def test_every_variant_reaches_one_of_three_roots():
    assert sorted(_roots()) == ["MasterInstance", "PairInstance",
                                "TwoTermInstance"]


def _one_equation_per_factor(cls):
    seen = {}
    for rhs, terms in cls.TERMS.items():
        for left, _, right, _ in terms:
            factor = left or right
            assert factor in cls.coefficient_names()
            assert seen.setdefault(factor, rhs) == rhs, factor


@pytest.mark.parametrize("root", sorted(_roots()))
def test_no_root_uses_a_coefficient_factor_in_two_equations(root):
    _one_equation_per_factor(_roots()[root])


@pytest.mark.parametrize("variant", VARIANTS)
def test_no_variant_uses_a_coefficient_factor_in_two_equations(variant):
    # the equilibration scales the caller's own equations
    _one_equation_per_factor(VARIANT_TABLE[variant].instance_type)


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_cold_check_scans_the_blocks_once(variant, monkeypatch):
    """The exponents of ``require()``'s scan equilibrate the caller's
    instance, so a lifted one is not scanned again after its lift."""
    inst, _ = gen_planted(variant, 2, 0, "j")
    evict()
    calls, scan = [], families.max_exponents

    def counted(mats):
        calls.append(len(mats))
        return scan(mats)

    monkeypatch.setattr(families, "max_exponents", counted)
    check(inst, TOL)
    assert calls == [len(inst.block_names())]


def test_a_free_zero_times_a_scalar_is_the_zero():
    zero = Zero(2, 3)
    assert (zero * 0.25) is zero and (4.0 * zero) is zero


def test_the_largest_equilibrated_right_side_entry_is_in_half_one():
    inst, _ = gen_planted("master", 2, 0)
    for t in (1e-300, 1.0, 3e300):
        root, k = equilibrated_root(scaled_rhs(inst, t))
        top = max(abs(p).max() for n in root.rhs_names()
                  for p in getattr(root, n).components())
        assert 0.5 <= top < 1.0
        assert abs(k - math.log2(t)) < 8
