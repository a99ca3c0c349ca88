"""One zero rule: ``check`` and ``solve`` equilibrate the caller's
instance by powers of two before any lift, and test every compatibility
and residual condition at ``tol`` on the equilibrated root.

Scaling the right sides by a power of two changes nothing but the
scale of the solutions and of the free parameters, bit for bit.
Scaling the right sides, or whole equations, by any t in [1e-300,
1e300] leaves the verdict and ``forms_agree`` as they are; in an
equation of an eta system, the factor E of a term ``E W E^eta*`` takes
sqrt(t).
Per-equation scaling is valid because no variant and no root uses one
coefficient factor in two equations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsylv.harness import (VARIANT_TABLE, VARIANTS, gen_planted,
                           gen_unsolvable)
from qsylv.qmatrix import Zero
from qsylv.solvers import families
from qsylv.solvers.families import (Inconsistent, _equilibrated, _reduced,
                                    check, solve)

from tests.conftest import evict, planes, scaled_equations, scaled_rhs

TOL = 1e-9
POW2_EXPONENTS = (-900, -301, -1, 1, 37, 512, 900)


def _equilibrated_root(inst):
    """The root of ``inst`` as ``check`` builds it, and k: ``inst``
    equilibrated at the exponents of its ``require()`` scan, then
    lifted."""
    scaled, k = _equilibrated(inst, inst.require())
    return _reduced(scaled)[0], k


def _outcome(inst):
    report = check(inst, TOL)
    solved = not isinstance(solve(inst, TOL), Inconsistent)
    return report.consistent, report.forms_agree, solved


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


@pytest.mark.parametrize("variant", VARIANTS)
def test_power_of_two_right_sides_change_only_the_solution_scale(variant):
    for size in (1, 2, 3):
        planted, _ = gen_planted(variant, size, 0, "j")
        twin = gen_unsolvable(variant, size, 0, "j")
        base = {"planted": planted, "twin": twin}
        root = {k: planes(_equilibrated_root(v)[0].blocks())
                for k, v in base.items()}
        report = {k: repr(check(v, TOL).to_dict()) for k, v in base.items()}
        family = solve(planted, TOL)
        assert isinstance(solve(twin, TOL), Inconsistent)
        particular = family.assemble()
        params = family.random_params(np.random.default_rng(size))
        member = family.assemble(params)
        for s in POW2_EXPONENTS:
            for kind, inst in base.items():
                scaled = scaled_rhs(inst, 2.0 ** s)
                assert planes(_equilibrated_root(
                    scaled)[0].blocks()) == root[kind]
                assert repr(check(scaled, TOL).to_dict()) == report[kind]
            res = solve(scaled_rhs(planted, 2.0 ** s), TOL)
            want = planes(m * 2.0 ** s for m in particular)
            assert planes(res.assemble()) == want, (size, s)
            assert planes(res.assemble({})) == want, (size, s)
            # the parameters are in the data's units too
            assert planes(res.assemble([p * 2.0 ** s for p in params])) \
                == planes(m * 2.0 ** s for m in member), (size, s)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=15, deadline=None)
@given(exponent=st.floats(-300, 300), seed=st.integers(0, 2),
       twin=st.booleans())
def test_right_side_scale_leaves_the_verdict(variant, exponent, seed, twin):
    inst = (gen_unsolvable(variant, 2, seed, "j") if twin
            else gen_planted(variant, 2, seed, "j")[0])
    t = 10.0 ** exponent
    assert _outcome(scaled_rhs(inst, t)) == _outcome(inst) == (
        not twin, True, not twin)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=15, deadline=None)
@given(exponent=st.floats(-300, 300), seed=st.integers(0, 2),
       twin=st.booleans(), data=st.data())
def test_equation_scale_leaves_the_verdict(variant, exponent, seed, twin,
                                           data):
    # E and E^eta* take one shift (families._equilibrated), and the lift
    # doubles the scaled blocks, so an eta root stays a mirror
    inst = (gen_unsolvable(variant, 2, seed, "j") if twin
            else gen_planted(variant, 2, seed, "j")[0])
    names = inst.rhs_names()
    # every equation, or one of them
    which = data.draw(st.sampled_from((names,) + tuple((n,) for n in names)))
    scaled = scaled_equations(inst, 10.0 ** exponent, which)
    assert _outcome(scaled) == _outcome(inst) == (not twin, True, not twin)


def test_the_largest_equilibrated_right_side_entry_is_in_half_one():
    inst, _ = gen_planted("master", 2, 0)
    for t in (1e-300, 1.0, 3e300):
        root, k = _equilibrated_root(scaled_rhs(inst, t))
        top = max(abs(p).max() for n in root.rhs_names()
                  for p in getattr(root, n).components())
        assert 0.5 <= top < 1.0
        assert abs(k - math.log2(t)) < 8


@pytest.mark.parametrize("variant", VARIANTS)
def test_subnormal_data_keep_the_verdict(variant):
    # a largest entry below 2^-1022 scales by more than 2^1023, which is
    # not a double, so the scaling takes two steps
    for twin in (False, True):
        inst = (gen_unsolvable(variant, 2, 0, "j") if twin
                else gen_planted(variant, 2, 0, "j")[0])
        for scaled in (scaled_rhs(inst, 1e-310),
                       scaled_equations(inst, 1e-310, inst.rhs_names())):
            assert _outcome(scaled) == (not twin, True, not twin)
