"""Eta systems beyond ``test_decision``'s contract: ``symmetrize``, the
doubling both ways, the doubled rank halves, eta-two as its two-term
lift, the precondition and the coupling defects ``require()`` accepts.
Its planted, zero and twin cases repeat the contract on single instances.
"""

import dataclasses

import numpy as np
import pytest

from qsylv import (ETAS, Inconsistent, QMatrix, check, check_eta_full,
                   check_eta_mixed, check_eta_three, check_eta_two,
                   check_two_term, solve, solve_eta_full, solve_eta_mixed,
                   solve_eta_three, solve_eta_two, solve_master, symmetrize)
from qsylv.harness import gen_planted, verify_solution
from qsylv.qmatrix import rand_qmatrix

from tests.conftest import worst_rel


def herm_defect(m, eta):
    return (m - m.eta_conj_transpose(eta)).norm()


class TestSymmetrize:
    def test_fixed_point(self, rand_q):
        x = symmetrize(rand_q(3, 3), "j")
        assert (symmetrize(x, "j") - x).norm() == 0.0

    def test_pure_imaginary_scalar_averages_to_zero(self):
        x = QMatrix.from_entries([[(0, 1, 0, 0)]])
        assert symmetrize(x, "i").norm() == 0.0

    @pytest.mark.parametrize("eta", ETAS)
    def test_output_eta_hermitian(self, eta, rand_q):
        y = symmetrize(rand_q(4, 4), eta)
        assert herm_defect(y, eta) <= 1e-15 * (1 + y.norm())

    def test_requires_square(self, rand_q):
        with pytest.raises(Exception):
            symmetrize(rand_q(2, 3), "i")


@pytest.mark.parametrize("eta", ETAS)
class TestEtaFull:
    def test_planted(self, eta, rng):
        inst, wit = gen_planted("eta-full", 2, seed=31, eta=eta)
        rep = check_eta_full(inst)
        assert rep.consistent and rep.forms_agree
        fam = solve_eta_full(inst)
        assert not isinstance(fam, Inconsistent)
        for _ in range(3):
            sol = fam.assemble(fam.random_params(rng))
            assert worst_rel(inst, sol) <= 1e-8
            for m in sol[1:]:
                assert herm_defect(m, eta) <= 1e-12 * (1 + m.norm())

    def test_zero_instance(self, eta):
        inst, _ = gen_planted("eta-full", 2, seed=32, eta=eta)
        zero = dataclasses.replace(inst, **{
            f: QMatrix.zeros(*getattr(inst, f).shape)
            for f in ("C1", "C2", "C3", "C4", "Cc")})
        fam = solve_eta_full(zero)
        assert all(m.norm() <= 1e-12 for m in fam.particular)

    def test_non_hermitian_perturbation_inconsistent(self, eta, rand_q):
        inst, _ = gen_planted("eta-full", 2, seed=33, eta=eta)
        pert = symmetrize(rand_q(*inst.Cc.shape), eta)
        bad = dataclasses.replace(inst, Cc=inst.Cc + pert)
        res = solve_eta_full(bad)
        assert isinstance(res, Inconsistent)

    def test_non_hermitian_cc_rejected(self, eta, rand_q):
        inst, _ = gen_planted("eta-full", 2, seed=34, eta=eta)
        skew = rand_q(*inst.Cc.shape)
        skew = (skew - skew.eta_conj_transpose(eta)) * 0.5
        bad = dataclasses.replace(inst, Cc=inst.Cc + skew)
        with pytest.raises(ValueError):
            solve_eta_full(bad)

    def test_doubled_reduction_both_directions(self, eta, rng):
        inst, wit = gen_planted("eta-full", 2, seed=35, eta=eta)
        u, x, y, z = wit
        doubled = inst.to_master()
        ec = lambda m: m.eta_conj_transpose(eta)
        # a solution of the constrained system solves the doubled one
        lift = (u, ec(u), x, y, z)
        assert verify_solution(doubled, lift, tol=1e-10).passed
        # and a doubled solution averages back to a constrained one
        fam = solve_master(doubled)
        u1, u2, xt, yt, zt = fam.assemble(fam.random_params(rng))
        back = ((u1 + ec(u2)) * 0.5, symmetrize(xt, eta),
                symmetrize(yt, eta), symmetrize(zt, eta))
        assert verify_solution(inst, back, tol=1e-10).passed


@pytest.mark.parametrize("eta", ETAS)
class TestEtaThree:
    def test_planted_and_rank_list(self, eta, rng):
        inst, wit = gen_planted("eta-three", 2, seed=41, eta=eta)
        rep = check_eta_three(inst)
        assert rep.consistent and rep.forms_agree
        for cond in rep.rank_conditions:
            assert cond.lhs == cond.rhs
        fam = solve_eta_three(inst)
        sol = fam.assemble(fam.random_params(rng))
        assert worst_rel(inst, sol) <= 1e-8
        for m in sol:
            assert herm_defect(m, eta) <= 1e-12 * (1 + m.norm())

    def test_doubled_rank_halves_are_equal(self, eta):
        # the doubled certificate's final rank condition has mirrored
        # halves of equal rank, realizing its "= 2 r(...)" form
        from qsylv.decomp import rank
        from qsylv.qmatrix import block
        inst, _ = gen_planted("eta-three", 2, seed=42, eta=eta)
        m = inst.to_full().to_master()
        lhs_f = block([[m.F3, None, m.B3, None, None, None, None],
                       [m.F1, None, None, m.B1, None, None, None],
                       [None, m.F2, None, None, m.B2, None, None],
                       [None, m.F1, None, None, None, m.B1, None],
                       [m.F4, m.F4, None, None, None, None, m.B4]])
        rhs_e = block([[m.E2, m.E1, None, None, m.E4],
                       [None, None, m.E3, m.E1, m.E4],
                       [m.A2, None, None, None, None],
                       [None, m.A1, None, None, None],
                       [None, None, m.A3, None, None],
                       [None, None, None, m.A1, None],
                       [None, None, None, None, m.A4]])
        assert rank(lhs_f) == rank(rhs_e)


@pytest.mark.parametrize("eta", ETAS)
class TestEtaTwo:
    def test_zero_rhs(self, eta, rand_q):
        b1, c1 = rand_q(4, 3), rand_q(4, 2)
        fam = solve_eta_two(b1, c1, QMatrix.zeros(4, 4), eta)
        y, z = fam.particular
        assert y.norm() == 0.0 and z.norm() == 0.0

    def test_invertible_single_term(self, eta, rand_q):
        b1 = rand_q(3, 3)
        yw = symmetrize(rand_q(3, 3), eta)
        d1 = b1 @ yw @ b1.eta_conj_transpose(eta)
        fam = solve_eta_two(b1, QMatrix.zeros(3, 0), d1, eta)
        y, z = fam.particular
        assert (y - yw).norm() <= 1e-10 * (1 + yw.norm())
        assert z.shape == (0, 0)

    def test_planted_sweep(self, eta, rng):
        inst, wit = gen_planted("eta-two", 2, seed=51, eta=eta)
        assert verify_solution(inst, wit).passed
        fam = solve_eta_two(inst.B1, inst.C1, inst.D1, eta)
        for _ in range(5):
            sol = fam.assemble(fam.random_params(rng))
            assert worst_rel(inst, sol) <= 1e-9
            for m in sol:
                assert herm_defect(m, eta) <= 1e-12 * (1 + m.norm())

    def test_precondition(self, eta, rand_q):
        with pytest.raises(ValueError):
            solve_eta_two(rand_q(3, 2), rand_q(3, 2), rand_q(3, 3), eta)

    def test_precondition_is_scale_relative(self, eta, rand_q):
        inst, _ = gen_planted("eta-two", 2, seed=52, eta=eta)
        bad = inst.D1 + rand_q(*inst.D1.shape)
        for scale in (1.0, 1e-12):
            with pytest.raises(ValueError, match="^D1 is not eta-Hermitian"):
                solve_eta_two(inst.B1, inst.C1, bad * scale, eta)
        fam = solve_eta_two(inst.B1, inst.C1,
                            QMatrix.zeros(*inst.D1.shape), eta)
        assert not isinstance(fam, Inconsistent)

    def test_reports_and_family_are_the_two_term_lift(self, eta):
        # B1 Y B1^{eta*} + C1 Z C1^{eta*} = D1 is decided as the
        # two-term equation C3 X3 D3 + C4 X4 D4 = E1, E1 the eta-Hermitian
        # part of D1
        inst, _ = gen_planted("eta-two", 2, seed=53, eta=eta)
        ec = lambda m: m.eta_conj_transpose(eta)
        lifted = check_two_term(inst.B1, ec(inst.B1), inst.C1, ec(inst.C1),
                                symmetrize(inst.D1, eta))
        assert check_eta_two(inst).to_dict() == lifted.to_dict()
        fam = solve_eta_two(inst.B1, inst.C1, inst.D1, eta)
        assert [p.name for p in fam.free_params] == [
            "Y11", "Y12", "Y13", "Y14", "Y15"]


@pytest.mark.parametrize("eta", ETAS)
class TestEtaMixed:
    def test_planted_sweep(self, eta, rng):
        inst, wit = gen_planted("eta-mixed", 2, seed=61, eta=eta)
        assert verify_solution(inst, wit).passed
        fam = solve_eta_mixed(inst.A1, inst.C1, inst.B1, inst.D1,
                              inst.A2, inst.A3, inst.D3, eta)
        assert not isinstance(fam, Inconsistent)
        for _ in range(4):
            sol = fam.assemble(fam.random_params(rng))
            assert worst_rel(inst, sol) <= 1e-9
            for m in sol:
                assert herm_defect(m, eta) <= 1e-12 * (1 + m.norm())

    def test_condition_forms_agree_on_fuzz(self, eta, rand_q):
        inst, _ = gen_planted("eta-mixed", 2, seed=62, eta=eta)
        pert = symmetrize(rand_q(*inst.D3.shape), eta)
        bad = dataclasses.replace(inst, D3=inst.D3 + pert)
        rep = check_eta_mixed(bad)
        assert not rep.consistent
        assert rep.forms_agree

    def test_zero_instance(self, eta):
        inst, _ = gen_planted("eta-mixed", 2, seed=63, eta=eta)
        zero = dataclasses.replace(inst, **{
            f: QMatrix.zeros(*getattr(inst, f).shape)
            for f in ("C1", "D1", "D3")})
        fam = solve_eta_mixed(zero.A1, zero.C1, zero.B1, zero.D1,
                              zero.A2, zero.A3, zero.D3, eta)
        assert all(m.norm() <= 1e-12 for m in fam.particular)


@pytest.mark.parametrize("defect", (1e-12, 1e-11, 1e-10, 4e-10))
@pytest.mark.parametrize("variant", ("eta-full", "eta-three", "eta-two",
                                     "eta-mixed"))
def test_accepted_defect_splits_no_forms(variant, defect):
    # require() accepts a coupling right side whose eta-Hermitian defect
    # is at most 1e-9 of its norm, far above the rank form's cut; the
    # work lifts its eta-Hermitian part, so the forms judge the same data
    for size in (1, 2):
        for seed in (0, 1, 2):
            inst, _ = gen_planted(variant, size, seed, eta="j")
            name = inst.rhs_names()[-1]
            c = getattr(inst, name)
            a = rand_qmatrix(np.random.default_rng(seed), *c.shape)
            anti = a - a.eta_conj_transpose("j")
            moved = dataclasses.replace(
                inst, **{name: c + anti * (defect * c.norm() / anti.norm())})
            report = check(moved)
            assert report.consistent and report.forms_agree, (size, seed)
            fam = solve(moved)
            assert not isinstance(fam, Inconsistent), (size, seed)
            assert verify_solution(moved, fam.particular).passed
