"""Eta systems beyond ``test_decision``'s contract: ``symmetrize``, the
doubled rank halves, eta-two as its two-term lift and the precondition's
scale.  The doubling both ways is acceptance criterion 8.  The coupling
defects ``require()`` accepts are a row of ``tests/test_invariance.py``.
"""

import pytest

from qsylv import (ETAS, Inconsistent, QMatrix, check_eta_two,
                   check_two_term, solve_eta_two, symmetrize)
from qsylv.harness import gen_planted


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
class TestEtaThree:
    def test_doubled_rank_halves_are_equal(self, eta):
        # the doubled certificate's final rank condition has mirrored
        # halves of equal rank, realizing its "= 2 r(...)" form
        from qsylv.decomp import rank
        from qsylv.qmatrix import block
        inst, _ = gen_planted("eta-three", 2, seed=42, eta=eta)
        m = inst.lift()[0].lift()[0]
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
    def test_invertible_single_term(self, eta, rand_q):
        b1 = rand_q(3, 3)
        yw = symmetrize(rand_q(3, 3), eta)
        d1 = b1 @ yw @ b1.eta_conj_transpose(eta)
        fam = solve_eta_two(b1, QMatrix.zeros(3, 0), d1, eta)
        y, z = fam.particular
        assert (y - yw).norm() <= 1e-10 * (1 + yw.norm())
        assert z.shape == (0, 0)

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
