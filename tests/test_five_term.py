"""Five-term beyond ``test_decision``'s contract: zero and invertible
coefficients, the Roth equation, shape and parameter validation, and
its report as the master report of its lift."""

import pytest

from qsylv import (DimensionError, FiveTermInstance, Inconsistent, QMatrix,
                   check_five_term, check_master, solve_five_term,
                   verify_solution)
from qsylv.harness import gen_planted, gen_unsolvable

from tests.conftest import evict


def coupling_defect(inst, sol):
    """|A1 X1 + X2 B1 + A2 Y1 B2 + A3 Y2 B3 + A4 Y3 B4 - B|, the norm of
    the system's one residual term."""
    (_, defect, _), = inst.residual_terms(sol)
    return defect.norm()


def planted(rand_q, p, q, dims):
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = dims
    mats = dict(
        A1=rand_q(p, a1), B1=rand_q(b1, q), A2=rand_q(p, a2),
        B2=rand_q(b2, q), A3=rand_q(p, a3), B3=rand_q(b3, q),
        A4=rand_q(p, a4), B4=rand_q(b4, q))
    wit = (rand_q(a1, q), rand_q(p, b1), rand_q(a2, b2),
           rand_q(a3, b3), rand_q(a4, b4))
    rhs = (mats["A1"] @ wit[0] + wit[1] @ mats["B1"]
           + mats["A2"] @ wit[2] @ mats["B2"]
           + mats["A3"] @ wit[3] @ mats["B3"]
           + mats["A4"] @ wit[4] @ mats["B4"])
    return FiveTermInstance(B=rhs, **mats), wit


class TestSolve:
    def test_zero_coefficients_decide_by_the_right_side(self, rand_q):
        z, zb = QMatrix.zeros(3, 2), QMatrix.zeros(2, 3)
        inst = FiveTermInstance(z, zb, z, zb, z, zb, z, zb,
                                QMatrix.zeros(3, 3))
        report = check_five_term(inst)
        assert report.consistent and report.forms_agree
        fam = solve_five_term(inst)
        assert all(m.norm() == 0.0 for m in fam.particular)
        bad = FiveTermInstance(z, zb, z, zb, z, zb, z, zb, rand_q(3, 3))
        assert isinstance(solve_five_term(bad), Inconsistent)

    def test_invertible_a1_reaches_every_right_side(self, rng, rand_q):
        for _ in range(10):
            inst = FiveTermInstance(rand_q(3, 3), rand_q(2, 3), rand_q(3, 2),
                                    rand_q(2, 3), rand_q(3, 2), rand_q(2, 3),
                                    rand_q(3, 2), rand_q(2, 3), rand_q(3, 3))
            assert check_five_term(inst).consistent
            fam = solve_five_term(inst)
            sol = fam.assemble(fam.random_params(rng))
            assert verify_solution(inst, sol).passed

    def test_reduces_to_roth_equation(self, rng, rand_q):
        a1, b1 = rand_q(3, 2), rand_q(2, 4)
        x1, x2 = rand_q(2, 4), rand_q(3, 2)
        z, zb = QMatrix.zeros(3, 0), QMatrix.zeros(0, 4)
        inst = FiveTermInstance(a1, b1, z, zb, z, zb, z, zb,
                                a1 @ x1 + x2 @ b1)
        fam = solve_five_term(inst)
        for _ in range(3):
            sol = fam.assemble(fam.random_params(rng))
            assert coupling_defect(inst, sol) <= 1e-10
            assert sol[2].shape == (0, 0)

    def test_dimension_validation(self, rand_q):
        with pytest.raises(Exception):
            FiveTermInstance(rand_q(2, 2), rand_q(2, 3), rand_q(3, 2),
                             rand_q(2, 3), rand_q(3, 2), rand_q(2, 3),
                             rand_q(3, 2), rand_q(2, 3), rand_q(3, 3))

    def test_param_shape_validation(self, rand_q):
        inst, _ = planted(rand_q, 3, 3, [(2, 2)] * 4)
        fam = solve_five_term(inst)
        with pytest.raises(DimensionError, match="parameter W11 has shape"):
            fam.assemble({"W11": QMatrix.zeros(1, 1)})
        with pytest.raises(KeyError):
            fam.assemble({"nope": QMatrix.zeros(1, 1)})


@pytest.mark.parametrize("truth", ("planted", "unsolvable"))
def test_check_is_the_master_check_of_the_lift(truth):
    """The five-term equation is the master coupling equation with empty
    side equations: its report is the master report of its lift, each
    built cold, with the nine residual and nine rank conditions of the
    coupling equation and nothing of the empty sides."""
    for size in (1, 2, 3):
        for seed in (0, 1):
            if truth == "planted":
                inst, _ = gen_planted("five-term", size, seed)
            else:
                inst = gen_unsolvable("five-term", size, seed)
            evict()
            got = check_five_term(inst)
            evict()
            want = check_master(inst.lift()[0])
            assert got.to_dict() == want.to_dict()
            assert got.consistent == (truth == "planted")
            assert got.compat_conditions == []
            assert [c.name for c in got.mp_conditions] == [
                "R_G1*L1", "L1*L_H1", "R_G2*L2", "L2*L_H2", "R_G3*L3",
                "L3*L_H3", "R_G4*L4", "L4*L_H4", "R_E22*E*L_E33"]
            assert [c.name for c in got.rank_conditions] == [
                f"R{i}" for i in range(1, 10)]
