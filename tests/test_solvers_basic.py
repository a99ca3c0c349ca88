"""The pair equations and two-term beyond ``test_decision``'s
contract: identity and zero coefficients, planted one-sided and paired
equations, the one-sided closed forms bit for bit, duality, a
single-term two-term equation and named failing conditions."""

import numpy as np
import pytest

from qsylv import (DimensionError, Inconsistent, PairInstance, QMatrix,
                   check_pair, pinv, solve_left, solve_pair, solve_right,
                   solve_two_term)


class TestSolveLeft:
    def test_identity_coefficient(self, rand_q):
        c = rand_q(3, 2)
        fam = solve_left(QMatrix.identity(3), c)
        (x,) = fam.particular
        assert (x - c).norm() <= 1e-14
        # L_A = 0: the one free parameter does not move the solution
        assert fam.free_param_shapes == [(3, 2)]
        (x2,) = fam.assemble([rand_q(3, 2)])
        assert (x2 - c).norm() <= 1e-13

    def test_zero_coefficient_full_freedom(self, rand_q):
        fam = solve_left(QMatrix.zeros(2, 2), QMatrix.zeros(2, 3))
        (x,) = fam.particular
        assert x.norm() == 0.0
        u = rand_q(2, 3)
        (x2,) = fam.assemble([u])
        assert (x2 - u).norm() == 0.0

    def test_planted(self, rng, rand_q):
        a, x0 = rand_q(3, 5), rand_q(5, 2)
        fam = solve_left(a, a @ x0)
        for _ in range(5):
            (x,) = fam.assemble(fam.random_params(rng))
            assert (a @ x - a @ x0).norm() <= 1e-10

    def test_inconsistent(self, rand_q):
        res = solve_left(rand_q(4, 2), rand_q(4, 3))
        assert isinstance(res, Inconsistent)
        assert "R_A*C" in res.failing_conditions
        assert res.report.forms_agree

    def test_dimension_error(self, rand_q):
        with pytest.raises(DimensionError):
            solve_left(rand_q(3, 2), rand_q(4, 2))


class TestSolveRight:
    def test_mirror_of_left_by_conj_transpose(self, rng, rand_q):
        # transpose-duality oracle: X A = C iff A* X* = C*
        a, c = rand_q(5, 3), rand_q(2, 5) @ rand_q(5, 3)
        fam = solve_right(a, c)
        dual = solve_left(a.conj_transpose(), c.conj_transpose())
        (x,) = fam.particular
        (xd,) = dual.particular
        assert (x - xd.conj_transpose()).norm() <= 1e-12
        for _ in range(3):
            (x,) = fam.assemble(fam.random_params(rng))
            assert (x @ a - c).norm() <= 1e-10

    def test_inconsistent(self, rand_q):
        assert isinstance(solve_right(rand_q(2, 4), rand_q(3, 4)),
                          Inconsistent)


def bitwise_equal(x, y):
    return np.array_equal(x.a1, y.a1) and np.array_equal(x.a2, y.a2)


# A wide (any C is consistent) and A tall (C planted in its range)
@pytest.mark.parametrize("rows, cols", [(3, 5), (5, 3)])
def test_one_sided_closed_forms_survive_the_empty_equation(rows, cols, rng,
                                                           rand_q):
    a = rand_q(rows, cols)
    ba = pinv(a)
    # A X = C: X = A^+ C + L_A U1
    c = a @ rand_q(cols, 2)
    fam = solve_left(a, c)
    assert bitwise_equal(fam.particular[0], ba.pinv @ c)
    assert fam.free_param_shapes == [(cols, 2)]
    (u1,) = fam.random_params(rng)
    (x,) = fam.assemble([u1])
    assert (x - (ba.pinv @ c + ba.proj_left @ u1)).norm() <= 1e-13
    # X A = C: X = C A^+ + U1 R_A
    c = rand_q(2, rows) @ a
    fam = solve_right(a, c)
    assert bitwise_equal(fam.particular[0], c @ ba.pinv)
    assert fam.free_param_shapes == [(2, rows)]
    (u1,) = fam.random_params(rng)
    (x,) = fam.assemble([u1])
    assert (x - (c @ ba.pinv + u1 @ ba.proj_right)).norm() <= 1e-13


class TestSolvePair:
    def test_identity_pair(self, rand_q):
        c = rand_q(3, 3)
        fam = solve_pair(QMatrix.identity(3), c, QMatrix.identity(3), c)
        (x,) = fam.particular
        assert (x - c).norm() <= 1e-13

    def test_planted(self, rng, rand_q):
        a, b, x0 = rand_q(3, 5), rand_q(4, 3), rand_q(5, 4)
        fam = solve_pair(a, a @ x0, b, x0 @ b)
        for _ in range(5):
            (x,) = fam.assemble(fam.random_params(rng))
            assert (a @ x - a @ x0).norm() <= 1e-10
            assert (x @ b - x0 @ b).norm() <= 1e-10

    def test_compat_violation(self, rand_q):
        a, b = rand_q(2, 3), rand_q(4, 2)
        x0, x1 = rand_q(3, 4), rand_q(3, 4)
        res = solve_pair(a, a @ x0, b, x1 @ b)
        assert isinstance(res, Inconsistent)
        assert "A*D=C*B" in res.failing_conditions


class TestSolveTwoTerm:
    def test_degenerate_single_term(self, rng, rand_q):
        # empty C4/D4 reduces to C3 X3 D3 = E1
        c3, d3, x0 = rand_q(4, 3), rand_q(2, 5), rand_q(3, 2)
        z, zb = QMatrix.zeros(4, 0), QMatrix.zeros(0, 5)
        fam = solve_two_term(c3, d3, z, zb, c3 @ x0 @ d3)
        for _ in range(3):
            x3, x4 = fam.assemble(fam.random_params(rng))
            assert (c3 @ x3 @ d3 - c3 @ x0 @ d3).norm() <= 1e-9
            assert x4.shape == (0, 0)
        # inconsistent once the right side leaves the reachable set
        res = solve_two_term(c3, d3, z, zb, rand_q(4, 5))
        assert isinstance(res, Inconsistent)

    def test_rank_and_residual_agree_on_fuzz(self, rng, rand_q):
        for _ in range(10):
            c3, d3 = rand_q(3, 1), rand_q(1, 4)
            c4, d4 = rand_q(3, 1), rand_q(1, 4)
            res = solve_two_term(c3, d3, c4, d4, rand_q(3, 4))
            assert isinstance(res, Inconsistent)
            assert res.report.forms_agree


def test_one_sided_pair_lists_only_its_own_conditions(rand_q):
    # A X = C is the pair with B and D empty: the conditions of X B = D
    # have no entries, so the report leaves them out
    a, x = rand_q(3, 2), rand_q(2, 4)
    b, d = QMatrix.zeros(4, 0), QMatrix.zeros(2, 0)
    for rhs, solvable in ((a @ x, True), (rand_q(3, 4), False)):
        report = check_pair(PairInstance(a, rhs, b, d))
        assert report.compat_conditions == []
        assert [c.name for c in report.mp_conditions] == ["R_A*C"]
        assert [c.name for c in report.rank_conditions] == ["r(C,A)=r(A)"]
        assert report.consistent == solvable and report.forms_agree
