"""Master and three-term beyond ``test_decision``'s contract: the
report's shape, the all-empty instance, and reductions bit for bit to
``solve_pair``, ``solve_left``, ``solve_right`` and the master family.
Its planted and twin cases repeat the contract on single instances.
"""

import numpy as np

from qsylv import (Inconsistent, MasterInstance, QMatrix, check_master,
                   check_three_term, solve_master, solve_three_term_system)
from qsylv.harness import (DimensionProfile, gen_consistent, gen_planted,
                           gen_unsolvable, verify_solution)
from qsylv.solvers.master import MASTER_PARAM_NAMES

from tests.conftest import worst_rel


def _same_bits(p, q):
    return np.array_equal(p.a1, q.a1) and np.array_equal(p.a2, q.a2)


class TestCheckMaster:
    def test_planted_consistent(self):
        inst, wit = gen_consistent(DimensionProfile.cube(2, seed=1))
        rep = check_master(inst)
        assert rep.consistent and rep.forms_agree
        assert verify_solution(inst, wit).passed

    def test_all_empty_trivially_consistent(self):
        z = QMatrix.zeros(0, 0)
        inst = MasterInstance(*([z] * 24), Cc=z)
        rep = check_master(inst)
        assert rep.consistent

    def test_fuzzed_inconsistent_forms_agree(self):
        for seed in (1, 2, 3):
            bad = gen_unsolvable("master", 2, seed)
            rep = check_master(bad)
            assert not rep.consistent
            assert rep.forms_agree

    def test_report_shape(self):
        inst, _ = gen_consistent(DimensionProfile.cube(2, seed=4))
        rep = check_master(inst)
        assert len(rep.compat_conditions) == 3
        assert len(rep.mp_conditions) == 17
        assert len(rep.rank_conditions) == 17
        names = [c.name for c in rep.rank_conditions]
        assert names[-9:] == [f"R{i}" for i in range(1, 10)]


class TestSolveMaster:
    def test_planted_roundtrip(self, rng):
        for seed in range(5):
            inst, _ = gen_consistent(DimensionProfile.cube(2, seed=seed))
            fam = solve_master(inst)
            assert not isinstance(fam, Inconsistent)
            assert [p.name for p in fam.free_params] == \
                list(MASTER_PARAM_NAMES)
            for _ in range(3):
                sol = fam.assemble(fam.random_params(rng))
                assert worst_rel(inst, sol) <= 1e-8

    def test_single_identity_block(self, rand_q):
        c2 = rand_q(2, 2)
        e = QMatrix.zeros
        inst = MasterInstance(
            A1=e(0, 0), A2=QMatrix.identity(2), A3=e(0, 0), A4=e(0, 0),
            B1=e(0, 0), B2=e(2, 0), B3=e(0, 0), B4=e(0, 0),
            C1=e(0, 3), C2=c2, C3=e(0, 0), C4=e(0, 0),
            D1=e(1, 0), D2=e(2, 0), D3=e(0, 0), D4=e(0, 0),
            E1=e(1, 0), E2=e(1, 2), E3=e(1, 0), E4=e(1, 0),
            F1=e(0, 3), F2=e(2, 3), F3=e(0, 3), F4=e(0, 3), Cc=e(1, 3))
        fam = solve_master(inst)
        u, v, x, y, z = fam.particular
        assert (x - c2).norm() == 0.0
        assert u.shape == (0, 3) and v.shape == (1, 0)

    def test_solve_rejects_exactly_when_check_does(self):
        good, _ = gen_consistent(DimensionProfile.cube(2, seed=6))
        bad = gen_unsolvable("master", 2, 6)
        assert not isinstance(solve_master(good), Inconsistent)
        res = solve_master(bad)
        assert isinstance(res, Inconsistent)
        assert res.failing_conditions == check_master(bad).failing()

    def test_single_pair_block_reduces_to_solve_pair(self, rng, rand_q):
        # with everything else empty, the master solution of the one
        # remaining pair is the paired-equation solver's, bit for bit
        from qsylv import solve_pair
        a, b = rand_q(2, 4), rand_q(3, 2)
        x0 = rand_q(4, 3)
        e = QMatrix.zeros
        inst = MasterInstance(
            A1=e(0, 0), A2=a, A3=e(0, 0), A4=e(0, 0),
            B1=e(0, 0), B2=b, B3=e(0, 0), B4=e(0, 0),
            C1=e(0, 1), C2=a @ x0, C3=e(0, 0), C4=e(0, 0),
            D1=e(1, 0), D2=x0 @ b, D3=e(0, 0), D4=e(0, 0),
            E1=e(1, 0), E2=e(1, 4), E3=e(1, 0), E4=e(1, 0),
            F1=e(0, 1), F2=e(3, 1), F3=e(0, 1), F4=e(0, 1), Cc=e(1, 1))
        fam = solve_master(inst)
        pair = solve_pair(a, a @ x0, b, x0 @ b)
        x_master = fam.particular[2]
        (x_pair,) = pair.particular
        assert _same_bits(x_master, x_pair)
        # the pair freedom L_A U R_B is reachable through W-parameters:
        # both particular solutions already agree, and every master
        # assembly stays a pair solution
        sol = fam.assemble(fam.random_params(rng))
        assert (a @ sol[2] - a @ x0).norm() <= 1e-9
        assert (sol[2] @ b - x0 @ b).norm() <= 1e-9

    def test_lone_left_side_equation_is_solve_left(self, rand_q):
        # A1 U = C1 alone: U is the one-sided solver's, bit for bit
        from qsylv import solve_left
        a, u0 = rand_q(2, 4), rand_q(4, 3)
        e = QMatrix.zeros
        inst = MasterInstance(
            A1=a, A2=e(0, 0), A3=e(0, 0), A4=e(0, 0),
            B1=e(0, 0), B2=e(0, 0), B3=e(0, 0), B4=e(0, 0),
            C1=a @ u0, C2=e(0, 0), C3=e(0, 0), C4=e(0, 0),
            D1=e(0, 0), D2=e(0, 0), D3=e(0, 0), D4=e(0, 0),
            E1=e(0, 4), E2=e(0, 0), E3=e(0, 0), E4=e(0, 0),
            F1=e(0, 3), F2=e(0, 3), F3=e(0, 3), F4=e(0, 3), Cc=e(0, 3))
        u_master = solve_master(inst).particular[0]
        (u_left,) = solve_left(a, a @ u0).particular
        assert _same_bits(u_master, u_left)

    def test_lone_right_side_equation_is_solve_right(self, rand_q):
        # V B1 = D1 alone: V is the one-sided solver's, bit for bit
        from qsylv import solve_right
        b, v0 = rand_q(3, 2), rand_q(4, 3)
        e = QMatrix.zeros
        inst = MasterInstance(
            A1=e(0, 0), A2=e(0, 0), A3=e(0, 0), A4=e(0, 0),
            B1=b, B2=e(0, 0), B3=e(0, 0), B4=e(0, 0),
            C1=e(0, 0), C2=e(0, 0), C3=e(0, 0), C4=e(0, 0),
            D1=v0 @ b, D2=e(0, 0), D3=e(0, 0), D4=e(0, 0),
            E1=e(4, 0), E2=e(4, 0), E3=e(4, 0), E4=e(4, 0),
            F1=e(3, 0), F2=e(0, 0), F3=e(0, 0), F4=e(0, 0), Cc=e(4, 0))
        v_master = solve_master(inst).particular[1]
        (v_right,) = solve_right(b, v0 @ b).particular
        assert _same_bits(v_master, v_right)


class TestThreeTerm:
    def test_specialization_matches_master_bitwise(self, rng):
        inst, _ = gen_planted("three-term", 2, seed=13)
        fam3 = solve_three_term_system(inst)
        famm = solve_master(inst.lift()[0])
        # the lift keeps the master parameters that are not empty
        params = {p.name: v for p, v in
                  zip(fam3.free_params, fam3.random_params(rng))}
        got = fam3.assemble(params)
        want = famm.assemble(params)[2:]
        assert all((a - b).norm() == 0.0 for a, b in zip(got, want))

    def test_rank_list_equal_on_planted(self):
        inst, _ = gen_planted("three-term", 2, seed=14)
        rep = check_three_term(inst)
        for cond in rep.rank_conditions:
            assert cond.lhs == cond.rhs

