"""The solve decision rule: residual certificate plus a verified
particular solution, with the rank certificate only as the fallback.

``test_decision_rule_on_planted_and_unsolvable`` is the contract every
system of ``VARIANT_TABLE`` keeps on the planted, zero, twin and
degenerate instances of ``corpus()``, sizes 1 to 4: the certificate
forms agree and give the expected verdict; an ``Inconsistent`` carries
``check``'s report; a family's particular solution and a random member
verify, eta-Hermitian where the system says so; and zero right sides
give a particular solution of exactly zero.  The other tests pin when
a family and a rank list are built.  Rewrites that keep the solution
set, such as scaled right sides or unknowns, are
``tests/test_invariance.py``'s.
"""

import numpy as np
import pytest

import qsylv
from qsylv import verify_solution
from qsylv.harness import VARIANTS, gen_planted, gen_unsolvable
from qsylv.solvers import families
from qsylv.solvers.families import Inconsistent, check, solve

from tests.conftest import corpus, counts

TOL = 1e-9


CONTRACT_KINDS = ("planted", "twin", "zero", "degenerate")


@pytest.mark.parametrize("variant", VARIANTS)
def test_decision_rule_on_planted_and_unsolvable(variant):
    rng = np.random.default_rng(51)
    for label, inst in corpus(variant, CONTRACT_KINDS, sizes=(1, 2, 3, 4),
                              seeds=(0, 1, 2)):
        kind = label.split()[0]
        # a perturbed degenerate instance may land either way
        solvable = None if label.endswith("perturbed") else kind != "twin"
        report, res = check(inst, TOL), solve(inst, TOL)
        assert report.forms_agree, label
        if solvable is not None:
            assert report.consistent == solvable, label
        assert isinstance(res, Inconsistent) != report.consistent, label
        if isinstance(res, Inconsistent):
            assert res.report.to_dict() == report.to_dict(), label
            continue
        member = res.assemble(res.random_params(rng))
        for sol in (res.particular, member):
            assert verify_solution(inst, sol, TOL).passed, label
            for name, w in zip(inst.unknown_names(), sol):
                if name in inst.ETA_HERMITIAN:
                    defect = w - w.eta_conj_transpose(inst.eta)
                    assert defect.norm() <= 1e-12 * (1 + w.norm()), label
        if kind == "zero":
            assert all(m.norm() == 0.0 for m in res.particular), label


@pytest.mark.parametrize("variant", VARIANTS)
def test_particular_solution_is_assembled_once(variant, monkeypatch):
    planted, _ = gen_planted(variant, 2, 0, "j")
    built = []
    init = families.LinearSolutionFamily.__init__

    def counted_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(families.LinearSolutionFamily, "__init__",
                        counted_init)
    family = solve(planted, TOL)
    assert not isinstance(family, Inconsistent)
    # the driver builds the one family of a solve; no work builds one
    assert len(built) == 1
    calls = []
    matmul = qsylv.QMatrix.__matmul__

    def counted(a, b):
        calls.append(1)
        return matmul(a, b)

    monkeypatch.setattr(qsylv.QMatrix, "__matmul__", counted)
    particular = family.assemble()
    assert not calls
    assert verify_solution(planted, particular, TOL).passed
    # a returned copy edited in place leaves the held solution intact
    assert particular[0].norm() > 0.0
    particular[0].w[...] = 0.0
    for a, b in zip(family.particular, family.assemble()):
        assert (a - b).norm() == 0.0
    assert family.particular[0].norm() > 0.0
    zeros = [qsylv.QMatrix.zeros(*p.shape) for p in family.free_params]
    calls.clear()
    fresh = family.assemble(zeros)
    assert calls
    for a, b in zip(fresh, family.particular):
        assert (a - b).norm() == 0.0
    assert len(built) == 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_rank_list_of_a_residual_rejection_is_built_on_first_read(
        variant, counter):
    twin = gen_unsolvable(variant, 2, 0, "j")
    # one rank list ranks the coefficient-only panels, which every later
    # list reads; the counts below are then the right-side ranks only
    check(twin, TOL)
    counter.take()
    report = check(twin, TOL)
    # each rank is settled by an SVD or by a full-rank certificate
    check_ranks = counts(counter.take())
    assert check_ranks[0] == 0 and sum(check_ranks) > 0
    assert not all(c.passed for c in
                   report.compat_conditions + report.mp_conditions)
    res = solve(twin, TOL)
    assert isinstance(res, Inconsistent) and not res.report.consistent
    assert counts(counter.take()) == (0, 0, 0)
    res.report.forms_agree
    assert counts(counter.take()) == check_ranks
    res.report.forms_agree
    assert res.report == report
    assert res.report.to_dict() == report.to_dict()
    assert repr(res.report) == repr(report)
    assert res.failing_conditions == report.failing()
    assert counts(counter.take()) == (0, 0, 0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_deferred_rank_list_reads_the_inputs_as_given(variant):
    twin = gen_unsolvable(variant, 2, 1, "j")
    before = check(twin, TOL)
    res = solve(twin, TOL)
    assert isinstance(res, Inconsistent)
    for m in twin.blocks():
        for plane in m.components():
            plane[...] = 0.0
    # the edit changes what check_* reports, so the deferred list must
    # come from the inputs as they were at the solve call
    assert check(twin, TOL).rank_conditions != before.rank_conditions
    assert res.report == before
    assert res.report.to_dict() == before.to_dict()


@pytest.mark.parametrize("solver, shapes", [
    (qsylv.solve_left, ((4, 2), (4, 3))),
    (qsylv.solve_right, ((2, 4), (3, 4))),
    (qsylv.solve_pair, ((4, 2), (4, 3), (3, 5), (2, 5))),
])
def test_one_unknown_solvers_defer_ranks_of_the_inputs_as_given(
        solver, shapes, rand_q):
    mats = [rand_q(*shape) for shape in shapes]
    expected = solver(*[m.copy() for m in mats]).report.rank_conditions
    res = solver(*mats)
    assert isinstance(res, Inconsistent)
    for plane in mats[0].components():
        plane[...] = 0.0
    assert solver(*mats).report.rank_conditions != expected
    assert res.report.rank_conditions == expected
