"""The one check/solve driver behind every public ``check_*``/``solve_*``.

Each public entry point, called with its own signature, gives exactly
what the driver gives; an eta system whose coupling right side is not
eta-Hermitian is refused under that system's own field name, at every
eta; every family names its free parameters alike at every size, and a
lifted family refuses the parameters its lift left empty; a block with
a nan or infinite entry is refused, by name, before any SVD, and so is
a ``tol`` that is not finite and positive; no report lists a condition
whose matrices have no entries; and a report's JSON form keeps its
keys and bytes.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import qsylv
from qsylv.harness import (VARIANTS, ResidualEntry, ResidualReport,
                           gen_planted, gen_unsolvable, verify_solution)
from qsylv.qcore import ETAS
from qsylv.qmatrix import DimensionError, rand_qmatrix
from qsylv.solvers import families
from qsylv.solvers.families import (Condition, Inconsistent, RankCondition,
                                    SolvabilityReport, check, solve)
from qsylv.solvers.master import MASTER_PARAM_NAMES

TOL = 1e-9


def _two_term_args(i):
    return i.C3, i.D3, i.C4, i.D4, i.E1


# variant -> (public check call, public solve call), each with the
# signature its public name has
PUBLIC = {
    "pair": (lambda i: qsylv.check_pair(i, TOL),
             lambda i: qsylv.solve_pair(i.A, i.C, i.B, i.D, TOL)),
    "master": (lambda i: qsylv.check_master(i, TOL),
               lambda i: qsylv.solve_master(i, TOL)),
    "three-term": (lambda i: qsylv.check_three_term(i, TOL),
                   lambda i: qsylv.solve_three_term_system(i, TOL)),
    "mixed": (lambda i: qsylv.check_mixed(i, TOL),
              lambda i: qsylv.solve_mixed_system(i, TOL)),
    "two-term": (lambda i: qsylv.check_two_term(*_two_term_args(i), tol=TOL),
                 lambda i: qsylv.solve_two_term(*_two_term_args(i), TOL)),
    "five-term": (lambda i: qsylv.check_five_term(i, TOL),
                  lambda i: qsylv.solve_five_term(i, TOL)),
    "eta-full": (lambda i: qsylv.check_eta_full(i, TOL),
                 lambda i: qsylv.solve_eta_full(i, TOL)),
    "eta-three": (lambda i: qsylv.check_eta_three(i, TOL),
                  lambda i: qsylv.solve_eta_three(i, TOL)),
    "eta-two": (lambda i: qsylv.check_eta_two(i, TOL),
                lambda i: qsylv.solve_eta_two(i.B1, i.C1, i.D1, i.eta, TOL)),
    "eta-mixed": (lambda i: qsylv.check_eta_mixed(i, TOL),
                  lambda i: qsylv.solve_eta_mixed(i.A1, i.C1, i.B1, i.D1,
                                                  i.A2, i.A3, i.D3, i.eta,
                                                  TOL)),
}

ETA_VARIANTS = ("eta-full", "eta-three", "eta-two", "eta-mixed")


def _shown(res):
    """What a solve result shows: the report, or the free parameter
    names and the particular solution as bytes."""
    if isinstance(res, Inconsistent):
        return ("inconsistent", res.report.to_dict())
    return ("family", [p.name for p in res.free_params],
            [(m.shape, m.a1.tobytes(), m.a2.tobytes())
             for m in res.assemble()])


@pytest.mark.parametrize("truth", ("planted", "unsolvable"))
@pytest.mark.parametrize("variant", VARIANTS)
def test_public_names_equal_the_driver(variant, truth):
    if truth == "planted":
        inst, _ = gen_planted(variant, 2, 1, "k")
    else:
        inst = gen_unsolvable(variant, 2, 1, "k")
    check_public, solve_public = PUBLIC[variant]
    assert check_public(inst).to_dict() == check(inst, TOL).to_dict()
    assert _shown(solve_public(inst)) == _shown(solve(inst, TOL))
    assert isinstance(solve(inst, TOL), Inconsistent) == (truth != "planted")


# variant -> the parameters its family keeps and the master parameters
# its lift leaves with a zero dimension, which the family drops
MIXED_KEPT = ("U4", "U5", "U6", "U7", "U8")
MIXED_DROPPED = ("W11", "W12", "W13", "U11", "U12", "U21", "U31", "U32",
                 "U33", "U41", "U42")
THREE_TERM_KEPT = MIXED_KEPT + MIXED_DROPPED[3:]
TWO_TERM_KEPT = ("Y11", "Y12", "Y13", "Y14", "Y15")
DROPPED = {"pair": (("U1",), ()),
           "master": (MASTER_PARAM_NAMES, ()),
           "five-term": (MASTER_PARAM_NAMES, ()),
           "eta-full": (MASTER_PARAM_NAMES, ()),
           "two-term": (TWO_TERM_KEPT, ()),
           "eta-two": (TWO_TERM_KEPT, ()),
           "mixed": (MIXED_KEPT, MIXED_DROPPED),
           "eta-mixed": (MIXED_KEPT, MIXED_DROPPED),
           "three-term": (THREE_TERM_KEPT, ("W11", "W12", "W13")),
           "eta-three": (THREE_TERM_KEPT, ("W11", "W12", "W13"))}


@pytest.mark.parametrize("variant", sorted(DROPPED))
def test_lifted_families_refuse_the_parameters_their_lift_dropped(variant):
    kept, dropped = DROPPED[variant]
    # the free parameters are named alike at every size
    for size in (1, 2, 3, 4):
        family = solve(gen_planted(variant, size, 0, "j")[0], TOL)
        assert [p.name for p in family.free_params] == list(kept)
    for name in dropped:
        with pytest.raises(KeyError, match=f"unknown free parameter '{name}'"):
            family.assemble({name: qsylv.QMatrix.zeros(0, 0)})
    # one more than the master family takes
    rng = np.random.default_rng(2)
    full = [rand_qmatrix(rng, 1, 1) for _ in range(17)]
    with pytest.raises(DimensionError,
                       match=rf"^expected {len(kept)} free parameters, "
                             r"got 17$"):
        family.assemble(full)


@pytest.mark.parametrize("tol", (0.0, -1e-9, np.nan, np.inf))
def test_tol_must_be_finite_and_positive(tol):
    # at inf the unsolvable twin would pass, at -1 the planted instance
    # would be Inconsistent
    planted, witness = gen_planted("master", 2, 0)
    twin = gen_unsolvable("master", 2, 0)
    for call in (lambda: check(planted, tol), lambda: check(twin, tol),
                 lambda: solve(planted, tol), lambda: solve(twin, tol),
                 lambda: verify_solution(planted, witness, tol)):
        with pytest.raises(ValueError,
                           match=r"^tol must be finite and positive, got"):
            call()


@pytest.mark.parametrize("op", ("check", "solve"))
@pytest.mark.parametrize("variant", ETA_VARIANTS)
def test_eta_precondition_names_the_types_own_field(variant, op):
    calls = {"check": (check, PUBLIC[variant][0]),
             "solve": (solve, PUBLIC[variant][1])}
    driver, public = calls[op]
    rng = np.random.default_rng(3)
    for eta in ETAS:
        inst, _ = gen_planted(variant, 2, 0, eta)
        rhs = inst.rhs_names()[-1]
        target = getattr(inst, rhs)
        off = target + rand_qmatrix(rng, *target.shape)
        # at x1e-300 the squared entries underflow, at x1e160 and x1e300
        # they overflow, unless require() scales the right side first
        for factor in (1.0, 1e-300, 1e160, 1e300):
            bad = replace(inst, **{rhs: off * factor})
            for call in (lambda: driver(bad, TOL), lambda: public(bad)):
                with pytest.raises(ValueError, match=rf"^{rhs} is not "
                                   r"eta-Hermitian \(defect"):
                    call()


@pytest.mark.parametrize("value", (np.nan, np.inf))
@pytest.mark.parametrize("variant", VARIANTS)
def test_non_finite_entries_are_refused_before_any_svd(variant, value,
                                                        counter):
    inst, _ = gen_planted(variant, 2, 1, "j")
    # one entry of the coupling right side (an imaginary part) and of
    # the first coefficient block (a k part)
    for name, part in ((inst.rhs_names()[-1], 1),
                       (inst.coefficient_names()[0], 3)):
        comps = [c.copy() for c in getattr(inst, name).components()]
        comps[part][-1, -1] = value
        bad = replace(inst, **{name: qsylv.QMatrix(*comps)})
        for op in (check, solve):
            with pytest.raises(ValueError,
                               match=rf"^{name} has a non-finite entry$"):
                op(bad, TOL)
    assert counter.take() == []


def _has_entries(m) -> bool:
    return m.rows * m.cols > 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_no_report_lists_a_condition_without_entries(variant):
    """Each list is the work's terms whose matrix (a rank term's grid)
    has an entry, in the work's order: the conditions of the equations
    a lift leaves empty are dropped, and no other."""
    for size in (1, 2, 3):
        for inst in (gen_planted(variant, size, 0)[0],
                     gen_unsolvable(variant, size, 0)):
            report = check(inst, TOL)
            work = families._SLOT[0]
            for listed, terms in (
                    (report.compat_conditions, work.compat_terms()),
                    (report.mp_conditions, work.mp_terms())):
                assert [c.name for c in listed] == [
                    name for name, value in terms if _has_entries(value)]
            assert [c.name for c in report.rank_conditions] == [
                name for name, grid, _ in work.rank_terms()
                if any(c is not None and _has_entries(c)
                       for row in grid for c in row)]


def test_report_json_keeps_its_keys_and_bytes():
    report = SolvabilityReport(
        [Condition("A2*D2=C2*B2", 0.25, 1e-9, False)],
        [Condition("R_A2*C2", 0.0, 1e-9, True)],
        [RankCondition("R1", 3, 2, False)])
    assert json.dumps(report.to_dict()) == (
        '{"consistent": false, "forms_agree": true, "compat_conditions": '
        '[{"name": "A2*D2=C2*B2", "residual": 0.25, "threshold": 1e-09, '
        '"passed": false}], "mp_conditions": [{"name": "R_A2*C2", '
        '"residual": 0.0, "threshold": 1e-09, "passed": true}], '
        '"rank_conditions": [{"name": "R1", "lhs": 3, "rhs": 2, '
        '"passed": false}]}')
    residuals = ResidualReport(
        (ResidualEntry("coupling=Cc", 0.5, 0.125, False),), False, 1e-9)
    assert json.dumps(residuals.to_dict()) == (
        '{"passed": false, "tol": 1e-09, "entries": [{"name": '
        '"coupling=Cc", "absolute": 0.5, "relative": 0.125, '
        '"passed": false}]}')
