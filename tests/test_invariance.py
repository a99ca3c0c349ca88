"""One contract for the rewrites that keep the solution set: a verdict
may depend only on that set.  Each row of ``ROWS`` rewrites every
instance of a ``corpus()`` spec at each of its values, and checks each
case, the base (t = 1) among them, under the row's claim:

- "verdict": ``(consistent, forms_agree, solved)`` is ``(not twin,
  True, not twin)``, the base's; every compatibility and residual
  threshold is ``tol``; an ``Inconsistent`` carries ``check``'s report
  (its rank list compared at the base alone); and the particular
  solution verifies, mapped back onto the base by the factor of each
  unknown the rewrite returns, or on the rewritten instance where it
  returns None (a moved right side; 1/t overflows);
- "bits": that, and the equilibrated root's planes and the report's
  ``repr`` are the base's, and the particular solution, ``assemble({})``
  and the member at parameters times t are the base's times t;
- "no-false-family": ``solve`` returns a family only where ``check`` is
  consistent.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from qsylv.harness import VARIANTS, verify_solution
from qsylv.solvers.families import Inconsistent, check, solve

from tests.conftest import (corpus, coupling_defect, equilibrated_root,
                            planes, scaled_equations, scaled_rhs)

TOL = 1e-9

# 10^e over the double range, and 1e-310: subnormal data, whose scaling
# by more than 2^1023, no double, takes two steps
DECADES = tuple(10.0 ** e for e in (-300, -150, -12, -8, -4, 4, 8, 12, 150,
                                    300)) + (1e-310,)

# the coefficient factors of each master unknown's terms, and of U in
# eta-full: scaling them by t maps the solution set by W -> W / t
UNKNOWN_FACTORS = {"U": ("A1", "E1"), "V": ("B1", "F1"),
                   "X": ("A2", "B2", "E2"), "Y": ("A3", "B3", "E3"),
                   "Z": ("A4", "B4", "E4")}


def _rhs(inst, t):
    """Every right side times t; the solutions times t."""
    back = 1 / t
    return scaled_rhs(inst, t), (dict.fromkeys(inst.unknown_names(), back)
                                 if math.isfinite(back) else None)


def _equation_values(inst):
    """All equations at every t of ``DECADES``, and each equation alone
    at the next t, cycled; scaling equations keeps the solutions."""
    names = inst.rhs_names()
    return ([(t, names) for t in DECADES]
            + [(DECADES[k % len(DECADES)], (n,))
               for k, n in enumerate(names)])


def _unknown(inst, value):
    """The coefficient factors of one unknown's terms times t."""
    name, t = value
    return replace(inst, **{f: getattr(inst, f) * t
                            for f in UNKNOWN_FACTORS[name]}), {name: t}


ROWS = {
    # name: rewrite, its values (or their function of the base),
    # variants, corpus spec, claim
    "rhs-decades": (_rhs, DECADES, VARIANTS, dict(
        sizes=(2,), seeds=(0, 1, 2), etas="j"), "verdict"),
    # and at size 4 for the systems whose right sides the benchmark
    # scales; the other five there would add a tenth to this module's time
    "rhs-decades-size-4": (_rhs, DECADES, (
        "master", "two-term", "five-term", "eta-full", "eta-two"), dict(
            sizes=(4,), seeds=(0, 1, 2), etas="j"), "verdict"),
    "rhs-powers-of-two": (_rhs, tuple(2.0 ** s for s in (
        -900, -301, -1, 1, 37, 512, 900)), VARIANTS, dict(
            sizes=(1, 2, 3), etas="j"), "bits"),
    "equations": (lambda inst, v: (scaled_equations(inst, *v), {}),
                  _equation_values, VARIANTS, dict(etas="j"), "verdict"),
    # each equation's backward error is tested at tol, so a twin whose
    # coupling equation is small next to its largest right side cannot
    # pass on an absolute defect of tol
    "one-unknown": (_unknown, tuple((n, t) for n in UNKNOWN_FACTORS
                                    for t in (1e-10, 1e10)), ("master",),
                    dict(kinds=("twin",), sizes=(2, 4), seeds=(0, 1, 2)),
                    "no-false-family"),
    # E1 is a plain factor of Cc, whose other terms are E W E^eta*, so an
    # odd exponent of E1 makes the equation's shift odd
    "one-unknown-odd-powers": (_unknown, tuple(("U", 2.0 ** s) for s in (
        5, 7, 9, 11)), ("eta-full",), dict(seeds=(0, 1, 2), etas="j"),
        "verdict"),
    # a coupling right side off eta-Hermitian by as much as require()
    # accepts: other solutions, so no map back
    "accepted-defect": (
        lambda inst, d: (coupling_defect(inst, 0, d), None),
        (1e-12, 1e-11, 1e-10, 4e-10),
        tuple(v for v in VARIANTS if v.startswith("eta")),
        dict(kinds=("planted",), sizes=(1, 2), seeds=(0, 1, 2), etas="j"),
        "verdict"),
}


def _outcome(inst):
    """``check`` and ``solve`` of ``inst``, and ``(consistent,
    forms_agree, solved)``."""
    report, res = check(inst, TOL), solve(inst, TOL)
    return report, res, (report.consistent, report.forms_agree,
                         not isinstance(res, Inconsistent))


def _solutions(family, params):
    return family.assemble(), family.assemble({}), family.assemble(params)


CASES = [(row, variant) for row, (_, _, variants, _, _) in ROWS.items()
         for variant in variants]


@pytest.mark.parametrize("row, variant", CASES,
                         ids=[f"{row}-{variant}" for row, variant in CASES])
def test_a_rewrite_that_keeps_the_solution_set_keeps_the_verdict(row,
                                                                  variant):
    rewrite, values, _, spec, claim = ROWS[row]
    for label, base in corpus(variant, **spec):
        twin = label.startswith("twin")
        rewritten = [(v, *rewrite(base, v)) for v in (
            values(base) if callable(values) else values)]
        if claim == "no-false-family":
            for value, inst, _ in rewritten:
                assert (isinstance(solve(inst, TOL), Inconsistent)
                        or check(inst, TOL).consistent), (label, value)
            continue
        for value, inst, back in [(None, base, {})] + rewritten:
            report, res, got = _outcome(inst)
            where = (label, value)
            assert got == (not twin, True, not twin), where
            conditions = report.compat_conditions + report.mp_conditions
            assert {c.threshold for c in conditions} == {TOL}, where
            if not got[2]:
                # its rank list, built on first read by the code that
                # builds check's, would double the cost of every twin
                carried = res.report
                assert (carried.compat_conditions + carried.mp_conditions
                        == conditions), where
                if value is None:
                    assert carried.to_dict() == report.to_dict(), where
            else:
                sol = res.particular
                if back is not None:
                    sol = [m * back.get(n, 1.0)
                           for n, m in zip(inst.unknown_names(), sol)]
                assert verify_solution(inst if back is None else base, sol,
                                       TOL).passed, where
            if claim != "bits":
                continue
            root = planes(equilibrated_root(inst)[0].blocks())
            if value is None:
                want_root, text = root, repr(report.to_dict())
                params = [] if twin else res.random_params(
                    np.random.default_rng(0))
                sols = () if twin else _solutions(res, params)
                continue
            assert root == want_root, where
            assert repr(report.to_dict()) == text, where
            # the parameters are in the data's units too
            scaled = () if twin else _solutions(
                res, [p * value for p in params])
            for a, b in zip(scaled, sols):
                assert planes(a) == planes(m * value for m in b), where
