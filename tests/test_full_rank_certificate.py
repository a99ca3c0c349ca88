"""Which grids ``check`` offers to the full-rank certificate.

``check`` offers the coefficient-only panels of a factorization's first
rank list to the full-rank certificate (``decomp._full_rank``), and the
bordered grids of a list exactly when its compatibility or residual
form has failed.  That every report is the one an SVD would give, with
the certificate off and with every grid offered to it, on either
thread, is the contract of ``tests/test_routes.py``; how a refused
panel is ranked is in ``tests/test_nested_panels.py``.
"""

import pytest

from qsylv.harness import VARIANTS, gen_planted, gen_unsolvable
from qsylv.solvers import families

from tests.conftest import evict

TOL = 1e-9


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_twin_check_runs_the_certificate(variant, counter):
    """``check`` offers the bordered grids to the certificate on a twin,
    whose residual form fails, and not on its planted instance: a second
    check, which reads the held panel ranks, tries certificates on the
    twin alone."""
    planted, _ = gen_planted(variant, 2, 0, "j")
    twin = gen_unsolvable(variant, 2, 0, "j", TOL)
    for inst, runs in ((planted, False), (twin, True)):
        evict()
        report = families.check(inst, TOL)
        counter.take()
        families.check(inst, TOL)
        tried = [e for e in counter.take() if e.kind == "certificate"]
        assert bool(tried) == runs, variant
        assert report.consistent != runs
