"""Coefficient-only panels settled by the full-rank certificate.

Every rank term compares a bordered grid with the sum of the ranks of
its coefficient-only panels.  ``families._rank_list`` ranks the panels
on the first list of a factorization, in a ``decomp.ranks`` call of
their own that offers each to the full-rank certificate
(``decomp._full_rank``), whatever the residual form says.  The held
panel ranks and the reports must equal those of ranking every grid by
SVD, with the certificate and the mirrors off (the ``route`` fixture),
and a refused panel (rank-deficient, or of full rank but
ill-conditioned) must send the rest of the panels to SVDs.
"""

import numpy as np
import pytest

from qsylv import QMatrix
from qsylv.harness import gen_planted
from qsylv.solvers import families
from qsylv.solvers.master import MasterInstance

from tests.conftest import cold_check, corpus


def _cold(inst, counter):
    """A cold check's report, its held panel ranks, and its rank SVDs
    and certificates in order."""
    report, events = cold_check(inst, counter)
    return (report.to_dict(), list(families._SLOT[0].factors.panels),
            [e for e in events if e.kind != "pinv"])


@pytest.mark.parametrize("variant", ["master", "three-term", "mixed",
                                     "eta-full", "eta-three", "eta-mixed",
                                     "five-term", "two-term", "eta-two"])
def test_derived_panel_ranks_equal_direct_ones(variant, counter, route):
    """Certified panel ranks equal SVD ranks: every report and every
    held panel rank is that of ranking each grid by SVD, and every cold
    list takes fewer rank SVDs, since its panels take none."""
    cases = list(corpus(variant, sizes=(1, 2, 3, 4, 8)))
    derived = [_cold(inst, counter) for _, inst in cases]
    route("certificate")
    route("mirrors")
    direct = [_cold(inst, counter) for _, inst in cases]
    assert all(e.kind == "rank" for d in direct for e in d[2])
    assert any(not d[0]["consistent"] for d in direct)
    for (label, _), d, r in zip(cases, derived, direct):
        assert d[:2] == r[:2], label
        assert sum(e.kind == "rank" for e in d[2]) < len(r[2]), label


def _master_with(seed, e2, a2):
    """A planted master instance at cube 3 with these E2 and A2."""
    inst, witness = gen_planted("master", 3, seed)
    blocks = {n: getattr(inst, n) for n in inst.coefficient_names()}
    blocks.update(E2=e2, A2=a2)
    return MasterInstance.from_witness(witness, **blocks)


def _deficient_master(seed):
    """A planted master instance with E2 = 0 and A2 of rank 1, so the
    block column [E2; A2] of R1's left panel has rank 1."""
    inst, _ = gen_planted("master", 3, seed)
    rng = np.random.default_rng(seed)
    a2 = inst.A2
    return _master_with(seed, QMatrix.zeros(*inst.E2.shape),
                        QMatrix(*rng.standard_normal((4, a2.rows, 1)))
                        @ QMatrix(*rng.standard_normal((4, 1, a2.cols))))


def _with_singular_values(rng, rows, values):
    """A real rows x len(values) QMatrix with these singular values."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, len(values))))
    v, _ = np.linalg.qr(rng.standard_normal((len(values), len(values))))
    zero = np.zeros((rows, len(values)))
    return QMatrix((u * values) @ v.T, zero, zero, zero)


def _ill_conditioned_master(seed):
    """A planted master instance whose block column [E2; A2] of R1's
    left panel has singular values 1, 0.5, 0.25 and 1e-10: of full
    column rank at any cut ``check`` uses, with condition number 1e10."""
    inst, _ = gen_planted("master", 3, seed)
    rows = inst.E2.rows
    column = _with_singular_values(np.random.default_rng(seed),
                                   rows + inst.A2.rows,
                                   [1.0, 0.5, 0.25, 1e-10])
    cut = lambda r: column.submatrix(r, slice(None))
    return _master_with(seed, cut(slice(0, rows)), cut(slice(rows, None)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_deficient_full_panel_falls_back(seed, counter, route):
    inst = _deficient_master(seed)
    report, panels, ranked = _cold(inst, counter)
    # R1's left panel, the first of the list, is refused, so every panel
    # takes its SVD, as every bordered grid of a planted list does
    assert [e.settled for e in ranked if e.kind == "certificate"] == [False]
    assert sum(e.kind == "rank" for e in ranked) == len(panels) + len(
        report["rank_conditions"])
    route("certificate")
    route("mirrors")
    direct = _cold(inst, counter)
    assert (report, panels) == direct[:2]
    assert sum(e.kind == "rank" for e in ranked) == len(direct[2])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_an_ill_conditioned_full_rank_panel_is_refused(seed, counter,
                                                       route):
    """A panel of full rank with condition number about 1e10 is below
    the certificate's reach: it is refused and ranked by SVD, at its
    full rank, and the report equals one from ranking every grid by
    SVD."""
    inst = _ill_conditioned_master(seed)
    report, panels, ranked = _cold(inst, counter)
    # the panels are ranked in order, each by one certificate until the
    # refusal, so the refused one is panels[i]
    i, = [i for i, e in enumerate(ranked) if e.settled is False]
    assert panels[i] == min(ranked[i].shape) // 2
    assert report["consistent"]
    route("certificate")
    route("mirrors")
    assert _cold(inst, counter)[:2] == (report, panels)
