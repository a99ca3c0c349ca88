"""Golden values of the block-rank and residual certificates.

The tables were captured from the hand-written R1-R9 block patterns
that preceded the shared rule of the master and five-term systems; they
pin the rank pair of every R1-R9 and the verdict of every master
residual condition.  A planted master instance with its right sides
scaled by 1e8 has the planted instance's certificates.
"""

from dataclasses import replace

import pytest

from qsylv import check_five_term, check_master
from qsylv.harness import (DimensionProfile, gen_consistent, gen_planted,
                           gen_unsolvable)

R_NAMES = tuple(f"R{i}" for i in range(1, 10))

MASTER_MP_NAMES = (
    "R_A1*C1", "D1*L_B1", "R_A2*C2", "D2*L_B2", "R_A3*C3", "D3*L_B3",
    "R_A4*C4", "D4*L_B4", "R_G1*L1", "L1*L_H1", "R_G2*L2", "L2*L_H2",
    "R_G3*L3", "L3*L_H3", "R_G4*L4", "L4*L_H4", "R_E22*E*L_E33")

# (lhs, rhs, passed) of R1..R9
MASTER_PLANTED_RANKS = ((15, 15, True),) * 8 + ((30, 30, True),)
MASTER_INCONSISTENT_RANKS = (
    (15, 15, True), (16, 15, False), (16, 15, False), (16, 15, False),
    (16, 15, False), (16, 15, False), (16, 15, False), (15, 15, True),
    (33, 30, False))

MASTER_PLANTED_MP = (True,) * 17
MASTER_INCONSISTENT_MP = ((True,) * 9 + (False,) * 6
                          + (True, False))

MASTER_RHS = ("C1", "C2", "C3", "C4", "D1", "D2", "D3", "D4", "Cc")


def _ranks(report):
    return [(c.name, c.lhs, c.rhs, c.passed)
            for c in report.rank_conditions[-9:]]


def _pinned(ranks):
    return [(n, *r) for n, r in zip(R_NAMES, ranks)]


def _master_case(seed, kind):
    if kind == "inconsistent":
        return gen_unsolvable("master", 2, seed)
    inst, _ = gen_consistent(DimensionProfile.cube(2, seed))
    if kind == "scaled":
        inst = replace(inst, **{f: getattr(inst, f) * 1e8
                                for f in MASTER_RHS})
    return inst


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("kind, ranks, mp", [
    ("planted", MASTER_PLANTED_RANKS, MASTER_PLANTED_MP),
    ("inconsistent", MASTER_INCONSISTENT_RANKS, MASTER_INCONSISTENT_MP),
    # right sides x1e8: the equilibrated instance is the planted one up
    # to rounding, so both certificates pass as they do there
    ("scaled", MASTER_PLANTED_RANKS, MASTER_PLANTED_MP),
])
def test_master_certificates(seed, kind, ranks, mp):
    report = check_master(_master_case(seed, kind))
    assert report.consistent == (kind != "inconsistent")
    assert report.forms_agree
    assert _ranks(report) == _pinned(ranks)
    assert [(c.name, c.passed) for c in report.mp_conditions] == \
        list(zip(MASTER_MP_NAMES, mp))


FIVE_TERM_RANKS = {
    (2, "planted"): ((6, 6, True),) + ((8, 8, True),) * 6
                    + ((6, 6, True), (16, 16, True)),
    (2, "unsolvable"): ((9, 9, True),) + ((11, 10, False),) * 6
                       + ((9, 9, True), (24, 20, False)),
    (6, "planted"): ((14, 14, True),) + ((16, 16, True),) * 6
                    + ((14, 14, True), (32, 32, True)),
    (6, "unsolvable"): ((23, 23, True),) + ((29, 29, True),) * 6
                       + ((23, 23, True), (64, 60, False)),
}


@pytest.mark.parametrize("size, kind", sorted(FIVE_TERM_RANKS))
def test_five_term_rank_certificate(size, kind):
    if kind == "planted":
        inst, _ = gen_planted("five-term", size, 0)
    else:
        inst = gen_unsolvable("five-term", size, 0)
    report = check_five_term(inst)
    assert _ranks(report) == _pinned(FIVE_TERM_RANKS[size, kind])
