"""Planted five-term and master instances over low-rank coefficients.

Every coefficient block is replaced by a product of seeded Gaussian
m x r and r x n factors, r = min(m, n) - 1 on even seeds and - 2 on odd
ones, before the right sides are planted from the generator's witness.
Rank-deficient blocks make the reduction cascade's projectors nonzero,
so each term of the assembly carries weight that full-rank blocks leave
at zero.
"""

import numpy as np
import pytest

from qsylv.harness import gen_planted, verify_solution
from qsylv.qmatrix import rand_qmatrix
from qsylv.solvers.families import check, solve
from qsylv.solvers.master import _MasterWork

SIZES = (2, 3, 4, 5)
SEEDS = tuple(range(6))


def gen_low_rank(variant, size, seed):
    """(instance, witness): the planted instance of ``variant`` with
    every coefficient block of rank min(m, n) - 1 (even seeds) or
    min(m, n) - 2 (odd seeds)."""
    inst, wit = gen_planted(variant, size, seed)
    rng = np.random.default_rng(seed)
    drop = 1 + seed % 2
    blocks = {}
    for name in inst.coefficient_names():
        m, n = getattr(inst, name).shape
        r = max(min(m, n) - drop, 0)
        blocks[name] = rand_qmatrix(rng, m, r) @ rand_qmatrix(rng, r, n)
    return type(inst).from_witness(wit, **blocks), wit


@pytest.mark.parametrize("variant", ("five-term", "master"))
def test_low_rank_instances_are_consistent_with_verified_members(variant):
    failed = []
    for size in SIZES:
        for seed in SEEDS:
            inst, _ = gen_low_rank(variant, size, seed)
            report = check(inst)
            ok = report.consistent and report.forms_agree
            rng = np.random.default_rng(seed)
            fam = solve(inst)
            member = fam.assemble(fam.random_params(rng))
            ok = ok and verify_solution(inst, member).passed
            if not ok:
                failed.append((size, seed))
    assert failed == []


def _bundles(factors):
    """The 36 pinv bundles of a master factorization, by name: the 10
    of the side pairs, then the 26 of the five-term cascade."""
    out = {f"{w}.{b}": bundle for w, pair in zip("UVXYZ", factors.bundles)
           for b, bundle in zip(("ba", "bb"), pair)}
    out.update({"bA1": factors.bA1, "bB1": factors.bB1,
                "bC11": factors.bC11, "bD11": factors.bD11})
    out.update((f"bC[{i}]", b) for i, b in enumerate(factors.bC))
    out.update((f"bD[{i}]", b) for i, b in enumerate(factors.bD))
    for kernel in ("y12", "vw3"):
        k = getattr(factors, kernel)
        for b in ("bc3", "bc4", "bd3", "bd4", "bm", "bn", "bs"):
            out[f"{kernel}.{b}"] = getattr(k, b)
    return out


# The bundles of rank 0 on every instance.  U.bb and V.ba are the pinvs
# of the empty halves of the one-sided U and V pairs; vw3.bm, of
# M = R_E11 E22, is zero in exact arithmetic; and the five-term lift
# leaves every side pair empty.
SIDES = {f"{w}.{b}" for w in "UVXYZ" for b in ("ba", "bb")}
STRUCTURAL_ZEROS = {"master": {"U.bb", "V.ba", "vw3.bm"},
                    "five-term": SIDES | {"vw3.bm"}}


@pytest.mark.parametrize("variant", ("five-term", "master"))
def test_structurally_zero_bundles(variant):
    # every other bundle is rank-deficient yet nonzero somewhere
    partial, zero = set(), None
    for size in SIZES:
        for seed in SEEDS:
            inst, _ = gen_low_rank(variant, size, seed)
            root = inst.lift()[0] if variant == "five-term" else inst
            bundles = _bundles(_MasterWork(root).factors)
            assert len(bundles) == 36
            partial |= {name for name, b in bundles.items()
                        if 0 < b.rank < min(b.pinv.shape)}
            ranks = {name for name, b in bundles.items() if b.rank == 0}
            zero = ranks if zero is None else zero & ranks
    assert zero == STRUCTURAL_ZEROS[variant]
    assert partial == set(bundles) - zero
