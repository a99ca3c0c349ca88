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

from qsylv.harness import (VARIANT_TABLE, gen_planted, rand_qmatrix,
                           verify_solution)
from qsylv.solvers.five_term import _FiveTermWork

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
    entry = VARIANT_TABLE[variant]
    failed = []
    for size in SIZES:
        for seed in SEEDS:
            inst, _ = gen_low_rank(variant, size, seed)
            report = entry.check(inst)
            ok = report.consistent and report.forms_agree
            rng = np.random.default_rng(seed)
            for branch in ("first", "second"):
                fam = entry.solve(inst, branch=branch)
                member = fam.assemble(fam.random_params(rng))
                ok = ok and verify_solution(inst, member).passed
            if not ok:
                failed.append((size, seed))
    assert failed == []


def _bundles(factors):
    """The 26 pinv bundles of a five-term factorization, by name."""
    out = {"bA1": factors.bA1, "bB1": factors.bB1,
           "bC11": factors.bC11, "bD11": factors.bD11}
    out.update((f"bC[{i}]", b) for i, b in enumerate(factors.bC))
    out.update((f"bD[{i}]", b) for i, b in enumerate(factors.bD))
    for kernel in ("y12", "vw3"):
        k = getattr(factors, kernel)
        for b in ("bc3", "bc4", "bd3", "bd4", "bm", "bn", "bs"):
            out[f"{kernel}.{b}"] = getattr(k, b)
    return out


def test_one_bundle_is_structurally_zero():
    # every bundle but vw3.bm is rank-deficient yet nonzero somewhere;
    # vw3.bm, M = R_E11 E22, is zero on every instance
    partial, zero = set(), None
    for size in SIZES:
        for seed in SEEDS:
            inst, _ = gen_low_rank("five-term", size, seed)
            bundles = _bundles(_FiveTermWork(inst).factors)
            assert len(bundles) == 26
            partial |= {name for name, b in bundles.items()
                        if 0 < b.rank < min(b.pinv.shape)}
            ranks = {name for name, b in bundles.items() if b.rank == 0}
            zero = ranks if zero is None else zero & ranks
    assert zero == {"vw3.bm"}
    assert partial == set(bundles) - {"vw3.bm"}
