"""Checks tied to the shipped worked-example instance."""

import pytest

from qsylv import (Inconsistent, QMatrix, documents as docs, pinv, rank,
                   solve_left, solve_master, solve_pair)
from qsylv.harness import verify_solution


@pytest.fixture
def example(data_dir):
    return docs.instance_from_doc(docs.load_json(data_dir / "example51.json"))


def test_block_ranks(example):
    assert rank(example.A2) == 2
    assert rank(example.B2) == 1
    assert pinv(example.A1).rank == 1


def test_left_equation_block(example, rng):
    fam = solve_left(example.A2, example.C2)
    assert not isinstance(fam, Inconsistent)
    (x,) = fam.assemble(fam.random_params(rng))
    assert (example.A2 @ x - example.C2).norm() <= 1e-10


def test_pair_block(example, rng):
    # the second block pair satisfies its compatibility product
    lhs = example.A2 @ example.D2
    rhs = example.C2 @ example.B2
    assert (lhs - rhs).norm() <= 1e-12
    fam = solve_pair(example.A2, example.C2, example.B2, example.D2)
    assert not isinstance(fam, Inconsistent)
    (x,) = fam.assemble(fam.random_params(rng))
    assert (example.A2 @ x - example.C2).norm() <= 1e-10
    assert (x @ example.B2 - example.D2).norm() <= 1e-10


def test_printed_solution_verifies_at_print_precision(example, data_dir):
    printed = docs.solution_from_doc(
        docs.load_json(data_dir / "example51_printed_solution.json"))
    report = verify_solution(example, printed, tol=1e-3)
    assert report.passed


def test_zero_solution_fails(example):
    zero = tuple(QMatrix.zeros(*s) for s in example.unknown_shapes().values())
    assert not verify_solution(example, zero, tol=1e-3).passed


def test_own_solution_all_nine(example, rng):
    fam = solve_master(example)
    for params in (None, fam.random_params(rng)):
        sol = fam.assemble(params)
        report = verify_solution(example, sol, tol=1e-8)
        assert report.passed
