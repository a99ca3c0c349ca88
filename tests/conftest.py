import pathlib

import numpy as np
import pytest

from qsylv import QMatrix, block, pinv, rank

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"


def make_rand(rng):
    def rand_q(rows, cols, scale=1.0):
        return QMatrix(*(scale * rng.standard_normal((rows, cols))
                         for _ in range(4)))
    return rand_q


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def rand_q(rng):
    return make_rand(rng)


@pytest.fixture
def data_dir():
    return DATA_DIR


def worst_rel(inst, sol):
    """The largest relative defect ``|defect| / (1 + scale)`` over an
    instance's residual terms at ``sol``."""
    return max(d.norm() / (1.0 + s) for _, d, s in inst.residual_terms(sol))


def rank_block_oracle(a, b, c, d, e, tol=None):
    """Evaluate both sides of the block rank identity

        r([[A, B L_D], [R_E C, 0]])
            = r([[A, B, 0], [C, 0, E], [0, D, 0]]) - r(D) - r(E)

    and return (lhs, rhs) as integers.  The two sides are computed by
    independent routes; the identity is used as a cross-check oracle.

    The projector products on the left side vanish in exact arithmetic
    whenever D (or E) has full column (row) rank, so rank decisions use
    an absolute noise floor scaled to the operand norms on top of the
    default relative tolerance.
    """
    eps = float(np.finfo(np.float64).eps)
    floor = 256.0 * eps * max([1.0] + [m.norm() for m in (a, b, c, d, e)])
    ld = pinv(d, tol, floor=floor).proj_left
    re = pinv(e, tol, floor=floor).proj_right
    lhs = rank(block([[a, b @ ld], [re @ c, None]]), tol, floor=floor)
    big = rank(block([[a, b, None], [c, None, e], [None, d, None]]),
               tol, floor=floor)
    rhs = big - rank(d, tol, floor=floor) - rank(e, tol, floor=floor)
    return lhs, rhs
