import pathlib

import numpy as np
import pytest

from qsylv import QMatrix

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
