"""A lifted family spans the whole solution set.

The solution set of a consistent system is an affine space whose real
dimension is the nullity of the real-linearized map from the unknowns
to the residual terms with every right side zeroed (the ``W=W^eta*``
terms included).  The family's span is the real rank of
``assemble(e_k) - particular`` over unit directions ``e_k`` of its free
parameters.  The shapes leave freedom on purpose: the desk generators
give a unique solution for these variants at sizes 1-2.
"""

import dataclasses

import numpy as np
import pytest

from qsylv import QMatrix
from qsylv.harness import VARIANT_TABLE, symmetrize
from qsylv.qmatrix import rand_qmatrix
from qsylv.solvers.families import Inconsistent, solve


def _real(mats) -> np.ndarray:
    return np.concatenate([c.ravel() for m in mats for c in m.components()])


def _units(shape):
    """Every real unit direction of a quaternion matrix of ``shape``."""
    rows, cols = shape
    for k in range(4 * rows * cols):
        planes = np.zeros((4, rows, cols))
        planes.flat[k] = 1.0
        yield QMatrix(*planes)


def _rank(cols) -> int:
    s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    return int(np.sum(s > 1e-9 * max(1.0, s[0])))


def _solution_dim(inst) -> int:
    """Real nullity of the homogeneous system's linearized map."""
    zero = dataclasses.replace(inst, **{
        f: QMatrix.zeros(*getattr(inst, f).shape) for f in inst.rhs_names()})
    shapes = list(zero.unknown_shapes().values())
    cols = []
    for i, shape in enumerate(shapes):
        for unit in _units(shape):
            sol = [QMatrix.zeros(*s) for s in shapes]
            sol[i] = unit
            cols.append(_real(d for _, d, _ in zero.residual_terms(sol)))
    return len(cols) - _rank(cols)


def _span_dim(fam) -> int:
    base = _real(fam.particular)
    return _rank([_real(fam.assemble({p.name: unit})) - base
                  for p in fam.free_params for unit in _units(p.shape)])


def _mixed(eta, rng):
    # q = 1, p = t = 3, s = 1, cr = cc = 1; mixed has no eta
    blocks = {"A1": (1, 3), "B1": (3, 1), "A2": (1, 3), "B2": (3, 1),
              "A3": (1, 3), "B3": (3, 1), "A4": (1, 3), "B4": (3, 1)}
    blocks = {k: rand_qmatrix(rng, *s) for k, s in blocks.items()}
    wit = (rand_qmatrix(rng, 3, 3), rand_qmatrix(rng, 3, 3))
    return VARIANT_TABLE["mixed"].instance_type.from_witness(wit, **blocks)


def _eta_mixed(eta, rng):
    blocks = {"A1": (1, 3), "B1": (3, 1), "A2": (1, 3), "A3": (1, 3)}
    blocks = {k: rand_qmatrix(rng, *s) for k, s in blocks.items()}
    wit = tuple(symmetrize(rand_qmatrix(rng, 3, 3), eta) for _ in range(2))
    return VARIANT_TABLE["eta-mixed"].instance_type.from_witness(
        wit, eta=eta, **blocks)


def _eta_two(eta, rng):
    # B1 and C1 are 2 x 3, so the two-term lift's projectors are live
    blocks = {"B1": rand_qmatrix(rng, 2, 3), "C1": rand_qmatrix(rng, 2, 3)}
    wit = tuple(symmetrize(rand_qmatrix(rng, 3, 3), eta) for _ in range(2))
    return VARIANT_TABLE["eta-two"].instance_type.from_witness(
        wit, eta=eta, **blocks)


BUILD = {"mixed": _mixed, "eta-mixed": _eta_mixed, "eta-two": _eta_two}


@pytest.mark.parametrize("variant, eta, dim", [
    ("mixed", "i", 28), *(("eta-mixed", eta, 17) for eta in "ijk"),
    *(("eta-two", eta, 32) for eta in "ijk")])
def test_family_spans_the_solution_set(variant, eta, dim):
    inst = BUILD[variant](eta, np.random.default_rng(5))
    fam = solve(inst, 1e-9)
    assert not isinstance(fam, Inconsistent)
    assert _solution_dim(inst) == dim
    assert _span_dim(fam) == dim
