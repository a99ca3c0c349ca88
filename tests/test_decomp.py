import numpy as np
import pytest

from qsylv import QMatrix, Quaternion, pinv, rank, singular_values
from qsylv.decomp import default_rank_tol
from qsylv.qmatrix import Identity, Zero
from qsylv.qcore import ETAS

from tests.conftest import rank_block_oracle


def real_representation(a):
    """The real 4m x 4n representation [[W,-X,-Y,-Z], [X,W,-Z,Y],
    [Y,Z,W,-X], [Z,-Y,X,W]] of A = W + X i + Y j + Z k (Zhang, LAA 251,
    1997), in which each singular value of A appears four times."""
    w, x, y, z = a.components()
    return np.block([[w, -x, -y, -z], [x, w, -z, y],
                     [y, z, w, -x], [z, -y, x, w]])


@pytest.mark.parametrize("build,want_rank", [
    (lambda r: r(5, 3), 3),
    (lambda r: r(2, 6), 2),
    (lambda r: r(4, 4), 4),
    (lambda r: r(1, 1), 1),
    (lambda r: r(5, 2) @ r(2, 4), 2),       # rank deficient
])
def test_singular_values_match_real_representation(build, want_rank, rand_q):
    a = build(rand_q)
    sig = singular_values(a)
    s = np.linalg.svd(real_representation(a), compute_uv=False)
    assert s.size == 4 * sig.size
    groups = s.reshape(-1, 4)
    assert np.ptp(groups, axis=1).max() <= 1e-12 * s[0]
    assert np.abs(groups.mean(axis=1) - sig).max() <= 1e-12 * s[0]
    assert rank(a) == want_rank
    real_rank = int((s > default_rank_tol(4 * a.rows, 4 * a.cols,
                                          float(s[0]))).sum())
    assert real_rank == 4 * want_rank


def test_rank_examples(rand_q):
    assert rank(QMatrix.zeros(3, 2)) == 0
    assert rank(QMatrix.zeros(0, 5)) == 0
    u, v = rand_q(4, 1), rand_q(1, 3)
    assert rank(u @ v) == 1
    assert rank(QMatrix.identity(4)) == 4


def test_pinv_examples():
    b = pinv(QMatrix.identity(3))
    assert (b.pinv - QMatrix.identity(3)).norm() <= 1e-14
    assert b.rank == 3
    assert b.proj_left.norm() <= 1e-14 and b.proj_right.norm() <= 1e-14
    z = pinv(QMatrix.zeros(2, 3))
    assert z.pinv.shape == (3, 2) and z.rank == 0
    assert (z.proj_left - QMatrix.identity(3)).norm() == 0.0
    assert (z.proj_right - QMatrix.identity(2)).norm() == 0.0
    # scalar oracle: q^+ = conj(q)/|q|^2
    two_i = QMatrix.from_entries([[Quaternion(0, 2, 0, 0)]])
    got = pinv(two_i).pinv.entry(0, 0)
    assert abs(got - Quaternion(0, -0.5, 0, 0)) <= 1e-15


def penrose_defect(a, bundle):
    p = bundle.pinv
    return max((a @ p @ a - a).norm(), (p @ a @ p - p).norm(),
               ((a @ p).conj_transpose() - a @ p).norm(),
               ((p @ a).conj_transpose() - p @ a).norm(),
               (bundle.proj_left @ bundle.proj_left - bundle.proj_left).norm(),
               (bundle.proj_right @ bundle.proj_right
                - bundle.proj_right).norm(),
               (bundle.proj_left.conj_transpose()
                - bundle.proj_left).norm(),
               (bundle.proj_right.conj_transpose()
                - bundle.proj_right).norm())


def test_penrose_identities_batch(rng, rand_q):
    from qsylv.decomp import _embedding, _svdvals
    for trial in range(60):
        m, n = rng.integers(1, 9, 2)
        if trial % 3 == 0:
            r0 = int(rng.integers(1, min(m, n) + 1))
            a = rand_q(int(m), r0) @ rand_q(r0, int(n))
        else:
            a = rand_q(int(m), int(n))
        bundle = pinv(a)
        assert penrose_defect(a, bundle) <= 1e-10 * (1.0 + a.norm())
        s = _svdvals(_embedding(a))
        embedded_rank = int((s > default_rank_tol(a.rows, a.cols,
                                                  float(s[0]))).sum())
        assert embedded_rank % 2 == 0
        assert embedded_rank == 2 * bundle.rank


@pytest.mark.parametrize("build,floor,want_rank", [
    (lambda r: r(5, 3), 0.0, 3),                        # full column rank
    (lambda r: r(2, 6), 0.0, 2),                        # full row rank
    (lambda r: r(1, 1), 0.0, 1),
    (lambda r: r(5, 2) @ r(2, 4), 0.0, 2),              # rank deficient
    (lambda r: r(3, 4, scale=1e-12), 1e-6, 0),          # below the floor
    (lambda r: QMatrix.zeros(3, 3), 0.0, 0),
    (lambda r: QMatrix.zeros(0, 3), 0.0, 0),
    (lambda r: QMatrix.zeros(4, 0), 0.0, 0),
])
def test_pinv_bundle_contract(build, floor, want_rank, rand_q):
    a = build(rand_q)
    bundle = pinv(a, floor=floor)
    m, n = a.shape
    assert bundle.rank == want_rank
    assert bundle.pinv.shape == (n, m)
    assert bundle.proj_left.shape == (n, n)
    assert bundle.proj_right.shape == (m, m)
    tol = 1e-12 * (1.0 + a.norm()) * (1.0 + bundle.pinv.norm())
    if want_rank == 0:
        assert bundle.pinv.norm() == 0.0
        assert (bundle.proj_left - QMatrix.identity(n)).norm() == 0.0
        assert (bundle.proj_right - QMatrix.identity(m)).norm() == 0.0
    else:
        # the four Penrose conditions, idempotent Hermitian projectors
        assert penrose_defect(a, bundle) <= tol
    p = bundle.pinv
    assert (bundle.proj_left - (QMatrix.identity(n) - p @ a)).norm() <= tol
    assert (bundle.proj_right - (QMatrix.identity(m) - a @ p)).norm() <= tol


@pytest.mark.parametrize("build, floor, svds", [
    (lambda r: QMatrix.zeros(3, 2), 0.0, 1),
    (lambda r: r(3, 4, scale=1e-12), 1e-6, 1),
    (lambda r: QMatrix.zeros(0, 3), 0.0, 0),
    (lambda r: QMatrix.zeros(4, 0), 0.0, 0),
])
def test_rank_zero_bundles_are_markers(build, floor, svds, rand_q,
                                       monkeypatch):
    """An empty or rank-0 matrix has a Zero pinv and Identity
    projectors; its SVD, rank and tol_used are those of any matrix."""
    a = build(rand_q)
    calls, real = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw:
                        calls.append(1) or real(*args, **kw))
    bundle = pinv(a, floor=floor)
    m, n = a.shape
    assert len(calls) == svds and bundle.rank == 0
    assert type(bundle.pinv) is Zero and bundle.pinv.shape == (n, m)
    assert type(bundle.proj_left) is Identity and bundle.proj_left.rows == n
    assert type(bundle.proj_right) is Identity and bundle.proj_right.rows == m
    if svds:
        sig = singular_values(a)
        want = max(default_rank_tol(m, n, float(sig[0])), floor)
        assert bundle.tol_used == want
    else:
        assert bundle.tol_used == 0.0
        assert pinv(a, tol=1e-3).tol_used == 1e-3


def test_eta_projector_identity(rand_q):
    # (L_A)^{eta*} = R_{A^{eta*}} and its mirror
    for eta in ETAS:
        a = rand_q(4, 3)
        other = pinv(a.eta_conj_transpose(eta))
        mine = pinv(a)
        assert (mine.proj_left.eta_conj_transpose(eta)
                - other.proj_right).norm() <= 1e-10
        assert (mine.proj_right.eta_conj_transpose(eta)
                - other.proj_left).norm() <= 1e-10


def test_rank_block_oracle_trivial(rand_q):
    z = QMatrix.zeros
    lhs, rhs = rank_block_oracle(z(2, 2), z(2, 3), z(4, 2), z(3, 3), z(4, 2))
    assert (lhs, rhs) == (0, 0)
    # D, E square invertible: L_D = 0, R_E = 0 so both sides are r(A)
    a = rand_q(3, 3)
    lhs, rhs = rank_block_oracle(a, rand_q(3, 2), rand_q(2, 3),
                                 rand_q(2, 2), rand_q(2, 2))
    assert lhs == rhs == rank(a)


def test_rank_block_oracle_random(rng, rand_q):
    for _ in range(40):
        m, n, k, l, j, i = (int(v) for v in rng.integers(1, 5, 6))
        lhs, rhs = rank_block_oracle(rand_q(m, n), rand_q(m, k),
                                     rand_q(l, n), rand_q(j, k),
                                     rand_q(l, i))
        assert lhs == rhs
