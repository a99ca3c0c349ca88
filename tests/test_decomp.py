import numpy as np
import pytest

from qsylv import (QMatrix, Quaternion, identity, pinv, rank,
                   rank_block_oracle, singular_values, svd, zeros)
from qsylv.decomp import (_jacobi_svd, default_rank_tol,
                          eta_projector_identity_defect, real_diag)
from qsylv.qcore import ETAS, J


def svd_defects(a):
    u, sig, v = svd(a)
    k = len(sig)
    recon = (a - u @ real_diag(sig) @ v.conj_transpose()).norm()
    ortho = max((u.conj_transpose() @ u - identity(k)).norm(),
                (v.conj_transpose() @ v - identity(k)).norm())
    return sig, recon, ortho


def test_svd_examples():
    sig, recon, ortho = svd_defects(QMatrix.from_entries([[3.0, 0], [0, 1.0]]))
    assert np.allclose(sig, [3.0, 1.0])
    sig, recon, ortho = svd_defects(QMatrix.from_entries([[J]]))
    assert np.allclose(sig, [1.0])
    assert recon <= 1e-12 and ortho <= 1e-12


def test_svd_random_reconstruction(rand_q):
    a = rand_q(5, 3)
    sig, recon, ortho = svd_defects(a)
    assert recon <= 1e-12 * max(1.0, a.norm())
    assert ortho <= 1e-12
    assert (np.diff(sig) <= 0).all() and (sig >= 0).all()


@pytest.mark.parametrize("build", [
    lambda r: identity(4),
    lambda r: identity(3) * 2.5,
    lambda r: r(5, 2) @ r(2, 5),           # rank deficient
    lambda r: zeros(3, 3),
    lambda r: r(2, 6),                      # wide
    lambda r: r(6, 2),                      # tall
])
def test_svd_contract_on_degenerate_shapes(build, rand_q):
    a = build(rand_q)
    sig, recon, ortho = svd_defects(a)
    assert recon <= 1e-12 * max(1.0, a.norm())
    assert ortho <= 1e-12


def test_svd_near_degenerate_gaps(rand_q):
    # distinct singular values separated by tiny gaps exercise the
    # Jacobi fallback route
    u, _, _ = svd(rand_q(5, 4))
    v, _, _ = svd(rand_q(4, 4))
    for gaps in ([1, 1 + 3e-8, 2, 3], [1, 1 + 1e-12, 2, 3],
                 [1, 1e-7, 1e-7, 1e-13]):
        a = u @ real_diag(sorted(gaps, reverse=True)) @ v.conj_transpose()
        sig, recon, ortho = svd_defects(a)
        assert recon <= 1e-12 * max(1.0, a.norm())
        assert ortho <= 1e-12


def test_svd_empty():
    u, sig, v = svd(zeros(0, 3))
    assert u.shape == (0, 0) and v.shape == (3, 0) and sig.size == 0


def test_jacobi_agrees_with_embedding_route(rand_q):
    a = rand_q(5, 3)
    sig_e = singular_values(a)
    _, sig_j, _ = _jacobi_svd(a)
    assert np.allclose(sig_e, sig_j, rtol=0, atol=1e-12 * max(1, sig_e[0]))


def test_rank_examples(rand_q):
    assert rank(zeros(3, 2)) == 0
    assert rank(zeros(0, 5)) == 0
    u, v = rand_q(4, 1), rand_q(1, 3)
    assert rank(u @ v) == 1
    assert rank(identity(4)) == 4


def test_pinv_examples():
    b = pinv(identity(3))
    assert (b.pinv - identity(3)).norm() <= 1e-14
    assert b.rank == 3
    assert b.proj_left.norm() <= 1e-14 and b.proj_right.norm() <= 1e-14
    z = pinv(zeros(2, 3))
    assert z.pinv.shape == (3, 2) and z.rank == 0
    assert (z.proj_left - identity(3)).norm() == 0.0
    assert (z.proj_right - identity(2)).norm() == 0.0
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
    from qsylv.decomp import _embedded_svdvals
    for trial in range(60):
        m, n = rng.integers(1, 9, 2)
        if trial % 3 == 0:
            r0 = int(rng.integers(1, min(m, n) + 1))
            a = rand_q(int(m), r0) @ rand_q(r0, int(n))
        else:
            a = rand_q(int(m), int(n))
        bundle = pinv(a)
        assert penrose_defect(a, bundle) <= 1e-10 * (1.0 + a.norm())
        s = _embedded_svdvals(a)
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
    (lambda r: zeros(3, 3), 0.0, 0),
    (lambda r: zeros(0, 3), 0.0, 0),
    (lambda r: zeros(4, 0), 0.0, 0),
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
        assert (bundle.proj_left - identity(n)).norm() == 0.0
        assert (bundle.proj_right - identity(m)).norm() == 0.0
    else:
        # the four Penrose conditions, idempotent Hermitian projectors
        assert penrose_defect(a, bundle) <= tol
    p = bundle.pinv
    assert (bundle.proj_left - (identity(n) - p @ a)).norm() <= tol
    assert (bundle.proj_right - (identity(m) - a @ p)).norm() <= tol


def test_eta_projector_identity(rand_q):
    # (L_A)^{eta*} = R_{A^{eta*}} and its mirror
    for eta in ETAS:
        a = rand_q(4, 3)
        assert eta_projector_identity_defect(a, eta) <= 1e-10
        other = pinv(a.eta_conj_transpose(eta))
        mine = pinv(a)
        assert (mine.proj_right.eta_conj_transpose(eta)
                - other.proj_left).norm() <= 1e-10


def test_rank_block_oracle_trivial(rand_q):
    z = zeros(2, 2)
    lhs, rhs = rank_block_oracle(z, zeros(2, 3), zeros(4, 2),
                                 zeros(3, 3), zeros(4, 2))
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
