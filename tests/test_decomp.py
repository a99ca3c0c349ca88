import numpy as np
import pytest

from qsylv import QMatrix, Quaternion, decomp, pinv, rank, singular_values
from qsylv.decomp import default_rank_tol
from qsylv.qmatrix import Identity, Zero
from qsylv.qcore import ETAS

from tests.conftest import counts, rank_block_oracle


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
                                       counter):
    """An empty or rank-0 matrix has a Zero pinv and Identity
    projectors; its SVD, rank and tol_used are those of any matrix."""
    a = build(rand_q)
    bundle = pinv(a, floor=floor)
    m, n = a.shape
    assert counts(counter.take()) == (svds, 0, 0) and bundle.rank == 0
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


def _real(rng, rows, cols, values):
    """A real rows x cols QMatrix with these singular values (at most
    min(rows, cols) of them, the rest 0)."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    s = np.zeros((rows, cols))
    s[range(len(values)), range(len(values))] = values
    zero = np.zeros((rows, cols))
    return QMatrix(u @ s @ v.T, zero, zero, zero)


@pytest.mark.parametrize("build, floor, certified", [
    (lambda r, g: r(5, 2) @ r(2, 4), 0.0, False),    # exactly deficient
    (lambda r, g: QMatrix.zeros(3, 3), 0.0, False),
    (lambda r, g: _real(g, 9, 3, [1.0, 0.5, 1e-10]), 0.0, False),
    (lambda r, g: _real(g, 9, 3, [1.0, 0.5, 0.25]), 0.0, True),
    (lambda r, g: _real(g, 9, 3, [1.0, 0.5, 0.25]), 0.01, True),
    # full rank at the floor, but within 16 times it: the SVD decides
    (lambda r, g: _real(g, 9, 3, [1.0, 0.5, 0.25]), 0.02, False),
    (lambda r, g: r(4, 4), 0.0, True),
    (lambda r, g: r(2, 6), 0.0, True),               # wide
    (lambda r, g: r(6, 2), 0.0, True),               # tall
    (lambda r, g: r(1, 1, scale=1e-200), 0.0, False),  # the Gram underflows
    (lambda r, g: QMatrix.zeros(0, 3), 0.0, True),   # empty: rank 0
    (lambda r, g: QMatrix.zeros(4, 0), 0.0, True),
    (lambda r, g: QMatrix.zeros(0, 0), 0.0, True),
])
def test_full_rank_certificate_agrees_with_rank(build, floor, certified,
                                                 rand_q, rng, counter):
    """A certified grid takes min(m, n) with no SVD; a refused one is
    ranked by SVD.  Either way its rank is that of ``rank``."""
    a = build(rand_q, rng)
    want = rank(a, floor=floor)
    assert decomp._full_rank(a.embed(), floor) == certified
    if certified:
        assert want == min(a.shape)
    counter.take()
    assert decomp.ranks([[[a]]], floor, full_first=True) == [want]
    # a refused grid takes its SVD (an empty one needs none)
    assert counts(counter.take()) == (0, 0 if certified else 1, 1)


def test_full_rank_refuses_data_that_are_not_finite():
    for bad in (np.inf, np.nan):
        emb = QMatrix([[1.0, bad]]).embed()
        with np.errstate(invalid="ignore"):
            assert not decomp._full_rank(emb, 0.0)
    assert not decomp._full_rank(QMatrix.identity(2).embed(), np.inf)


def test_the_first_refusal_ends_the_certificates_of_a_list(
        rand_q, counter):
    good, bad = rand_q(4, 3), rand_q(4, 2) @ rand_q(2, 3)
    grids = [[[good]], [[bad]], [[good]], [[good]]]
    assert decomp.ranks(grids, 0.0, full_first=True) == [3, 2, 3, 3]
    # the first is certified, the second refused: it and the rest take
    # SVDs, so a list wastes at most one Gram matrix
    assert counts(counter.take()) == (0, 3, 2)
    assert decomp.ranks(grids[::-1], 0.0, full_first=True) == [3, 3, 2, 3]
    assert counts(counter.take()) == (0, 2, 3)
    # each list starts afresh
    assert decomp.ranks([[[good]]], 0.0, full_first=True) == [3]
    assert counts(counter.take()) == (0, 0, 1)


def test_full_first_moves_no_rank(rng, rand_q):
    """Random grids across conditioning, shapes and floors: every list
    ranks the same with the certificate as without it."""
    for _ in range(60):
        rows, cols = (int(v) for v in rng.integers(1, 7, 2))
        k = min(rows, cols)
        values = 10.0 ** -rng.uniform(0, 16, k)
        values[rng.random(k) < 0.2] = 0.0
        values[rng.integers(0, k)] = 1.0
        a, b = _real(rng, rows, cols, values), rand_q(rows, 2)
        grids = [[[a]], [[a, b]], [[b, None], [None, a]]]
        for floor in (0.0, 1e-12, 1e-6, 1e-3):
            assert (decomp.ranks(grids, floor, full_first=True)
                    == decomp.ranks(grids, floor)
                    == [rank(g, floor=floor) for g in grids])
