import numpy as np
import pytest

from qsylv import DimensionError, QMatrix, Quaternion, block, hstack, vstack
from qsylv.qmatrix import Identity, Zero, embed_block
from qsylv.qcore import (ETAS, I, J, K, quat_conj, quat_eta_conj,
                         quat_mul)

from tests.conftest import same_bits


def test_matmul_lifts_scalar_product():
    a = QMatrix.from_entries([[I]])
    b = QMatrix.from_entries([[J]])
    assert (a @ b).entry(0, 0) == K


def test_identity_and_empty_products(rand_q):
    a = rand_q(2, 5)
    assert ((QMatrix.identity(2) @ a) - a).norm() == 0.0
    left = rand_q(3, 0)
    right = QMatrix.zeros(0, 4)
    prod = left @ right
    assert prod.shape == (3, 4) and prod.norm() == 0.0


def test_identity_marker_products_are_the_operand(rand_q):
    a, b = rand_q(2, 3), rand_q(3, 2)
    i3 = Identity(3)
    assert (a @ i3) is a and (i3 @ b) is b
    assert (i3 @ Identity(3)).shape == (3, 3)
    z = Zero(3, 4)
    assert (i3 @ z) is z and type(Zero(2, 3) @ i3) is Zero
    # every other operation reads it as the stored identity
    stored = QMatrix.identity(3)
    x = rand_q(3, 3)
    for got, want in ((i3 + x, stored + x), (x - i3, x - stored),
                      (-i3, -stored), (i3 * 0.5, stored * 0.5),
                      (i3.copy(), stored),
                      (i3.conj_transpose(), stored.conj_transpose())):
        assert type(got) is QMatrix and same_bits(got, want)
    assert i3.embed().tobytes() == stored.embed().tobytes()
    assert not (i3.a1.flags.writeable or i3.a2.flags.writeable)
    for bad in (lambda: a @ Identity(2), lambda: Identity(2) @ b):
        with pytest.raises(DimensionError):
            bad()


def test_empty_products_are_zero_markers(rand_q):
    for left, right in ((rand_q(3, 0), rand_q(0, 4)),
                        (rand_q(0, 2), rand_q(2, 5)),
                        (rand_q(3, 2), rand_q(2, 0))):
        got = left @ right
        assert type(got) is Zero
        assert got.shape == (left.rows, right.cols)
        want = QMatrix._pair(left.a1 @ right.a1, left.a2 @ right.a2)
        assert same_bits(got.copy(), want)


def test_zero_marker_sums(rand_q):
    z = Zero(2, 3)
    assert (z + Zero(2, 3)) is z and (z - Zero(2, 3)) is z
    assert type(z.submatrix(slice(1, 2), slice(None))) is Zero
    assert z.submatrix(slice(1, 2), slice(None)).shape == (1, 3)
    assert z.norm() == 0.0
    x = rand_q(2, 3)
    assert type(z + x) is QMatrix and same_bits(z + x, x + QMatrix.zeros(2, 3))
    with pytest.raises(DimensionError):
        z + Zero(3, 2)


def test_matmul_shape_error(rand_q):
    with pytest.raises(DimensionError):
        rand_q(2, 3) @ rand_q(2, 3)


def test_conj_transpose_examples():
    a = QMatrix.from_entries([[I, J]])
    act = a.conj_transpose()
    assert act.shape == (2, 1)
    assert act.entry(0, 0) == -I and act.entry(1, 0) == -J
    b = QMatrix.from_entries([[Quaternion(1, 1, 0, 0)]])
    assert b.conj_transpose().entry(0, 0) == Quaternion(1, -1, 0, 0)
    assert (a.conj_transpose().conj_transpose() - a).norm() == 0.0


def test_conj_transpose_product_rule(rand_q):
    a, b = rand_q(3, 4), rand_q(4, 2)
    lhs = (a @ b).conj_transpose()
    rhs = b.conj_transpose() @ a.conj_transpose()
    assert (lhs - rhs).norm() <= 1e-13 * (1 + lhs.norm())


def test_eta_conj_transpose(rand_q):
    one = QMatrix.from_entries([[I]])
    assert one.eta_conj_transpose("i").entry(0, 0) == -I
    sym = QMatrix.from_entries([[1.0, 2.0], [2.0, -3.0]])
    assert (sym.eta_conj_transpose("i") - sym).norm() == 0.0
    jj = QMatrix.from_entries([[J, 0], [0, J]])
    # oracle: the explicit -eta A^* eta product
    eta_mat = QMatrix.from_entries([[J, 0], [0, J]])
    direct = -(eta_mat @ jj.conj_transpose() @ eta_mat)
    assert (jj.eta_conj_transpose("j") - direct).norm() == 0.0
    a = rand_q(3, 4)
    for eta in ("i", "j", "k"):
        assert (a.eta_conj_transpose(eta).eta_conj_transpose(eta)
                - a).norm() == 0.0


def test_embed_examples():
    one = QMatrix.from_entries([[1.0]])
    assert np.array_equal(one.embed(), np.eye(2))
    jm = QMatrix.from_entries([[J]])
    assert np.array_equal(jm.embed(), np.array([[0, 1], [-1, 0]], dtype=complex))


# (rows of A, cols of A = rows of B, cols of B), empty and 1 x 1 included
PRODUCT_SHAPES = [(3, 2, 4), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1),
                  (4, 5, 3)]


def _entrywise(m, fn):
    return [[fn(m.entry(p, q)) for q in range(m.cols)] for p in range(m.rows)]


def _assert_entries(m, shape, expected, tol=1e-13):
    assert m.shape == shape
    for p, row in enumerate(expected):
        for q, want in enumerate(row):
            assert abs(m.entry(p, q) - want) <= tol * (1.0 + abs(want))


@pytest.mark.parametrize("m,k,n", PRODUCT_SHAPES)
def test_matmul_matches_scalar_reference(m, k, n, rand_q):
    a, b = rand_q(m, k), rand_q(k, n)
    want = [[sum((quat_mul(a.entry(p, t), b.entry(t, q)) for t in range(k)),
                 Quaternion()) for q in range(n)] for p in range(m)]
    _assert_entries(a @ b, (m, n), want)
    lhs, rhs = (a @ b).embed(), a.embed() @ b.embed()
    assert lhs.shape == (2 * m, 2 * n)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(lhs))


@pytest.mark.parametrize("m,k", [(3, 4), (0, 3), (3, 0), (1, 1)])
def test_unary_operations_match_scalar_reference(m, k, rand_q):
    a = rand_q(m, k)
    q = Quaternion(0.3, -1.2, 0.7, 2.1)
    _assert_entries(a * q, (m, k), _entrywise(a, lambda e: quat_mul(e, q)))
    _assert_entries(q * a, (m, k), _entrywise(a, lambda e: quat_mul(q, e)))
    _assert_entries(a.conj(), (m, k), _entrywise(a, quat_conj), 0.0)
    trans = lambda rows: [list(col) for col in zip(*rows)]
    _assert_entries(a.conj_transpose(), (k, m),
                    trans(_entrywise(a, quat_conj)), 0.0)
    for eta in ETAS:
        _assert_entries(a.eta_conj_transpose(eta), (k, m), trans(_entrywise(
            a, lambda e: quat_eta_conj(e, eta))), 0.0)


def test_plane_views_write_through():
    a = QMatrix.zeros(2, 3)
    a.w[0, 1], a.x[1, 0], a.y[1, 2], a.z[0, 0] = 1.0, 2.0, 3.0, 4.0
    assert a.entry(0, 1) == Quaternion(1, 0, 0, 0)
    assert a.entry(1, 0) == Quaternion(0, 2, 0, 0)
    assert a.entry(1, 2) == Quaternion(0, 0, 3, 0)
    assert a.entry(0, 0) == Quaternion(0, 0, 0, 4)
    for plane in a.components():
        plane[1, 1] = -1.0
    assert a.entry(1, 1) == Quaternion(-1, -1, -1, -1)
    assert a.embed()[2 + 1, 3 + 1] == complex(-1, 1)


def test_embed_keeps_signed_zeros_of_the_block_formula():
    # every plane pattern of +0.0, -0.0 and two nonzeros, in both planes
    vals = np.array([0.0, -0.0, 1.5, -2.0])
    w, x, y, z = (a.reshape(16, 16)
                  for a in np.meshgrid(vals, vals, vals, vals, indexing="ij"))
    a = QMatrix(w, x, y, z)
    b = QMatrix(z, y, x, w)

    def formula(m):
        return np.block([[m.a1, m.a2], [np.negative(m.a2.conj()), m.a1.conj()]])

    for got, want in ((a.embed(), formula(a)),
                      (embed_block([[a, None], [None, b]]),
                       formula(block([[a, None], [None, b]]))),
                      (embed_block([[a], [b]]), formula(block([[a], [b]])))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_embed_is_ring_homomorphism(rand_q):
    a, b = rand_q(3, 2), rand_q(2, 4)
    lhs = (a @ b).embed()
    rhs = a.embed() @ b.embed()
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(lhs))
    c = rand_q(3, 2)
    assert np.linalg.norm((a + c).embed() - (a.embed() + c.embed())) == 0.0
    assert np.linalg.norm(a.conj_transpose().embed()
                          - a.embed().conj().T) <= 1e-15


def test_block_assembly_round_trip(rand_q):
    a, b = rand_q(2, 3), rand_q(2, 1)
    c, d = rand_q(4, 3), rand_q(4, 1)
    m = block([[a, b], [c, d]])
    assert m.shape == (6, 4)
    assert (m.submatrix(slice(0, 2), slice(0, 3)) - a).norm() == 0.0
    assert (m.submatrix(slice(2, 6), slice(3, 4)) - d).norm() == 0.0
    with_zeros = block([[a, None], [None, d]])
    assert (with_zeros.submatrix(slice(0, 2), slice(3, 4))).norm() == 0.0
    assert (hstack([a, b]) - block([[a, b]])).norm() == 0.0
    assert (vstack([a, c]) - block([[a], [c]])).norm() == 0.0


def test_block_errors(rand_q):
    with pytest.raises(DimensionError):
        block([[rand_q(2, 2), rand_q(3, 2)]])
    with pytest.raises(DimensionError):
        block([[None, None], [rand_q(2, 2), None]])
    with pytest.raises(DimensionError):
        hstack([rand_q(2, 2), rand_q(3, 2)])
    with pytest.raises(DimensionError):
        vstack([rand_q(2, 2), rand_q(2, 3)])
    with pytest.raises(DimensionError):
        hstack([])
    with pytest.raises(DimensionError):
        vstack([])


def test_scalar_multiplication():
    # scalar multiplication is side-sensitive: j*i = -k but i*j = k
    a = QMatrix.from_entries([[I]])
    assert (J * a).entry(0, 0) == Quaternion(0, 0, 0, -1)
    assert (a * J).entry(0, 0) == K
    assert ((a * 2.0) - (2.0 * a)).norm() == 0.0


def test_norms(rand_q):
    a = rand_q(3, 3)
    emb = np.linalg.norm(a.embed()) / np.sqrt(2.0)
    assert abs(a.norm() - emb) <= 1e-12 * (1 + emb)
    assert QMatrix.zeros(2, 2).norm() == 0.0
    assert QMatrix.zeros(0, 3).norm() == 0.0


def test_entries_round_trip():
    entries = [[Quaternion(1, 2, 3, 4), 5.0], [(0, 1, 0, 0), Quaternion()]]
    m = QMatrix.from_entries(entries)
    back = m.entries()
    assert back[0] == Quaternion(1, 2, 3, 4)
    assert back[1] == Quaternion(5)
    assert back[2] == I
