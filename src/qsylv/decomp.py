"""Numerical rank, SVD, Moore-Penrose inverse and projectors.

Everything is computed through the complex adjoint embedding: the
embedded matrix has singular values in equal pairs, one representative
per pair is kept (pair averaging symmetrizes rounding), and the rank of
the embedding is twice the quaternion rank.  Every ``rank`` and every
``pinv`` takes exactly one SVD of the embedding; ``pinv`` builds the
inverse and both projectors from its factors, reading each quaternion
result off the top block row of its embedded image.

Singular vectors are recovered by unembedding structure-projected
columns of the complex factors.  Clusters of (numerically) equal
singular values need joint treatment because the complex SVD does not
return structure-respecting vectors inside a degenerate subspace; the
recovery orthonormalizes each cluster and transports the combination to
the other factor.  When the recovered factors still miss the contract
bounds (possible for distinct singular values separated by less than
about 1e-4 relative), the computation falls back to a one-sided Jacobi
iteration in quaternion arithmetic, which is insensitive to spectral
gaps.  Conditioning problems are reported, never silently ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmatrix import QMatrix, block, hstack

_EPS = float(np.finfo(np.float64).eps)

# contract bounds for svd(); verified after recovery
_ORTHO_BOUND = 1e-12
_RECON_BOUND = 1e-12


class NumericError(RuntimeError):
    """A decomposition failed to converge or to meet its contract."""


@dataclass(frozen=True)
class PinvBundle:
    """Moore-Penrose inverse of one matrix plus its two projectors.

    proj_left is L_A = I - pinv(A) A, proj_right is R_A = I - A pinv(A).
    """

    pinv: QMatrix
    proj_left: QMatrix
    proj_right: QMatrix
    rank: int
    tol_used: float


def default_rank_tol(rows: int, cols: int, sigma_max: float) -> float:
    return max(rows, cols) * sigma_max * _EPS


def _embedded_svdvals(a: QMatrix) -> np.ndarray:
    m = a.embed()
    if min(m.shape) == 0:
        return np.zeros(0)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError("complex SVD of the embedding did not converge") from exc


def singular_values(a: QMatrix) -> np.ndarray:
    """Pair-collapsed singular values of a quaternion matrix (descending)."""
    s = _embedded_svdvals(a)
    return 0.5 * (s[0::2] + s[1::2])


def rank(a: QMatrix, tol: float | None = None, floor: float = 0.0) -> int:
    """Numerical rank; for an empty matrix this is 0.

    ``floor`` is an absolute lower bound on the truncation threshold,
    used by the solver cascade so that intermediates that vanish in
    exact arithmetic are not ranked on their rounding noise.
    """
    sig = singular_values(a)
    if sig.size == 0:
        return 0
    if tol is None:
        tol = default_rank_tol(a.rows, a.cols, float(sig[0]))
    return int(np.count_nonzero(sig > max(tol, floor)))


def pinv(a: QMatrix, tol: float | None = None, floor: float = 0.0) -> PinvBundle:
    """Moore-Penrose inverse with projectors, from one SVD of the embedding.

    Singular values are truncated jointly per embedded pair at the rank
    tolerance (default max(m, n) * sigma_max * eps).  ``floor`` is an
    absolute lower bound on the threshold; see :func:`rank`.  With the
    kept factors U_r, S_r, V_r of the embedding, A^+ = V_r S_r^+ U_r^*,
    L_A = I - V_r V_r^* and R_A = I - U_r U_r^*; each is an adjoint
    image, so only the top block row of each product is formed, and it
    is (X1, X2) of the quaternion result.
    """
    m, n = a.shape
    if m == 0 or n == 0:
        return PinvBundle(QMatrix.zeros(n, m), QMatrix.identity(n),
                          QMatrix.identity(m), 0, 0.0 if tol is None else tol)
    emb = a.embed()
    try:
        uc, s, vh = np.linalg.svd(emb, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError("complex SVD of the embedding did not converge") from exc
    sig = 0.5 * (s[0::2] + s[1::2])
    if tol is None:
        tol = default_rank_tol(m, n, float(sig[0]))
    tol = max(tol, floor)
    r = int(np.count_nonzero(sig > tol))
    if r == 0:
        return PinvBundle(QMatrix.zeros(n, m), QMatrix.identity(n),
                          QMatrix.identity(m), 0, tol)
    uh = uc[:, : 2 * r].conj().T
    v = vh[: 2 * r].conj().T
    top_pinv = (v[:n] * np.repeat(1.0 / sig[:r], 2)) @ uh
    top_left = -(v[:n] @ vh[: 2 * r])
    top_right = -(uc[:m, : 2 * r] @ uh)
    top_left[:, :n] += np.eye(n)
    top_right[:, :m] += np.eye(m)
    halves = lambda top, k: QMatrix._pair(top[:, :k], top[:, k:])
    return PinvBundle(halves(top_pinv, m), halves(top_left, n),
                      halves(top_right, m), r, tol)


def pinv_matrix(a: QMatrix, tol: float | None = None) -> QMatrix:
    return pinv(a, tol).pinv


# -- singular vector recovery ---------------------------------------------

def _lift_cols(cmat: np.ndarray, idx) -> QMatrix:
    """Lift embedding columns (2m complex) to quaternion columns (m)."""
    half = cmat.shape[0] // 2
    return QMatrix._pair(cmat[:half, idx], -np.conj(cmat[half:, idx]))


def _col(mat: QMatrix, j: int) -> QMatrix:
    return mat.submatrix(slice(None), slice(j, j + 1))


def _mgs_reject(candidates, against, need, threshold=0.3):
    """Greedy quaternion Gram-Schmidt keeping `need` independent columns."""
    out = []
    for cand in candidates:
        v = cand
        for _ in range(2):
            for u in against + out:
                v = v - u @ (u.conj_transpose() @ v)
        nv = v.norm()
        if nv > threshold:
            out.append(v * (1.0 / nv))
            if len(out) == need:
                break
    return out


def _mgs_with_coeffs(pool_cols, need, threshold=0.3):
    """Gram-Schmidt over a pool, tracking combination coefficients."""
    count = len(pool_cols)
    acc = []
    for c, cand in enumerate(pool_cols):
        v = cand
        alpha = QMatrix.zeros(count, 1)
        alpha.w[c, 0] = 1.0
        for _ in range(2):
            for u, au in acc:
                coef = u.conj_transpose() @ v
                v = v - u @ coef
                alpha = alpha - au @ coef
        nv = v.norm()
        if nv > threshold:
            inv = 1.0 / nv
            acc.append((v * inv, alpha * inv))
            if len(acc) == need:
                break
    return acc


def _clusters(sig: np.ndarray, ctol: float):
    groups = []
    t = 0
    while t < sig.size:
        t1 = t
        while t1 + 1 < sig.size and sig[t1] - sig[t1 + 1] <= ctol:
            t1 += 1
        groups.append((t, t1))
        t = t1 + 1
    return groups


def _recover_factors(a: QMatrix, uc, sig, vc):
    """Quaternion U, V from the embedded factors; one column per pair."""
    m, n = a.shape
    k = min(m, n)
    smax = float(sig[0]) if sig.size else 0.0
    ctol = 64.0 * max(2 * m, 2 * n) * _EPS * smax
    ztol = 32.0 * max(m, n) * _EPS * smax
    ucols, vcols = [], []
    for t0, t1 in _clusters(sig, ctol):
        size = t1 - t0 + 1
        if size == 1 and sig[t0] > ztol:
            uq = _lift_cols(uc, [2 * t0])
            vq = _lift_cols(vc, [2 * t0])
            nu, nv = uq.norm(), vq.norm()
            if nu == 0.0 or nv == 0.0:
                return None
            ucols.append(uq * (1.0 / nu))
            vcols.append(vq * (1.0 / nv))
            continue
        pool_idx = [i for t in range(t0, t1 + 1) for i in (2 * t, 2 * t + 1)]
        upool = _lift_cols(uc, pool_idx)
        vpool = _lift_cols(vc, pool_idx)
        vpool_cols = [_col(vpool, j) for j in range(len(pool_idx))]
        upool_cols = [_col(upool, j) for j in range(len(pool_idx))]
        if sig[t0] > ztol:
            acc = _mgs_with_coeffs(vpool_cols, size)
            if len(acc) < size:
                return None
            for v, alpha in acc:
                u = upool @ alpha
                nu = u.norm()
                if nu < 0.3:
                    return None
                ucols.append(u * (1.0 / nu))
                vcols.append(v)
        else:
            got_v = _mgs_reject(vpool_cols, vcols, size)
            got_u = _mgs_reject(upool_cols, ucols, size)
            if len(got_v) < size or len(got_u) < size:
                return None
            vcols.extend(got_v)
            ucols.extend(got_u)
    if len(ucols) != k:
        return None
    return hstack(ucols), hstack(vcols)


def real_diag(values) -> QMatrix:
    values = np.asarray(values, dtype=float)
    return QMatrix(np.diag(values))


def _contract_defects(a: QMatrix, u: QMatrix, sig, v: QMatrix):
    k = sig.size
    eye = QMatrix.identity(k)
    du = (u.conj_transpose() @ u - eye).norm()
    dv = (v.conj_transpose() @ v - eye).norm()
    recon = (a - u @ real_diag(sig) @ v.conj_transpose()).norm()
    return max(du, dv), recon


def svd(a: QMatrix, tol: float | None = None):
    """Thin quaternion SVD: A = U diag(sigma) V^* with min(m, n) triples.

    Returns (U, sigma, V) with sigma a descending float ndarray and U, V
    having quaternion-orthonormal columns.  Raises NumericError when no
    route converges to the contract bounds.
    """
    m, n = a.shape
    k = min(m, n)
    if k == 0:
        return QMatrix.zeros(m, 0), np.zeros(0), QMatrix.zeros(n, 0)
    emb = a.embed()
    try:
        uc, s, vh = np.linalg.svd(emb, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError("complex SVD of the embedding did not converge") from exc
    sig = 0.5 * (s[0::2] + s[1::2])
    scale = max(1.0, a.norm())
    factors = _recover_factors(a, uc, sig, vh.conj().T)
    if factors is not None:
        u, v = factors
        ortho, recon = _contract_defects(a, u, sig, v)
        if ortho <= 0.5 * _ORTHO_BOUND and recon <= 0.5 * _RECON_BOUND * scale:
            return u, sig, v
    u, sig_j, v = _jacobi_svd(a)
    ortho, recon = _contract_defects(a, u, sig_j, v)
    if ortho > _ORTHO_BOUND or recon > _RECON_BOUND * scale:
        raise NumericError(
            f"svd factors missed contract bounds (ortho {ortho:.2e}, "
            f"reconstruction {recon:.2e})")
    return u, sig_j, v


# -- one-sided Jacobi in quaternion arithmetic ----------------------------

def _jacobi_svd(a: QMatrix, max_sweeps: int = 100):
    """One-sided Jacobi SVD; gap-insensitive fallback route."""
    m, n = a.shape
    if m < n:
        u, sig, v = _jacobi_svd(a.conj_transpose(), max_sweeps)
        return v, sig, u
    wmat, vmat = a.copy(), QMatrix.identity(n)
    conv = 8.0 * _EPS
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                p1, p2 = wmat.a1[:, p], wmat.a2[:, p]
                q1, q2 = wmat.a1[:, q], wmat.a2[:, q]
                app = np.vdot(p1, p1).real + np.vdot(p2, p2).real
                aqq = np.vdot(q1, q1).real + np.vdot(q2, q2).real
                if app == 0.0 or aqq == 0.0:
                    continue
                # quaternion inner product conj(col_p) . col_q = g1 + g2 j
                g1 = np.vdot(p1, q1) + np.vdot(q2, p2)
                g2 = np.vdot(p1, q2) - np.vdot(q1, p2)
                gabs = math.sqrt(abs(g1) ** 2 + abs(g2) ** 2)
                rel = gabs / math.sqrt(app * aqq)
                off = max(off, rel)
                if rel <= conv:
                    continue
                # col_q * conj(u) with the unit u = g / |g| makes the 2x2
                # Gram real, then a real Givens rotation zeroes its
                # off-diagonal
                u1, u2 = g1 / gabs, g2 / gabs
                tau = (aqq - app) / (2.0 * gabs)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                sn = t * c
                for x1, x2 in ((wmat.a1, wmat.a2), (vmat.a1, vmat.a2)):
                    t1 = x1[:, q] * np.conj(u1) + x2[:, q] * np.conj(u2)
                    t2 = x2[:, q] * u1 - x1[:, q] * u2
                    new1, new2 = x1[:, p] * c - t1 * sn, x2[:, p] * c - t2 * sn
                    x1[:, q] = x1[:, p] * sn + t1 * c
                    x2[:, q] = x2[:, p] * sn + t2 * c
                    x1[:, p], x2[:, p] = new1, new2
        if off <= conv:
            break
    else:
        raise NumericError("one-sided Jacobi did not converge in "
                           f"{max_sweeps} sweeps")
    norms = np.sqrt((np.abs(wmat.a1) ** 2 + np.abs(wmat.a2) ** 2).sum(axis=0))
    order = np.argsort(-norms, kind="stable")
    sig = norms[order]
    smax = float(sig[0]) if sig.size else 0.0
    ztol = 32.0 * max(m, n) * _EPS * smax
    ucols = []
    for j in order:
        colnorm = norms[j]
        if colnorm > ztol:
            ucols.append(_col(wmat, int(j)) * (1.0 / colnorm))
        else:
            ucols.append(None)
    # complete columns for (numerically) zero singular values
    missing = [j for j, col in enumerate(ucols) if col is None]
    if missing:
        cands = []
        for e in range(m):
            cand = QMatrix.zeros(m, 1)
            cand.w[e, 0] = 1.0
            cands.append(cand)
        got = _mgs_reject(cands, [c for c in ucols if c is not None],
                          len(missing))
        if len(got) < len(missing):
            raise NumericError("failed to complete an orthonormal basis")
        for j, col in zip(missing, got):
            ucols[j] = col
    u = hstack(ucols)
    vperm = hstack([_col(vmat, int(j)) for j in order])
    return u, sig, vperm


# -- rank identity oracle --------------------------------------------------

def rank_block_oracle(a: QMatrix, b: QMatrix, c: QMatrix, d: QMatrix,
                      e: QMatrix, tol: float | None = None):
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
    floor = 256.0 * _EPS * max([1.0] + [m.norm() for m in (a, b, c, d, e)])
    ld = pinv(d, tol, floor=floor).proj_left
    re = pinv(e, tol, floor=floor).proj_right
    lhs = rank(block([[a, b @ ld], [re @ c, None]]), tol, floor=floor)
    big = rank(block([[a, b, None], [c, None, e], [None, d, None]]),
               tol, floor=floor)
    rhs = big - rank(d, tol, floor=floor) - rank(e, tol, floor=floor)
    return lhs, rhs


def eta_projector_identity_defect(a: QMatrix, eta: str, tol=None) -> float:
    """Residual of (L_A)^{eta*} = R_{A^{eta*}} for one matrix."""
    bundle = pinv(a, tol)
    other = pinv(a.eta_conj_transpose(eta), tol)
    return (bundle.proj_left.eta_conj_transpose(eta) - other.proj_right).norm()
