"""Numerical rank, Moore-Penrose inverse and projectors.

Everything is computed through the complex adjoint embedding: the
embedded matrix has singular values in equal pairs, one representative
per pair is kept (pair averaging symmetrizes rounding), and the rank of
the embedding is twice the quaternion rank.  Every ``rank`` and every
``pinv`` takes exactly one SVD of the embedding; ``pinv`` builds the
inverse and both projectors from its factors, reading each quaternion
result off the top block row of its embedded image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmatrix import QMatrix, embed_block

_EPS = float(np.finfo(np.float64).eps)


class NumericError(RuntimeError):
    """A decomposition failed to converge."""


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


def _embedding(a) -> np.ndarray:
    """The embedding of ``a``: a QMatrix, or a block grid as
    :func:`.qmatrix.block` takes it, written straight from its cells
    (:func:`.qmatrix.embed_block`)."""
    return a.embed() if isinstance(a, QMatrix) else embed_block(a)


def _svdvals(m: np.ndarray) -> np.ndarray:
    if min(m.shape) == 0:
        return np.zeros(0)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError("complex SVD of the embedding did not converge") from exc


def _embedded_svdvals(a) -> np.ndarray:
    """Singular values of the embedding of ``a`` (see :func:`_embedding`)."""
    return _svdvals(_embedding(a))


def singular_values(a: QMatrix) -> np.ndarray:
    """Pair-collapsed singular values of a quaternion matrix (descending)."""
    s = _embedded_svdvals(a)
    return 0.5 * (s[0::2] + s[1::2])


def rank(a, tol: float | None = None, floor: float = 0.0) -> int:
    """Numerical rank; for an empty matrix this is 0.

    ``a`` is a QMatrix or a block grid of them (``None`` for a zero
    block, as :func:`.qmatrix.block` takes it); a grid is ranked without
    forming its block matrix, with the same result.  ``floor`` is an
    absolute lower bound on the truncation threshold, used by the solver
    cascade so that intermediates that vanish in exact arithmetic are
    not ranked on their rounding noise.
    """
    m = _embedding(a)
    s = _svdvals(m)
    if s.size == 0:
        return 0
    sig = 0.5 * (s[0::2] + s[1::2])
    if tol is None:
        tol = default_rank_tol(m.shape[0] // 2, m.shape[1] // 2,
                               float(sig[0]))
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
