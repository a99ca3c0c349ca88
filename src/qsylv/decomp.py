"""Numerical rank, Moore-Penrose inverse and projectors.

Everything is computed through the complex adjoint embedding: the
embedded matrix has singular values in equal pairs, one representative
per pair is kept (pair averaging symmetrizes rounding), and the rank of
the embedding is twice the quaternion rank.  Every ``rank`` and every
``pinv`` takes exactly one SVD of the embedding; ``pinv`` builds the
inverse and both projectors from its factors, reading each quaternion
result off the top block row of its embedded image.

``ranks`` ranks a list of block grids, each with the arithmetic of
``rank``.  When BLAS is pinned to one thread, the process may run on at
least two CPUs and the largest embedding has at least
``_HELPER_MIN_ENTRIES`` complex entries, one short-lived helper thread
embeds and ranks the largest grid while the calling thread ranks the
rest.  Half of the bidiagonalization's flops are BLAS-2, memory-bound
once the matrix outgrows the cache (Golub and Van Loan, *Matrix
Computations*, section 5.4.8), so that SVD overlaps with the others;
BLAS-3 work on two threads of one process does not.  The helper is
joined before ``ranks`` returns or raises.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .qmatrix import BlockGrid, QMatrix, embed_block

_EPS = float(np.finfo(np.float64).eps)

# Gates of the rank helper (see :func:`ranks`): the environment
# variables that pin BLAS threads, read in this order, and the smallest
# embedding (complex entries, 4 MiB) that is ranked beside the others.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_HELPER_MIN_ENTRIES = 1 << 18


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


def _helper_allowed(entries: int) -> bool:
    """Whether :func:`ranks` may rank an embedding of ``entries``
    complex entries on a helper thread: it is at least
    ``_HELPER_MIN_ENTRIES``, the first of ``_BLAS_THREAD_VARS`` that is
    set is ``"1"``, and at least two CPUs are allowed."""
    if entries < _HELPER_MIN_ENTRIES:
        return False
    blas = next((os.environ[var] for var in _BLAS_THREAD_VARS
                 if var in os.environ), None)
    return (blas == "1" and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def ranks(grids, floor: float) -> list:
    """``[rank(g, floor=floor) for g in grids]`` for block grids, each
    laid out once.

    When :func:`_helper_allowed` admits the largest embedding, one
    helper thread ranks that grid while this thread ranks the rest in
    order; the helper is joined before this returns or raises, and an
    error in it is raised here.  Every rank takes the same SVD of the
    same embedding either way, so the results are the same.
    """
    laid = [BlockGrid(g) for g in grids]
    sizes = [4 * g.rows * g.cols for g in laid]
    big = max(range(len(laid)), key=sizes.__getitem__, default=None)
    if big is None or not _helper_allowed(sizes[big]):
        return [rank(g, floor=floor) for g in laid]
    out, failed = [None] * len(laid), []

    def helper():
        try:
            out[big] = rank(laid[big], floor=floor)
        except Exception as exc:
            failed.append(exc)

    thread = threading.Thread(target=helper, name="qsylv-rank")
    thread.start()
    try:
        for i, g in enumerate(laid):
            if i != big:
                out[i] = rank(g, floor=floor)
    finally:
        thread.join()
    if failed:
        raise failed[0]
    return out


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
