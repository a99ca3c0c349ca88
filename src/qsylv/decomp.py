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
ranks the largest grid, embedded on the calling thread first, while the
calling thread ranks the rest.  The gate is where numpy's
``svd(compute_uv=False)`` releases the GIL, so a smaller helper SVD
would shut the calling thread out: at 394x392 it keeps a pure-Python
loop on another thread blocked for the whole call, from 510x510 up it
does not.  The helper is joined before ``ranks`` returns or raises.

With ``full_first`` set, ``ranks`` first tries to certify each grid as
full rank, by a Cholesky factorization of its shifted Gram matrix
(:func:`_full_rank`), several times cheaper than the SVD.  A
certificate proves the smallest singular value so far above any cut
``rank`` uses that the SVD would count every value, so the rank is the
same either way.  On each thread the first refusal turns the
certificate off for the rest of its grids.  Every rank SVD is taken by
``rank``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .qmatrix import BlockGrid, Identity, QMatrix, Zero, embed_block

_EPS = float(np.finfo(np.float64).eps)

# Gates of the rank helper (see :func:`ranks`): the environment
# variables that pin BLAS threads, read in this order, and the smallest
# embedding (complex entries, 4 MiB) that is ranked beside the others.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_HELPER_MIN_ENTRIES = 1 << 18

# The factor on the floor in the full-rank certificate's shift (see
# :func:`_full_rank`): a certified embedding has its smallest singular
# value at least this many times the floor, and far more than this many
# times the default cut, so no rounding of its computed singular values
# brings one down to a cut ``rank`` uses.
_CERTIFIED_MARGIN = 16.0


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
    (:func:`.qmatrix.embed_block`); an ndarray is an embedding already
    made."""
    if isinstance(a, np.ndarray):
        return a
    return a.embed() if isinstance(a, QMatrix) else embed_block(a)


def _svd(m: np.ndarray, **kwargs):
    """``numpy.linalg.svd(m, **kwargs)``, raising :class:`NumericError`
    when it does not converge."""
    try:
        return np.linalg.svd(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericError("complex SVD of the embedding did not converge") from exc


def _svdvals(m: np.ndarray) -> np.ndarray:
    if min(m.shape) == 0:
        return np.zeros(0)
    return _svd(m, compute_uv=False)


def _pairs(s: np.ndarray) -> np.ndarray:
    """One value per equal pair of the singular values ``s`` of an
    embedding: the mean of the pair, which symmetrizes rounding."""
    return 0.5 * (s[0::2] + s[1::2])


def singular_values(a: QMatrix) -> np.ndarray:
    """Pair-collapsed singular values of a quaternion matrix (descending)."""
    return _pairs(_svdvals(a.embed()))


def _cut(s: np.ndarray, shape, tol, floor: float) -> tuple:
    """The pair-collapsed singular values ``s`` of an embedding of shape
    ``shape`` and the cut of its rank: ``tol``, by default max(m, n)
    sigma_max eps for the m x n quaternion matrix, and at least
    ``floor``."""
    sig = _pairs(s)
    if tol is None:
        tol = (default_rank_tol(shape[0] // 2, shape[1] // 2, float(sig[0]))
               if sig.size else 0.0)
    return sig, max(tol, floor)


def rank(a, tol: float | None = None, floor: float = 0.0) -> int:
    """Numerical rank; for an empty matrix this is 0.

    ``a`` is a QMatrix or a block grid of them (``None`` for a zero
    block, as :func:`.qmatrix.block` takes it); a grid is ranked without
    forming its block matrix, with the same result.  :func:`ranks` hands
    its helper an embedding already made (an ndarray).  ``floor`` is an
    absolute lower bound on the truncation threshold, used by the solver
    cascade so that intermediates that vanish in exact arithmetic are
    not ranked on their rounding noise.
    """
    m = _embedding(a)
    sig, cut = _cut(_svdvals(m), m.shape, tol, floor)
    return int(np.count_nonzero(sig > cut))


def _full_rank(emb: np.ndarray, floor: float) -> bool:
    """Whether the embedding ``emb`` is certified to have full rank at
    ``floor``, by a Cholesky factorization of its shifted Gram matrix
    (Rump, "Verification of positive definiteness", BIT 46 (2006);
    Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 10).

    Oriented as M, m x n with m <= n, with F = |M|_F^2 read off the
    trace of the computed M M^*, and s = 2 (m + n + 2)^2 eps F +
    (``_CERTIFIED_MARGIN`` floor)^2, the answer is whether
    ``cholesky(M M^* - s I)`` succeeds.  Forming M M^* errs by about
    n eps F in norm, the shift by eps F, and a Cholesky factorization
    that runs to completion is exact for a matrix within about
    (m + 1) eps F of its input; so success proves sigma_min(M)^2 >=
    (m + n + 2)^2 eps F + (16 floor)^2, hence sigma_min(M) >= max((m +
    n + 2) sqrt(eps F), 16 floor).  The cut of :func:`rank` is at most
    max(n/2 eps sqrt(F), floor), and a computed singular value errs by
    at most about n eps sqrt(F); so every computed pair value lies above
    16 times the cut, and the SVD would count all min(m, n)/2 of them.
    A refusal proves nothing: the SVD decides.  Data that are not finite
    are refused."""
    m = emb if emb.shape[0] <= emb.shape[1] else emb.conj().T
    rows, cols = m.shape
    gram = m @ m.conj().T
    f = float(gram.trace().real)
    s = (2.0 * (rows + cols + 2) ** 2 * _EPS * f
         + (_CERTIFIED_MARGIN * floor) ** 2)
    if not np.isfinite(s):
        return False
    gram.flat[:: rows + 1] -= s
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _rank_step(a, floor: float, certify: bool) -> tuple:
    """One grid of a :func:`ranks` list, laid out or embedded: its rank
    at ``floor``, and whether :func:`_full_rank`, tried first when
    ``certify`` is set, settled it (then it takes min(m, n) with no
    SVD).  Both threads of ``ranks`` rank through here."""
    if certify:
        a = _embedding(a)
        if _full_rank(a, floor):
            return min(a.shape) // 2, True
    # through rank by name, so perfbench/tracer.py files its SVD there
    return rank(a, floor=floor), False


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


def ranks(grids, floor: float, full_first: bool = False) -> list:
    """``[rank(g, floor=floor) for g in grids]`` for block grids, each
    laid out once and ranked in order.

    When :func:`_helper_allowed` admits the largest embedding, this
    thread embeds that grid, then one helper thread ranks the embedding
    while this thread ranks the rest; the helper is joined before this
    returns or raises, and an error in it is raised here.  Every rank
    taken takes the same SVD of the same embedding either way, so the
    results are the same.

    With ``full_first`` set, each grid is first offered to
    :func:`_full_rank` (:func:`_rank_step`, which both threads rank
    through): the helper's one grid, and this thread's grids until the
    first refusal among them, after which the rest take SVDs.  It moves
    no rank: a certified grid has the rank its SVD would give.
    """
    laid = [BlockGrid(g) for g in grids]
    out = [None] * len(laid)
    sizes = [4 * g.rows * g.cols for g in laid]
    big = max(range(len(laid)), key=sizes.__getitem__, default=None)
    if big is not None and not _helper_allowed(sizes[big]):
        big = None
    thread, failed = None, []
    if big is not None:
        embedded = embed_block(laid[big])

        def helper():
            try:
                out[big] = _rank_step(embedded, floor, full_first)[0]
            except Exception as exc:
                failed.append(exc)

        thread = threading.Thread(target=helper, name="qsylv-rank")
        thread.start()
    try:
        certify = full_first
        for i, g in enumerate(laid):
            if i != big:
                out[i], certify = _rank_step(g, floor, certify)
    finally:
        if thread is not None:
            thread.join()
    if failed:
        raise failed[0]
    return out


def _null_bundle(m: int, n: int, tol: float) -> PinvBundle:
    """The pinv bundle of an m x n matrix of rank 0, in markers."""
    return PinvBundle(Zero(n, m), Identity(n), Identity(m), 0, tol)


def pinv(a: QMatrix, tol: float | None = None, floor: float = 0.0) -> PinvBundle:
    """Moore-Penrose inverse with projectors, from one SVD of the embedding.

    Singular values are truncated jointly per embedded pair at the rank
    tolerance (default max(m, n) * sigma_max * eps).  ``floor`` is an
    absolute lower bound on the threshold; see :func:`rank`.  With the
    kept factors U_r, S_r, V_r of the embedding, A^+ = V_r S_r^+ U_r^*,
    L_A = I - V_r V_r^* and R_A = I - U_r U_r^*; each is an adjoint
    image, so only the top block row of each product is formed, and it
    is (X1, X2) of the quaternion result.

    An empty matrix takes no SVD.  For it, and for one of rank 0, the
    inverse is a :class:`.qmatrix.Zero` and both projectors are
    :class:`.qmatrix.Identity` s, markers that cost no product;
    ``rank`` and ``tol_used`` are as for any other matrix.
    """
    m, n = a.shape
    if m == 0 or n == 0:
        return _null_bundle(m, n, 0.0 if tol is None else tol)
    emb = a.embed()
    uc, s, vh = _svd(emb, full_matrices=False)
    sig, tol = _cut(s, emb.shape, tol, floor)
    r = int(np.count_nonzero(sig > tol))
    if r == 0:
        return _null_bundle(m, n, tol)
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
