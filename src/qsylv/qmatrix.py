"""Dense quaternion matrices.

A QMatrix stores the four real component planes (w, x, y, z) as float64
ndarrays of identical shape.  Zero-dimension matrices (0 x n, m x 0) are
legal values throughout; products with compatible empty operands follow
the usual empty-sum conventions, which numpy implements natively.

The complex adjoint embedding writes A = A1 + A2*j with complex A1, A2
and represents A by the 2m x 2n complex block matrix

    [[A1, A2], [-conj(A2), conj(A1)]].

The embedding is a ring homomorphism and doubles ranks, which is the
computational route used by the decompositions in :mod:`qsylv.decomp`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .qcore import Quaternion, check_eta


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


def named_dims(shapes, blocks) -> dict:
    """Values of the named dimensions of ``shapes`` (key -> (row name,
    column name)), read from the keys present in ``blocks``, in table
    order.  Raises DimensionError naming both blocks when two disagree."""
    dims, source = {}, {}
    for key, names in shapes.items():
        if key not in blocks:
            continue
        for name, value in zip(names, blocks[key].shape):
            if dims.setdefault(name, value) != value:
                raise DimensionError(
                    f"block {key!r} implies {name} = {value}, but "
                    f"{source[name]!r} implies {dims[name]}")
            source.setdefault(name, key)
    return dims


class StructureError(ValueError):
    """A complex matrix does not carry the adjoint block structure."""


class QMatrix:
    """Dense m x n quaternion matrix."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w, x=None, y=None, z=None):
        w = np.asarray(w, dtype=float)
        if w.ndim != 2:
            raise DimensionError("component arrays must be 2-dimensional")
        self.w = w
        self.x = self._plane(x, w.shape)
        self.y = self._plane(y, w.shape)
        self.z = self._plane(z, w.shape)

    @staticmethod
    def _plane(arr, shape):
        if arr is None:
            return np.zeros(shape)
        arr = np.asarray(arr, dtype=float)
        if arr.shape != shape:
            raise DimensionError(f"component shape {arr.shape} != {shape}")
        return arr

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls(np.zeros((rows, cols)))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(np.eye(n))

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence]) -> "QMatrix":
        """Build from a nested sequence of Quaternion / scalar / 4-sequences."""
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        out = cls.zeros(rows, cols)
        for p, row in enumerate(entries):
            if len(row) != cols:
                raise DimensionError("ragged entry rows")
            for q, e in enumerate(row):
                if isinstance(e, Quaternion):
                    c = e.components()
                elif isinstance(e, (int, float)):
                    c = (float(e), 0.0, 0.0, 0.0)
                else:
                    c = tuple(float(v) for v in e)
                    if len(c) != 4:
                        raise DimensionError("entries must have 4 components")
                out.w[p, q], out.x[p, q], out.y[p, q], out.z[p, q] = c
        return out

    @classmethod
    def from_complex_pair(cls, a1, a2) -> "QMatrix":
        a1 = np.asarray(a1, dtype=complex)
        a2 = np.asarray(a2, dtype=complex)
        if a1.shape != a2.shape:
            raise DimensionError("complex pair shapes differ")
        return cls(a1.real.copy(), a1.imag.copy(), a2.real.copy(), a2.imag.copy())

    # -- basic queries ------------------------------------------------

    @property
    def shape(self):
        return self.w.shape

    @property
    def rows(self) -> int:
        return self.w.shape[0]

    @property
    def cols(self) -> int:
        return self.w.shape[1]

    def entry(self, p: int, q: int) -> Quaternion:
        return Quaternion(self.w[p, q], self.x[p, q], self.y[p, q], self.z[p, q])

    def entries(self):
        """Row-major list of entries as Quaternion values."""
        return [self.entry(p, q) for p in range(self.rows) for q in range(self.cols)]

    def copy(self) -> "QMatrix":
        return QMatrix(self.w.copy(), self.x.copy(), self.y.copy(), self.z.copy())

    def components(self):
        return (self.w, self.x, self.y, self.z)

    def __repr__(self):
        return f"QMatrix(shape={self.shape})"

    # -- arithmetic ----------------------------------------------------

    def _check_same_shape(self, other: "QMatrix"):
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch {self.shape} vs {other.shape}")

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._check_same_shape(other)
        return QMatrix(self.w + other.w, self.x + other.x,
                       self.y + other.y, self.z + other.z)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._check_same_shape(other)
        return QMatrix(self.w - other.w, self.x - other.x,
                       self.y - other.y, self.z - other.z)

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, scalar) -> "QMatrix":
        """Right scalar multiplication A * q (entrywise a_pq * q)."""
        if isinstance(scalar, (int, float)):
            return QMatrix(self.w * scalar, self.x * scalar,
                           self.y * scalar, self.z * scalar)
        if isinstance(scalar, Quaternion):
            w, x, y, z = scalar.components()
            return QMatrix(
                self.w * w - self.x * x - self.y * y - self.z * z,
                self.w * x + self.x * w + self.y * z - self.z * y,
                self.w * y - self.x * z + self.y * w + self.z * x,
                self.w * z + self.x * y - self.y * x + self.z * w,
            )
        return NotImplemented

    def __rmul__(self, scalar) -> "QMatrix":
        """Left scalar multiplication q * A."""
        if isinstance(scalar, (int, float)):
            return self * scalar
        if isinstance(scalar, Quaternion):
            w, x, y, z = scalar.components()
            return QMatrix(
                w * self.w - x * self.x - y * self.y - z * self.z,
                w * self.x + x * self.w + y * self.z - z * self.y,
                w * self.y - x * self.z + y * self.w + z * self.x,
                w * self.z + x * self.y - y * self.x + z * self.w,
            )
        return NotImplemented

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"matmul mismatch: {self.shape} @ {other.shape}")
        aw, ax, ay, az = self.components()
        bw, bx, by, bz = other.components()
        return QMatrix(
            aw @ bw - ax @ bx - ay @ by - az @ bz,
            aw @ bx + ax @ bw + ay @ bz - az @ by,
            aw @ by - ax @ bz + ay @ bw + az @ bx,
            aw @ bz + ax @ by - ay @ bx + az @ bw,
        )

    # -- transposes and norms -------------------------------------------

    def transpose(self) -> "QMatrix":
        return QMatrix(self.w.T.copy(), self.x.T.copy(),
                       self.y.T.copy(), self.z.T.copy())

    def conj(self) -> "QMatrix":
        return QMatrix(self.w, -self.x, -self.y, -self.z)

    def conj_transpose(self) -> "QMatrix":
        return QMatrix(self.w.T.copy(), -self.x.T, -self.y.T, -self.z.T)

    def eta_conj_transpose(self, eta: str) -> "QMatrix":
        """Return -eta * A^* * eta, the eta-conjugate transpose."""
        check_eta(eta)
        x, y, z = self.x.T.copy(), self.y.T.copy(), self.z.T.copy()
        if eta == "i":
            x = -x
        elif eta == "j":
            y = -y
        else:
            z = -z
        return QMatrix(self.w.T.copy(), x, y, z)

    def norm(self) -> float:
        return math.sqrt(self.w.ravel() @ self.w.ravel()
                         + self.x.ravel() @ self.x.ravel()
                         + self.y.ravel() @ self.y.ravel()
                         + self.z.ravel() @ self.z.ravel())

    def submatrix(self, row_slice, col_slice) -> "QMatrix":
        return QMatrix(self.w[row_slice, col_slice].copy(),
                       self.x[row_slice, col_slice].copy(),
                       self.y[row_slice, col_slice].copy(),
                       self.z[row_slice, col_slice].copy())

    # -- complex adjoint embedding --------------------------------------

    def complex_pair(self):
        """Return (A1, A2) with A = A1 + A2*j as complex ndarrays."""
        return (self.w + 1j * self.x, self.y + 1j * self.z)

    def embed(self) -> np.ndarray:
        a1, a2 = self.complex_pair()
        top = np.hstack([a1, a2])
        bottom = np.hstack([-np.conj(a2), np.conj(a1)])
        return np.vstack([top, bottom])


# -- module-level operation aliases -------------------------------------

def mat_mul(a: QMatrix, b: QMatrix) -> QMatrix:
    return a @ b


def conj_transpose(a: QMatrix) -> QMatrix:
    return a.conj_transpose()


def eta_conj_transpose(a: QMatrix, eta: str) -> QMatrix:
    return a.eta_conj_transpose(eta)


def frobenius_norm(a: QMatrix) -> float:
    return a.norm()


def identity(n: int) -> QMatrix:
    return QMatrix.identity(n)


def zeros(rows: int, cols: int) -> QMatrix:
    return QMatrix.zeros(rows, cols)


def embed(a: QMatrix) -> np.ndarray:
    return a.embed()


def _adjoint_blocks(m: np.ndarray):
    rows, cols = m.shape
    if rows % 2 or cols % 2:
        raise StructureError(f"adjoint image must have even dimensions, got {m.shape}")
    mr, nc = rows // 2, cols // 2
    return m[:mr, :nc], m[:mr, nc:], m[mr:, :nc], m[mr:, nc:]


def structure_defect(m: np.ndarray) -> float:
    """Frobenius distance of a complex matrix from the adjoint structure."""
    m11, m12, m21, m22 = _adjoint_blocks(np.asarray(m, dtype=complex))
    return math.sqrt(np.linalg.norm(m11 - np.conj(m22)) ** 2
                     + np.linalg.norm(m12 + np.conj(m21)) ** 2) / math.sqrt(2.0)


def structure_project(m: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the adjoint-structured subspace."""
    m11, m12, m21, m22 = _adjoint_blocks(np.asarray(m, dtype=complex))
    a1 = 0.5 * (m11 + np.conj(m22))
    a2 = 0.5 * (m12 - np.conj(m21))
    top = np.hstack([a1, a2])
    bottom = np.hstack([-np.conj(a2), np.conj(a1)])
    return np.vstack([top, bottom])


def unembed(m: np.ndarray, tol: float = 1e-10) -> QMatrix:
    """Invert the adjoint embedding; left inverse of :func:`embed`.

    Raises StructureError when the block symmetry is violated beyond
    tol * ||m||_F ("not an adjoint image").
    """
    m = np.asarray(m, dtype=complex)
    m11, m12, m21, m22 = _adjoint_blocks(m)
    scale = np.linalg.norm(m)
    if structure_defect(m) > tol * max(scale, 1e-300):
        raise StructureError("not an adjoint image")
    a1 = 0.5 * (m11 + np.conj(m22))
    a2 = 0.5 * (m12 - np.conj(m21))
    return QMatrix.from_complex_pair(a1, a2)


def unembed_projected(m: np.ndarray) -> QMatrix:
    """Unembed after forcing the adjoint symmetry (no tolerance check)."""
    m11, m12, m21, m22 = _adjoint_blocks(np.asarray(m, dtype=complex))
    a1 = 0.5 * (m11 + np.conj(m22))
    a2 = 0.5 * (m12 - np.conj(m21))
    return QMatrix.from_complex_pair(a1, a2)


# -- block assembly ------------------------------------------------------

def hstack(mats: Iterable[QMatrix]) -> QMatrix:
    mats = list(mats)
    if not mats:
        raise DimensionError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError("hstack row mismatch")
    return QMatrix(*(np.hstack([getattr(m, c) for m in mats])
                     for c in ("w", "x", "y", "z")))


def vstack(mats: Iterable[QMatrix]) -> QMatrix:
    mats = list(mats)
    if not mats:
        raise DimensionError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError("vstack column mismatch")
    return QMatrix(*(np.vstack([getattr(m, c) for m in mats])
                     for c in ("w", "x", "y", "z")))


def block(grid: Sequence[Sequence]) -> QMatrix:
    """Assemble a block matrix from a grid of QMatrix entries.

    ``None`` entries stand for zero blocks whose dimensions are inferred
    from the other blocks in the same row and column of the grid.
    """
    nrows = len(grid)
    ncols = len(grid[0]) if nrows else 0
    if any(len(r) != ncols for r in grid):
        raise DimensionError("ragged block grid")
    heights = [None] * nrows
    widths = [None] * ncols
    for p in range(nrows):
        for q in range(ncols):
            cell = grid[p][q]
            if cell is None:
                continue
            if heights[p] is None:
                heights[p] = cell.rows
            elif heights[p] != cell.rows:
                raise DimensionError(f"block row {p} height mismatch")
            if widths[q] is None:
                widths[q] = cell.cols
            elif widths[q] != cell.cols:
                raise DimensionError(f"block column {q} width mismatch")
    if any(h is None for h in heights) or any(w is None for w in widths):
        raise DimensionError("zero block with undetermined size")
    if not ncols:
        raise DimensionError("block of nothing")
    out = QMatrix.zeros(sum(heights), sum(widths))
    r0 = 0
    for p in range(nrows):
        c0 = 0
        for q in range(ncols):
            cell = grid[p][q]
            if cell is not None:
                for dst, src in zip(out.components(), cell.components()):
                    dst[r0:r0 + heights[p], c0:c0 + widths[q]] = src
            c0 += widths[q]
        r0 += heights[p]
    return out
