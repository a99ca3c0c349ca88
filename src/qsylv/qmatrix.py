"""Dense quaternion matrices.

A QMatrix A = A1 + A2*j stores its complex pair (A1, A2) as two
complex128 ndarrays of identical shape; the real planes (w, x, y, z) of
A = w + x*i + y*j + z*k are writable views of their real and imaginary
parts.  Zero-dimension matrices (0 x n, m x 0) are legal values
throughout; products with compatible empty operands follow the usual
empty-sum conventions, which numpy implements natively.

On the pair the Hamilton product is four complex products,

    (A1 + A2 j)(B1 + B2 j) = (A1 B1 - A2 conj(B2)) + (A1 B2 + A2 conj(B1)) j,

and the complex adjoint embedding is one block copy into the 2m x 2n
complex matrix

    [[A1, A2], [-conj(A2), conj(A1)]].

The embedding is a ring homomorphism and doubles ranks, which is the
computational route used by the decompositions in :mod:`qsylv.decomp`
(Zhang, "Quaternions and matrices of quaternions", LAA 251, 1997).

Two markers are matrices that cost no product: :class:`Zero`, an
all-zero matrix, and :class:`Identity`, the identity.  A product with a
``Zero`` is a ``Zero``, one with an ``Identity`` is the other operand
itself, and a product of plain matrices with no entries or an empty
inner dimension is a ``Zero``; so no empty or marked operand reaches
BLAS.  The pinv bundle of an empty or rank-0 matrix is made of them
(:func:`qsylv.decomp.pinv`), and so is every free parameter a family is
not given.  A marker's planes are read-only; sums other than
``Zero ± Zero``, transposes, embeddings and copies read it as the stored
matrix it stands for, signed zeros included, and give a plain
``QMatrix``.
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


class QMatrix:
    """Dense m x n quaternion matrix A = A1 + A2*j.

    ``a1`` and ``a2`` are complex128 arrays of one shape; ``w``, ``x``,
    ``y`` and ``z`` are writable views of their real and imaginary parts.
    """

    __slots__ = ("a1", "a2")

    def __init__(self, w, x=None, y=None, z=None):
        w = np.asarray(w, dtype=float)
        if w.ndim != 2:
            raise DimensionError("component arrays must be 2-dimensional")
        self.a1 = np.zeros(w.shape, dtype=complex)
        self.a2 = np.zeros(w.shape, dtype=complex)
        for dst, arr in zip(self.components(), (w, x, y, z)):
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if arr.shape != w.shape:
                    raise DimensionError(
                        f"component shape {arr.shape} != {w.shape}")
                dst[...] = arr

    @classmethod
    def _pair(cls, a1, a2) -> "QMatrix":
        """Wrap two complex arrays of one shape, without copying."""
        out = object.__new__(cls)
        out.a1, out.a2 = a1, a2
        return out

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls._pair(np.zeros((rows, cols), dtype=complex),
                         np.zeros((rows, cols), dtype=complex))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls._pair(np.eye(n, dtype=complex),
                         np.zeros((n, n), dtype=complex))

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
                out.a1[p, q] = complex(c[0], c[1])
                out.a2[p, q] = complex(c[2], c[3])
        return out

    # -- basic queries ------------------------------------------------

    @property
    def shape(self):
        return self.a1.shape

    @property
    def rows(self) -> int:
        return self.a1.shape[0]

    @property
    def cols(self) -> int:
        return self.a1.shape[1]

    @property
    def w(self) -> np.ndarray:
        return self.a1.real

    @property
    def x(self) -> np.ndarray:
        return self.a1.imag

    @property
    def y(self) -> np.ndarray:
        return self.a2.real

    @property
    def z(self) -> np.ndarray:
        return self.a2.imag

    def entry(self, p: int, q: int) -> Quaternion:
        e1, e2 = self.a1[p, q], self.a2[p, q]
        return Quaternion(e1.real, e1.imag, e2.real, e2.imag)

    def entries(self):
        """Row-major list of entries as Quaternion values."""
        return [self.entry(p, q) for p in range(self.rows) for q in range(self.cols)]

    def copy(self) -> "QMatrix":
        return QMatrix._pair(self.a1.copy(), self.a2.copy())

    def components(self):
        """The planes (w, x, y, z) as writable views."""
        return (self.a1.real, self.a1.imag, self.a2.real, self.a2.imag)

    def __repr__(self):
        return f"QMatrix(shape={self.shape})"

    # -- arithmetic ----------------------------------------------------

    def _check_same_shape(self, other: "QMatrix"):
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch {self.shape} vs {other.shape}")

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._check_same_shape(other)
        return QMatrix._pair(self.a1 + other.a1, self.a2 + other.a2)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._check_same_shape(other)
        return QMatrix._pair(self.a1 - other.a1, self.a2 - other.a2)

    def __neg__(self) -> "QMatrix":
        return QMatrix._pair(-self.a1, -self.a2)

    def __mul__(self, scalar) -> "QMatrix":
        """Right scalar multiplication A * q (entrywise a_pq * q)."""
        if isinstance(scalar, (int, float)):
            return QMatrix._pair(self.a1 * scalar, self.a2 * scalar)
        if isinstance(scalar, Quaternion):
            q1, q2 = complex(scalar.w, scalar.x), complex(scalar.y, scalar.z)
            return QMatrix._pair(self.a1 * q1 - self.a2 * q2.conjugate(),
                                 self.a1 * q2 + self.a2 * q1.conjugate())
        return NotImplemented

    def __rmul__(self, scalar) -> "QMatrix":
        """Left scalar multiplication q * A."""
        if isinstance(scalar, (int, float)):
            return self * scalar
        if isinstance(scalar, Quaternion):
            q1, q2 = complex(scalar.w, scalar.x), complex(scalar.y, scalar.z)
            return QMatrix._pair(q1 * self.a1 - q2 * np.conj(self.a2),
                                 q1 * self.a2 + q2 * np.conj(self.a1))
        return NotImplemented

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        """(A1 + A2 j)(B1 + B2 j) = (A1 B1 - A2 conj(B2))
        + (A1 B2 + A2 conj(B1)) j: four complex products, or a
        :class:`Zero` when the product has no entries or the inner
        dimension is empty."""
        _check_product(self, other)
        if not (self.rows and self.cols and other.cols):
            return Zero(self.rows, other.cols)
        a1, a2, b1, b2 = self.a1, self.a2, other.a1, other.a2
        return QMatrix._pair(a1 @ b1 - a2 @ b2.conj(),
                             a1 @ b2 + a2 @ b1.conj())

    # -- transposes and norms -------------------------------------------

    def conj(self) -> "QMatrix":
        return QMatrix._pair(self.a1.conj(), -self.a2)

    def conj_transpose(self) -> "QMatrix":
        return QMatrix._pair(self.a1.T.conj(), -self.a2.T)

    def eta_conj_transpose(self, eta: str) -> "QMatrix":
        """Return -eta * A^* * eta, the eta-conjugate transpose: the
        transpose with the eta component negated."""
        check_eta(eta)
        a1, a2 = self.a1.T, self.a2.T
        if eta == "i":
            return QMatrix._pair(a1.conj(), a2.copy())
        return QMatrix._pair(a1.copy(), -a2.conj() if eta == "j" else a2.conj())

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.a1, self.a1).real
                         + np.vdot(self.a2, self.a2).real)

    def submatrix(self, row_slice, col_slice) -> "QMatrix":
        return QMatrix._pair(self.a1[row_slice, col_slice].copy(),
                             self.a2[row_slice, col_slice].copy())

    # -- complex adjoint embedding --------------------------------------

    def embed(self) -> np.ndarray:
        m, n = self.shape
        out = np.empty((2 * m, 2 * n), dtype=complex)
        out[:m, :n] = self.a1
        out[:m, n:] = self.a2
        _lower_half(out)
        return out


# the one entry of every zero plane of a marker: a read-only complex zero
_ZERO_ENTRY = bytes(16)


def _zero_plane(rows: int, cols: int) -> np.ndarray:
    """A read-only complex zero broadcast to ``(rows, cols)``."""
    return np.ndarray((rows, cols), complex, _ZERO_ENTRY, 0, (0, 0))


def _check_product(a: QMatrix, b: QMatrix):
    if a.cols != b.rows:
        raise DimensionError(f"matmul mismatch: {a.shape} @ {b.shape}")


class Zero(QMatrix):
    """An all-zero matrix that is never multiplied.

    A product with it is a zero of the product's shape, without a
    matmul, and ``Zero ± Zero`` is a ``Zero``.  A sum or difference with
    another matrix x is formed as ``x + 0.0``, ``x - 0.0`` or
    ``0.0 - x``: the IEEE results of the same operation on a stored zero
    matrix, signed zeros included.  (A BLAS product with a stored zero
    may leave -0.0 entries, which differ from these only where x holds a
    zero as well.)  A ``submatrix`` of it is a ``Zero`` too.  Its planes
    are one read-only complex zero broadcast to its shape, so every
    other operation (``copy``, negation, ...) reads it as a zero matrix
    and returns a plain ``QMatrix``.
    """

    __slots__ = ()

    def __init__(self, rows: int, cols: int):
        self.a1 = self.a2 = _zero_plane(rows, cols)

    def __matmul__(self, other: QMatrix) -> QMatrix:
        _check_product(self, other)
        return Zero(self.rows, other.cols)

    def __rmatmul__(self, other: QMatrix) -> QMatrix:
        _check_product(other, self)
        return Zero(other.rows, self.cols)

    def __add__(self, other: QMatrix) -> QMatrix:
        """0 + x, which is x + 0.0 in IEEE arithmetic."""
        self._check_same_shape(other)
        if type(other) is Zero:
            return self
        return QMatrix._pair(other.a1 + 0.0, other.a2 + 0.0)

    __radd__ = __add__

    def __sub__(self, other: QMatrix) -> QMatrix:
        self._check_same_shape(other)
        if type(other) is Zero:
            return self
        return QMatrix._pair(0.0 - other.a1, 0.0 - other.a2)

    def __rsub__(self, other: QMatrix) -> QMatrix:
        self._check_same_shape(other)
        return QMatrix._pair(other.a1 - 0.0, other.a2 - 0.0)

    def __mul__(self, scalar) -> QMatrix:
        """A scalar multiple of a zero: the zero itself."""
        return self

    def norm(self) -> float:
        return 0.0

    def submatrix(self, row_slice, col_slice) -> QMatrix:
        rows, cols = self.a1[row_slice, col_slice].shape
        return Zero(rows, cols)


class Identity(QMatrix):
    """The n x n identity, never multiplied: ``I @ x`` and ``x @ I``
    are ``x`` itself.  Its planes are a read-only identity and a
    read-only zero, so every other operation reads it as a stored
    identity and returns a plain ``QMatrix``."""

    __slots__ = ()

    def __init__(self, n: int):
        self.a1 = np.eye(n, dtype=complex)
        self.a1.flags.writeable = False
        self.a2 = _zero_plane(n, n)

    def __matmul__(self, other: QMatrix) -> QMatrix:
        _check_product(self, other)
        return other

    def __rmatmul__(self, other: QMatrix) -> QMatrix:
        _check_product(other, self)
        return other


def rand_qmatrix(rng, rows: int, cols: int) -> QMatrix:
    """Independent standard-normal components per quaternion coordinate,
    drawn from the numpy generator ``rng``."""
    return QMatrix(*(rng.standard_normal((rows, cols)) for _ in range(4)))


def _lower_half(out: np.ndarray):
    """Fill the lower block row of an embedding from its upper one,
    [A1, A2]: it is [-conj(A2), conj(A1)]."""
    m, n = out.shape[0] // 2, out.shape[1] // 2
    lower_left = out[m:, :n]
    np.conjugate(out[:m, n:], out=lower_left)
    np.negative(lower_left, out=lower_left)
    np.conjugate(out[:m, :n], out=out[m:, n:])


# -- block assembly ------------------------------------------------------

def hstack(mats: Iterable[QMatrix]) -> QMatrix:
    """``block([mats])``: the matrices side by side."""
    return block([list(mats)])


def vstack(mats: Iterable[QMatrix]) -> QMatrix:
    """``block([[m] for m in mats])``: the matrices stacked."""
    return block([[m] for m in mats])


def _layout(grid: Sequence[Sequence]):
    """(rows, cols, cells) of the block matrix of ``grid``: its size and
    each non-``None`` cell with the row and column of its corner."""
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
    cells, r0 = [], 0
    for p in range(nrows):
        c0 = 0
        for q in range(ncols):
            if grid[p][q] is not None:
                cells.append((r0, c0, grid[p][q]))
            c0 += widths[q]
        r0 += heights[p]
    return r0, c0, cells


def block(grid: Sequence[Sequence]) -> QMatrix:
    """Assemble a block matrix from a grid of QMatrix entries.

    ``None`` entries stand for zero blocks whose dimensions are inferred
    from the other blocks in the same row and column of the grid.
    """
    rows, cols, cells = _layout(grid)
    out = QMatrix.zeros(rows, cols)
    _place(cells, out.a1, out.a2)
    return out


class BlockGrid(list):
    """A block grid, the list of rows :func:`block` takes, laid out once:
    ``rows`` and ``cols`` of its block matrix and its ``cells``, as
    :func:`_layout` gives them."""

    __slots__ = ("rows", "cols", "cells")

    def __init__(self, grid: Sequence[Sequence]):
        super().__init__(grid)
        self.rows, self.cols, self.cells = _layout(self)


def embed_block(grid: Sequence[Sequence]) -> np.ndarray:
    """``block(grid).embed()``, byte for byte, written straight from the
    cells into the upper block row of the embedding, so the block
    matrix is never formed.  A :class:`BlockGrid` is not laid out
    again."""
    if not isinstance(grid, BlockGrid):
        grid = BlockGrid(grid)
    rows, cols = grid.rows, grid.cols
    out = np.zeros((2 * rows, 2 * cols), dtype=complex)
    _place(grid.cells, out[:rows, :cols], out[:rows, cols:])
    _lower_half(out)
    return out


def _place(cells, a1: np.ndarray, a2: np.ndarray):
    """Copy each cell's planes into ``a1`` and ``a2`` at its corner."""
    for r0, c0, cell in cells:
        rs, cs = slice(r0, r0 + cell.rows), slice(c0, c0 + cell.cols)
        a1[rs, cs] = cell.a1
        a2[rs, cs] = cell.a2
