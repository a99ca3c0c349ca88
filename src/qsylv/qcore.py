"""Quaternion scalar arithmetic.

Quaternions are kept as four double-precision components (w, x, y, z)
standing for w + x*i + y*j + z*k with i**2 = j**2 = k**2 = ijk = -1.
Besides the Hamilton product and ordinary conjugation, the module
provides the eta-conjugation q -> -eta * conj(q) * eta for
eta in {i, j, k}, which negates exactly one imaginary component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ETAS = ("i", "j", "k")

# component index (in x, y, z order) negated by each eta-conjugation
_ETA_AXIS = {"i": 0, "j": 1, "k": 2}


def check_eta(eta: str) -> str:
    if eta not in _ETA_AXIS:
        raise ValueError(f"eta must be one of {ETAS}, got {eta!r}")
    return eta


@dataclass(frozen=True)
class Quaternion:
    """A real quaternion w + x*i + y*j + z*k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, q):
        if not isinstance(q, (Quaternion, int, float)):
            return NotImplemented
        q = _coerce(q)
        return Quaternion(self.w + q.w, self.x + q.x, self.y + q.y, self.z + q.z)

    __radd__ = __add__

    def __sub__(self, q):
        if not isinstance(q, (Quaternion, int, float)):
            return NotImplemented
        q = _coerce(q)
        return Quaternion(self.w - q.w, self.x - q.x, self.y - q.y, self.z - q.z)

    def __rsub__(self, q):
        if not isinstance(q, (Quaternion, int, float)):
            return NotImplemented
        return _coerce(q) - self

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, q):
        if not isinstance(q, (Quaternion, int, float)):
            return NotImplemented
        return quat_mul(self, _coerce(q))

    def __rmul__(self, q):
        if not isinstance(q, (Quaternion, int, float)):
            return NotImplemented
        return quat_mul(_coerce(q), self)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        n = self.norm_sq()
        if n == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(self.w / n, -self.x / n, -self.y / n, -self.z / n)

    def components(self):
        return (self.w, self.x, self.y, self.z)

    def __repr__(self):
        return f"Quaternion({self.w}, {self.x}, {self.y}, {self.z})"


def _coerce(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as a quaternion")


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a*b (non-commutative, associative)."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def quat_conj(q: Quaternion) -> Quaternion:
    return q.conjugate()


def quat_eta_conj(q: Quaternion, eta: str) -> Quaternion:
    """Return -eta * conj(q) * eta, i.e. q with one imaginary axis negated."""
    check_eta(eta)
    parts = [q.x, q.y, q.z]
    parts[_ETA_AXIS[eta]] = -parts[_ETA_AXIS[eta]]
    return Quaternion(q.w, *parts)


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
