"""Complex plane rotations and their action on dense matrices.

A plane rotation with parameters (a, b), |a|^2 + |b|^2 = 1, embedded at the
row/column pair (i, k) of the identity, is the unitary matrix

    G[i, i] = conj(a)    G[i, k] = -conj(b)
    G[k, i] = b          G[k, k] = a

All higher-level transformations in this package (weight introduction,
pole-preserving elimination, pole adding and swapping) are products of these.
Hot loops carry rotations as raw (a, b) pairs and call `rotate_rows` /
`rotate_cols` directly; `PlaneRotation` validates them at the public boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRotationError

#: |a|^2 + |b|^2 must equal 1 within this tolerance.
UNITARITY_TOL = 1e-14


@dataclass(frozen=True)
class PlaneRotation:
    a: complex
    b: complex
    i: int
    k: int

    def __post_init__(self):
        if self.i == self.k:
            raise ValueError("rotation indices must differ")
        if self.i > self.k:
            raise ValueError("rotation indices must satisfy i < k")
        norm = abs(self.a) ** 2 + abs(self.b) ** 2
        if abs(norm - 1.0) > 1e2 * UNITARITY_TOL:
            raise ValueError(f"rotation parameters are not unitary: |a|^2+|b|^2 = {norm!r}")

    @property
    def is_identity(self) -> bool:
        return self.b == 0 and self.a == 1

    def inverse(self) -> "PlaneRotation":
        """Rotation whose embedded matrix is the conjugate transpose."""
        return PlaneRotation(np.conj(self.a), -self.b, self.i, self.k)

    def embed(self, m: int) -> np.ndarray:
        """Dense m-by-m unitary matrix carrying this rotation."""
        G = np.eye(m, dtype=complex)
        G[self.i, self.i] = np.conj(self.a)
        G[self.i, self.k] = -np.conj(self.b)
        G[self.k, self.i] = self.b
        G[self.k, self.k] = self.a
        return G


def identity_rotation(i: int, k: int) -> PlaneRotation:
    return PlaneRotation(1.0, 0.0, i, k)


def zeroing(x: complex, y: complex) -> tuple[complex, complex]:
    """Raw parameters (a, b) of the rotation mapping the column (x, y) onto
    (r, 0) with r real nonnegative.

    The free unimodular phase is spent on making the surviving entry real
    and nonnegative, so rotated quantities are comparable across methods
    when the data are real.
    """
    r = math.hypot(abs(x), abs(y))
    if r == 0.0:
        raise DegenerateRotationError("cannot build a zeroing rotation from (0, 0)")
    return x / r, -y / r


def null_direction(z0: complex, z1: complex) -> tuple[complex, complex] | None:
    """Raw parameters (a, b) of the rotation whose first column is the unit
    null vector of the row (z0, z1).

    Applying the rotation on the right of a matrix whose row is (z0, z1)
    annihilates that row's first entry.  Returns None when (z0, z1) = (0, 0),
    in which case any rotation works and the caller decides.  The free phase
    is fixed by making the first component real nonnegative.
    """
    n = math.hypot(abs(z0), abs(z1))
    if n == 0.0:
        return None
    v0, v1 = -z1 / n, z0 / n
    ref = v0 if v0 != 0 else v1
    phase = ref.conjugate() / abs(ref)
    v0, v1 = v0 * phase, v1 * phase
    # first column of the embedded matrix is (conj(a), b)
    return v0.conjugate(), v1


def rotate_rows(M: np.ndarray, a: complex, b: complex, i: int, k: int) -> None:
    """M <- G M for the rotation (a, b) at (i, k), touching only rows i and k."""
    ri = a.conjugate() * M[i, :] - b.conjugate() * M[k, :]
    rk = b * M[i, :] + a * M[k, :]
    M[i, :] = ri
    M[k, :] = rk


def rotate_cols(M: np.ndarray, a: complex, b: complex, i: int, k: int) -> None:
    """M <- M G for the rotation (a, b) at (i, k), touching only columns i and k."""
    ci = a.conjugate() * M[:, i] + b * M[:, k]
    ck = -b.conjugate() * M[:, i] + a * M[:, k]
    M[:, i] = ci
    M[:, k] = ck


def rotation_zeroing(x: complex, y: complex, i: int, k: int) -> PlaneRotation:
    """`zeroing` embedded at (i, k)."""
    return PlaneRotation(*zeroing(x, y), i, k)


def null_direction_rotation(z0: complex, z1: complex, i: int, k: int) -> PlaneRotation | None:
    """`null_direction` embedded at (i, k); None for the zero row."""
    ab = null_direction(z0, z1)
    return None if ab is None else PlaneRotation(*ab, i, k)


def _check_indices(rot: PlaneRotation, n: int) -> None:
    if not (0 <= rot.i < n and 0 <= rot.k < n):
        raise IndexError(f"rotation indices ({rot.i}, {rot.k}) out of range for dimension {n}")


def apply_left(rot: PlaneRotation, M: np.ndarray) -> np.ndarray:
    """M <- G M, touching only rows i and k. Mutates and returns M."""
    _check_indices(rot, M.shape[0])
    rotate_rows(M, rot.a, rot.b, rot.i, rot.k)
    return M


def apply_right(rot: PlaneRotation, M: np.ndarray) -> np.ndarray:
    """M <- M G, touching only columns i and k. Mutates and returns M."""
    _check_indices(rot, M.shape[1])
    rotate_cols(M, rot.a, rot.b, rot.i, rot.k)
    return M
