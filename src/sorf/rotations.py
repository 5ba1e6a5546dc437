"""Plane rotations as raw (a, b) pairs, real for real data, and their action on dense matrices.

A plane rotation with parameters (a, b), |a|^2 + |b|^2 = 1, embedded at the
row/column pair (i, k) of the identity, is the unitary matrix

    G[i, i] = conj(a)    G[i, k] = -conj(b)
    G[k, i] = b          G[k, k] = a

Its conjugate transpose is the rotation (conj(a), -b) at the same pair.  All
higher-level transformations in this package (weight introduction,
pole-preserving elimination, pole adding and swapping) are products of these,
carried as bare (a, b) pairs and applied with `rotate_rows` / `rotate_cols`.
Each is one 2x2 product on the strided view M[..., i:k+1:k-i, :] (or
M[..., i:k+1:k-i]), so one call rotates a whole stack M[..., :, :]; the view
holds rows (columns) i and k only when i < k, which both check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateRotationError


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
    """M <- G M for the rotation (a, b) at rows i < k of M or of each matrix of a stack."""
    if not i < k:
        raise ValueError(f"rotation rows need i < k, got ({i}, {k})")
    v = M[..., i : k + 1 : k - i, :]
    v[...] = np.array(((a.conjugate(), -b.conjugate()), (b, a))) @ v


def rotate_cols(M: np.ndarray, a: complex, b: complex, i: int, k: int) -> None:
    """M <- M G for the rotation (a, b) at columns i < k of M or of each matrix of a stack."""
    if not i < k:
        raise ValueError(f"rotation columns need i < k, got ({i}, {k})")
    v = M[..., i : k + 1 : k - i]
    v[...] = v @ np.array(((a.conjugate(), -b.conjugate()), (b, a)))
