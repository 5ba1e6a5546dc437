"""Plane rotations as raw (a, b) pairs with a real cosine a, and their action on dense matrices.

A plane rotation with parameters (a, b), a real and a^2 + |b|^2 = 1,
embedded at the row/column pair (i, k) of the identity, is the unitary matrix

    G[i, i] = a    G[i, k] = -conj(b)
    G[k, i] = b    G[k, k] = a

Its conjugate transpose is (a, -b); the real cosine is LAPACK's `?rot`
convention.  All higher-level transformations in this package (weight
introduction, pole-preserving elimination, pole adding and swapping) are
products of these, carried as bare (a, b) pairs and applied in place with
`rotate_rows` / `rotate_cols`: one `drot` (float64) or `zrot` (complex128)
call per matrix for rows i < k, and one for columns i < k of a whole stack
M[..., :, :], whose column is one vector of stride M.shape[-1].  No other
module calls a `?rot` kernel.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import blas, lapack

from .errors import DegenerateRotationError

_ROT = {np.dtype(np.float64): blas.drot, np.dtype(np.complex128): lapack.zrot}


def zeroing(x: complex, y: complex) -> tuple[float, complex]:
    """Raw parameters (a, b) of the rotation mapping the column (x, y) onto
    (r u, 0), r = hypot(|x|, |y|).  A real x gives (x / r, -y / r) and u = 1;
    a complex x gives LAPACK's a = |x| / r and keeps its phase u = x / |x|."""
    r = math.hypot(abs(x), abs(y))
    if r == 0.0:
        raise DegenerateRotationError("cannot build a zeroing rotation from (0, 0)")
    if isinstance(x, complex):
        ax = abs(x)
        return ax / r, -y / r * (x.conjugate() / ax if ax else 1.0)
    return x / r, -y / r


def null_direction(z0: complex, z1: complex) -> tuple[float, complex] | None:
    """Raw parameters (a, b) of the rotation whose first column is the unit
    null vector of the row (z0, z1).

    Applying the rotation on the right of a matrix whose row is (z0, z1)
    annihilates that row's first entry.  Returns None when (z0, z1) = (0, 0),
    in which case any rotation works and the caller decides.  The free phase
    is fixed by making the first component, the cosine a, a real nonnegative
    float.
    """
    n = math.hypot(abs(z0), abs(z1))
    if n == 0.0:
        return None
    v0, v1 = -z1 / n, z0 / n
    ref = v0 if v0 != 0 else v1
    # first column of the embedded matrix is (a, b)
    return abs(v0), v1 * (ref.conjugate() / abs(ref))


def _bind(M: np.ndarray, a: float) -> tuple:
    """The ?rot kernel for M's dtype, M's flat buffer x and its row length n
    (row i of matrix j starts at x[j * M.shape[-2] * n + i * n]); refuses what
    the kernel would silently rotate as a copy, or with a truncated cosine."""
    rot = _ROT.get(M.dtype)
    if rot is None or not M.flags.c_contiguous or isinstance(a, complex):
        raise ValueError(
            "rotations act in place on C-contiguous float64 or complex128 arrays with a real cosine, "
            f"got {M.dtype} (C-contiguous: {M.flags.c_contiguous}) and cosine {a!r}"
        )
    return rot, M.reshape(-1), M.shape[-1]


def rotate_rows(M: np.ndarray, a: float, b: complex, i: int, k: int) -> None:
    """M <- G M for the rotation (a, b) at rows i < k of M or of each matrix of a stack."""
    if not 0 <= i < k < M.shape[-2]:
        raise ValueError(f"rotation rows need 0 <= i < k < {M.shape[-2]}, got ({i}, {k})")
    rot, x, n = _bind(M, a)
    s = -b.conjugate()
    for off in range(0, x.size, M.shape[-2] * n):
        rot(x, x, a, s, n, off + i * n, 1, off + k * n, 1, 1, 1)


def rotate_cols(M: np.ndarray, a: float, b: complex, i: int, k: int) -> None:
    """M <- M G for the rotation (a, b) at columns i < k of M or of each matrix of a stack."""
    if not 0 <= i < k < M.shape[-1]:
        raise ValueError(f"rotation columns need 0 <= i < k < {M.shape[-1]}, got ({i}, {k})")
    rot, x, n = _bind(M, a)
    rot(x, x, a, b, x.size // n, i, n, k, n, 1, 1)
