"""Pole extraction and deflation checks for Hessenberg pencils.

A pencil is a pair (H, K) of m-by-m upper Hessenberg matrices.  The ratio of
subdiagonal entries H[k+1, k] / K[k+1, k] is the k-th pole of the recurrence
encoded by the pencil; a vanishing K entry marks a polynomial step (pole at
infinity).  Pole indices are 0-based throughout: index k refers to the
subdiagonal position (k+1, k), k = 0 .. m-2.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import ConfigError, DeflationError

#: relative threshold below which a subdiagonal entry counts as zero
DEFLATION_RTOL = 1e-14

#: marker for the point at infinity in pole lists
INFINITY = float(np.inf)


def scalar(z) -> float | complex:
    """The one rule of the arithmetic type, applied where data enter: a float
    when z has a zero imaginary part, else a complex; numpy carries it on."""
    z = complex(z)
    return z.real if z.imag == 0.0 else z


def is_infinite_pole(psi) -> bool:
    """True for the point at infinity: a pole with an infinite real or
    imaginary part.  A NaN is not infinite; the routes refuse it."""
    return cmath.isinf(complex(psi))


def pole_pair(psi) -> tuple[float | complex, float]:
    """Homogeneous representative (mu, nu) with mu/nu = psi; nu = 0 at
    infinity.  A NaN pole raises ConfigError."""
    if is_infinite_pole(psi):
        return 1.0, 0.0
    if cmath.isnan(complex(psi)):
        raise ConfigError(f"pole {psi} is NaN")
    return scalar(psi), 1.0


def pencil_scale(H: np.ndarray, K: np.ndarray) -> float:
    return max(np.linalg.norm(H), np.linalg.norm(K))


def pole_at(H: np.ndarray, K: np.ndarray, k: int) -> complex:
    """Pole at subdiagonal position (k+1, k), 0-based; INFINITY for a polynomial step."""
    m = H.shape[0]
    if not 0 <= k <= m - 2:
        raise IndexError(f"pole index {k} out of range for dimension {m}")
    return _pair_pole(H[k + 1, k], K[k + 1, k], k, DEFLATION_RTOL * pencil_scale(H, K))


def _pair_pole(h, kk, k: int, tol: float) -> complex:
    """Pole of the subdiagonal pair (h, kk) at position k: the one deflation rule."""
    if abs(h) <= tol and abs(kk) <= tol:
        raise DeflationError(f"pencil is reduced at position {k}: both subdiagonal entries vanish")
    if abs(kk) <= tol:
        return INFINITY
    return complex(h / kk)


def poles(H: np.ndarray, K: np.ndarray) -> list[complex]:
    """All m - 1 poles, judged against one deflation tolerance per pencil."""
    tol = DEFLATION_RTOL * pencil_scale(H, K)
    return [_pair_pole(H[k + 1, k], K[k + 1, k], k, tol) for k in range(H.shape[0] - 1)]


def assert_unreduced(H: np.ndarray, K: np.ndarray) -> None:
    """Raise DeflationError at the first position where the pencil is reduced."""
    poles(H, K)
