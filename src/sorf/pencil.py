"""Hessenberg pencil container and pole extraction.

A pencil is a pair (H, K) of m-by-m upper Hessenberg matrices.  The ratio of
subdiagonal entries H[k+1, k] / K[k+1, k] is the k-th pole of the recurrence
encoded by the pencil; a vanishing K entry marks a polynomial step (pole at
infinity).  Pole indices are 0-based throughout: index k refers to the
subdiagonal position (k+1, k), k = 0 .. m-2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DeflationError

#: relative threshold below which a subdiagonal entry counts as zero
DEFLATION_RTOL = 1e-14

#: marker for the point at infinity in pole lists
INFINITY = complex(np.inf, 0.0)


def is_infinite_pole(psi) -> bool:
    return not np.isfinite(complex(psi))


def pole_pair(psi) -> tuple[complex, complex]:
    """Homogeneous representative (mu, nu) with mu/nu = psi; nu = 0 at infinity."""
    if is_infinite_pole(psi):
        return 1.0 + 0.0j, 0.0 + 0.0j
    return complex(psi), 1.0 + 0.0j


@dataclass(frozen=True)
class HessenbergPencil:
    H: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        if self.H.shape != self.K.shape or self.H.ndim != 2 or self.H.shape[0] != self.H.shape[1]:
            raise ValueError("H and K must be square matrices of equal size")
        if not (np.all(np.isfinite(self.H)) and np.all(np.isfinite(self.K))):
            raise ValueError("pencil entries must be finite")

    @property
    def m(self) -> int:
        return self.H.shape[0]

    @property
    def scale(self) -> float:
        return pencil_scale(self.H, self.K)

    def pole_at(self, k: int) -> complex:
        return pole_at(self.H, self.K, k)

    def poles(self) -> list[complex]:
        tol = DEFLATION_RTOL * self.scale
        return [_subdiagonal_pole(self.H, self.K, k, tol) for k in range(self.m - 1)]

    def copy(self) -> "HessenbergPencil":
        return HessenbergPencil(self.H.copy(), self.K.copy())


def pencil_scale(H: np.ndarray, K: np.ndarray) -> float:
    return max(np.linalg.norm(H), np.linalg.norm(K))


def pole_at(H: np.ndarray, K: np.ndarray, k: int) -> complex:
    """Pole at subdiagonal position (k+1, k), 0-based; INFINITY for a polynomial step."""
    m = H.shape[0]
    if not 0 <= k <= m - 2:
        raise IndexError(f"pole index {k} out of range for dimension {m}")
    return _subdiagonal_pole(H, K, k, DEFLATION_RTOL * pencil_scale(H, K))


def _subdiagonal_pole(H: np.ndarray, K: np.ndarray, k: int, tol: float) -> complex:
    h = H[k + 1, k]
    kk = K[k + 1, k]
    if abs(h) <= tol and abs(kk) <= tol:
        raise DeflationError(f"pencil is reduced at position {k}: both subdiagonal entries vanish")
    if abs(kk) <= tol:
        return INFINITY
    return complex(h / kk)


def is_upper_hessenberg(A: np.ndarray, tol: float = 0.0) -> bool:
    return bool(np.all(np.abs(np.tril(A, -2)) <= tol))


def assert_unreduced(H: np.ndarray, K: np.ndarray) -> None:
    tol = DEFLATION_RTOL * pencil_scale(H, K)
    for k in range(H.shape[0] - 1):
        _subdiagonal_pole(H, K, k, tol)
