import numpy as np
import pytest

from sorf.errors import DeflationError
from sorf.pencil import (
    INFINITY,
    HessenbergPencil,
    is_infinite_pole,
    pole_at,
    pole_pair,
)


def simple_pencil():
    H = np.triu(np.ones((4, 4), dtype=complex), -1)
    K = np.triu(np.ones((4, 4), dtype=complex), -1)
    return H, K


def test_pole_is_subdiagonal_ratio():
    H, K = simple_pencil()
    H[1, 0] = 2.0
    K[1, 0] = 1.0
    assert pole_at(H, K, 0) == pytest.approx(2.0)


def test_zero_k_entry_is_polynomial_step():
    H, K = simple_pencil()
    K[1, 0] = 0.0
    assert is_infinite_pole(pole_at(H, K, 0))


def test_reduced_position_raises():
    H, K = simple_pencil()
    H[2, 1] = 0.0
    K[2, 1] = 0.0
    with pytest.raises(DeflationError):
        pole_at(H, K, 1)


def test_pole_invariant_under_column_scaling(rng):
    for _ in range(20):
        m = 5
        H = np.triu(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)), -1)
        K = np.triu(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)), -1)
        k = int(rng.integers(0, m - 1))
        before = pole_at(H, K, k)
        scale = complex(rng.normal(), rng.normal())
        H2, K2 = H.copy(), K.copy()
        H2[:, k] *= scale
        K2[:, k] *= scale
        after = pole_at(H2, K2, k)
        assert abs(after - before) <= 1e-13 * abs(before)


def test_poles_match_pole_at(rng):
    m = 6
    H = np.triu(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)), -1)
    K = np.triu(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)), -1)
    K[3, 2] = 0.0  # one polynomial step
    assert HessenbergPencil(H, K).poles() == [pole_at(H, K, k) for k in range(m - 1)]
    H[4, 3] = K[4, 3] = 0.0
    with pytest.raises(DeflationError, match="position 3"):
        pole_at(H, K, 3)
    with pytest.raises(DeflationError, match="position 3"):
        HessenbergPencil(H, K).poles()


def test_pencil_dataclass_accessors():
    H, K = simple_pencil()
    p = HessenbergPencil(H, K)
    assert p.m == 4
    assert len(p.poles()) == 3
    q = p.copy()
    q.H[0, 0] = 99.0
    assert p.H[0, 0] != 99.0


def test_pencil_rejects_nonfinite():
    H, K = simple_pencil()
    H[0, 0] = np.nan
    with pytest.raises(ValueError):
        HessenbergPencil(H, K)


def test_pole_pair_round_trip():
    mu, nu = pole_pair(-1.1)
    assert mu / nu == pytest.approx(-1.1)
    mu, nu = pole_pair(INFINITY)
    assert nu == 0.0 and mu != 0.0
    assert is_infinite_pole(np.inf)
    assert not is_infinite_pole(3.0 + 2.0j)


def test_pole_index_range():
    H, K = simple_pencil()
    with pytest.raises(IndexError):
        pole_at(H, K, 3)
