import numpy as np
import pytest

from sorf.errors import DeflationError
from sorf.pencil import (
    INFINITY,
    is_infinite_pole,
    pole_at,
    pole_pair,
    poles,
)
from sorf.updating import IEPSolution


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
    assert poles(H, K) == [pole_at(H, K, k) for k in range(m - 1)]
    H[4, 3] = K[4, 3] = 0.0
    with pytest.raises(DeflationError, match="position 3"):
        pole_at(H, K, 3)
    with pytest.raises(DeflationError, match="position 3"):
        poles(H, K)


def test_pencil_dataclass_accessors():
    H, K = simple_pencil()
    sol = IEPSolution(np.stack((H, K, np.eye(4, dtype=complex).T)), 1.0)
    assert sol.m == 4
    assert sol.poles() == poles(H, K)
    assert len(sol.poles()) == 3


def test_pencil_rejects_nonfinite():
    H, K = simple_pencil()
    H[0, 0] = np.nan
    with pytest.raises(ValueError):
        IEPSolution(np.stack((H, K, np.eye(4, dtype=complex).T)), 1.0)
    with pytest.raises(ValueError, match="square"):
        IEPSolution(np.stack((H[:3], K[:3], np.eye(4, dtype=complex)[:3])), 1.0)


def test_solution_stack_refuses_a_nonfinite_q_and_a_strided_stack():
    X = np.stack([np.eye(3)] * 3)
    X[2, 0, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        IEPSolution(X, 1.0)
    with pytest.raises(ValueError, match="C-contiguous"):
        IEPSolution(np.stack([np.eye(3)] * 3)[:, ::-1], 1.0)


def test_solution_matrices_are_read_only_views_of_the_stack():
    H, K = simple_pencil()
    Q = np.arange(16.0).reshape(4, 4)
    sol = IEPSolution(np.stack((H, K, Q.T)), 1.0)
    assert np.array_equal(sol.H, H) and np.array_equal(sol.K, K) and np.array_equal(sol.Q, Q)
    assert all(np.shares_memory(M, sol.X) for M in (sol.H, sol.K, sol.Q))
    with pytest.raises(AttributeError):
        sol.Q = Q


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
