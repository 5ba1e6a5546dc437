import numpy as np
import pytest

from conftest import rotation_matrix

from sorf.errors import DegenerateRotationError
from sorf.rotations import null_direction, rotate_cols, rotate_rows, zeroing


def rotate_pair(rot, x, y):
    a, b = rot
    return (
        np.conj(a) * x - np.conj(b) * y,
        b * x + a * y,
    )


def test_zeroing_on_already_zero_second_entry_is_identity():
    a, b = zeroing(1.0, 0.0)
    assert a == 1.0 and b == 0.0


def test_zeroing_pure_swap():
    rot = zeroing(0.0, 1.0)
    r, z = rotate_pair(rot, 0.0, 1.0)
    assert r == pytest.approx(1.0)
    assert z == 0.0


def test_zeroing_pythagorean_pair():
    rot = zeroing(3.0, 4.0)
    r, z = rotate_pair(rot, 3.0, 4.0)
    assert r == pytest.approx(5.0, abs=1e-15)
    assert abs(z) <= 1e-15


def test_zeroing_random_complex_surviving_entry_real_nonnegative(rng):
    for _ in range(50):
        x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
        a, b = zeroing(x, y)
        r, z = rotate_pair((a, b), x, y)
        assert abs(z) <= 1e-14 * np.hypot(abs(x), abs(y))
        assert abs(r.imag) <= 1e-14 * abs(r)
        assert r.real >= 0.0
        assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-14


def test_zeroing_both_zero_raises():
    with pytest.raises(DegenerateRotationError):
        zeroing(0.0, 0.0)


def test_apply_left_identity_keeps_matrix(rng):
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    before = M.copy()
    rotate_rows(M, 1.0, 0.0, 1, 3)
    assert np.array_equal(M, before)


def test_apply_left_zeroes_targeted_entry(rng):
    for _ in range(20):
        M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        rotate_rows(M, *zeroing(M[1, 0], M[4, 0]), 1, 4)
        assert abs(M[4, 0]) <= 1e-14 * np.linalg.norm(M)


def test_apply_left_then_inverse_restores(rng):
    M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    before = M.copy()
    a, b = zeroing(0.3 + 0.1j, -1.2 + 0.8j)
    rotate_rows(M, a, b, 2, 5)
    rotate_rows(M, np.conj(a), -b, 2, 5)  # the conjugate transpose
    assert np.linalg.norm(M - before) <= 1e-13 * np.linalg.norm(before)


def test_apply_right_mirrors_apply_left(rng):
    M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rot = zeroing(1.1, 0.4 - 0.2j)
    A = M.copy()
    rotate_cols(A, *rot, 1, 4)
    B = M @ rotation_matrix(rot, 1, 4, 6)
    assert np.linalg.norm(A - B) <= 1e-14 * np.linalg.norm(M)
    C = M.copy()
    rotate_rows(C, *rot, 1, 4)
    D = rotation_matrix(rot, 1, 4, 6) @ M
    assert np.linalg.norm(C - D) <= 1e-14 * np.linalg.norm(M)


def test_apply_preserves_frobenius_norm(rng):
    M = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    n0 = np.linalg.norm(M)
    rot = zeroing(0.2 - 0.9j, 1.4)
    rotate_rows(M, *rot, 0, 6)
    assert abs(np.linalg.norm(M) - n0) <= 1e-13 * n0
    rotate_cols(M, *rot, 0, 6)
    assert abs(np.linalg.norm(M) - n0) <= 1e-13 * n0


def test_apply_left_rows_geq_two_leave_row_one_untouched_bitwise(rng):
    M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    row0 = M[0, :].copy()
    rotate_rows(M, *zeroing(M[1, 0], M[3, 0]), 1, 3)
    assert np.array_equal(M[0, :], row0)


def test_rotation_is_unitary_matrix(rng):
    for _ in range(20):
        x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
        G = rotation_matrix(zeroing(x, y), 1, 3, 5)
        assert np.linalg.norm(G.conj().T @ G - np.eye(5)) <= 1e-13


def test_null_direction_rotation_annihilates_row(rng):
    for _ in range(20):
        z0, z1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        a, b = null_direction(z0, z1)
        col = np.array([np.conj(a), b])
        assert abs(z0 * col[0] + z1 * col[1]) <= 1e-14 * np.hypot(abs(z0), abs(z1))
        assert col[0].imag == pytest.approx(0.0, abs=1e-15)
        assert col[0].real >= 0.0


def test_null_direction_rotation_zero_row_returns_none():
    assert null_direction(0.0, 0.0) is None
