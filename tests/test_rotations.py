import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pole_list, random_spec, rotation_matrix

from sorf import rotations
from sorf.errors import DegenerateRotationError
from sorf.reference import solve_via_sop
from sorf.rotations import null_direction, rotate_cols, rotate_rows, zeroing
from sorf.sobolev import build_jordan
from sorf.updating import solve_updating


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


def test_zeroing_random_complex_real_cosine_keeps_phase_of_x(rng):
    for _ in range(50):
        x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
        a, b = zeroing(x, y)
        r, z = rotate_pair((a, b), x, y)
        assert isinstance(a, float) and a >= 0.0
        assert abs(z) <= 1e-14 * np.hypot(abs(x), abs(y))
        assert abs(r - np.hypot(abs(x), abs(y)) * x / abs(x)) <= 1e-14 * abs(r)
        assert abs(a**2 + abs(b) ** 2 - 1.0) <= 1e-14


def test_zeroing_real_x_keeps_the_plain_quotients():
    for x, y in ((3.0, 4.0), (-3.0, 4.0), (-0.5, 2.0 - 1.0j), (0.0, 1.0j)):
        r = np.hypot(abs(x), abs(y))
        assert zeroing(x, y) == (x / r, -y / r)
    assert zeroing(0j, 2.0 + 0j) == (0.0, -1.0 + 0j)


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


def test_null_direction_complex_row_gives_float_cosine(rng):
    for _ in range(20):
        z0, z1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        a, b = null_direction(z0, z1)
        assert isinstance(a, float) and a >= 0.0
        assert abs(a**2 + abs(b) ** 2 - 1.0) <= 1e-14
    a, b = null_direction(1.0 - 2.0j, 0j)  # first component zero: the phase sits on b
    assert a == 0.0 and b == pytest.approx(1.0)


@settings(max_examples=100, deadline=None)
@given(
    angles=st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)),
    m=st.integers(2, 9),
    depth=st.integers(1, 3),
    dtype=st.sampled_from((np.float64, np.complex128)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_rotate_stack_matches_dense_product(angles, m, depth, dtype, seed, data):
    t, psi = angles
    a, b = float(np.cos(t)), np.sin(t) * (np.exp(1j * psi) if dtype is np.complex128 else 1.0)
    i = data.draw(st.integers(0, m - 2))
    k = data.draw(st.integers(i + 1, m - 1))  # adjacent and distant pairs
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(depth, m, m)).astype(dtype)
    if dtype is np.complex128:
        M += 1j * rng.normal(size=(depth, m, m))
    G = rotation_matrix((a, b), i, k, m)
    rows, cols = M.copy(), M.copy()
    rotate_rows(rows, a, b, i, k)
    rotate_cols(cols, a, b, i, k)
    for j in range(depth):
        assert np.linalg.norm(rows[j] - G @ M[j]) <= 1e-14 * np.linalg.norm(M[j])
        assert np.linalg.norm(cols[j] - M[j] @ G) <= 1e-14 * np.linalg.norm(M[j])
    for bad in ((k, i), (i, i), (i, m)):
        with pytest.raises(ValueError, match="i < k"):
            rotate_rows(M, a, b, *bad)
        with pytest.raises(ValueError, match="i < k"):
            rotate_cols(M, a, b, *bad)


def test_rotations_refuse_what_they_cannot_rotate_in_place(rng):
    """BLAS would rotate a copy of a strided view or a converted dtype and
    drop a complex cosine's imaginary part; each is refused, M untouched."""
    M = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    before = M.copy()
    for view in (M.T, M[:, ::2], M.T.real):
        for rotate in (rotate_rows, rotate_cols):
            with pytest.raises(ValueError, match="in place"):
                rotate(view, 0.6, 0.8, 0, 1)
    for rotate in (rotate_rows, rotate_cols):
        for bad, a in ((M.real.astype(np.float32), 0.6), (M, 0.6 + 0j)):
            with pytest.raises(ValueError, match="in place"):
                rotate(bad, a, 0.8, 0, 1)
    assert np.array_equal(M, before)


@pytest.mark.parametrize("dtype", (np.float64, np.complex128))
@pytest.mark.parametrize("rotate", (rotate_rows, rotate_cols))
def test_a_rotation_of_a_stack_is_the_rotation_of_each_matrix_bit_for_bit(rng, dtype, rotate):
    X = rng.normal(size=(3, 4, 5)).astype(dtype)
    if dtype is np.complex128:
        X += 1j * rng.normal(size=(3, 4, 5))
        a, b = zeroing(0.3 - 0.2j, 1.1 + 0.7j)
    else:
        a, b = zeroing(0.3, 1.1)
    each = X.copy()
    rotate(X, a, b, 1, 3)
    for M in each:
        rotate(M, a, b, 1, 3)
    assert np.array_equal(X.view(np.uint8), each.view(np.uint8))


def test_rotations_refuse_a_stack_they_cannot_rotate_in_place(rng):
    """A strided or transposed stack, or one of another dtype, would be
    rotated as a copy: refused by both updates, the array untouched."""
    X = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
    before = X.copy()
    bad = (X[:, ::2], X[:, :, 1:], X[::2], X.transpose(0, 2, 1), X.T, X.real, X.astype(np.complex64),
           X.real.astype(np.float32))
    for view in bad:
        for rotate in (rotate_rows, rotate_cols):
            with pytest.raises(ValueError, match="in place"):
                rotate(view, 0.6, 0.8, 0, 1)
    assert np.array_equal(X.view(np.uint8), before.view(np.uint8))


def test_every_cosine_the_solvers_hand_the_kernel_is_a_float(monkeypatch, rng):
    """Every ?rot call of the solvers, the 2x2 step of the sweep's eliminations
    included, comes from `rotate_rows` or `rotate_cols`, which refuse a complex
    cosine; the cosines come from `zeroing` and `null_direction`, which give a
    float on real and complex data."""
    seen, callers = [], set()

    def recording(kernel):
        def call(x, y, c, s, *rest):
            seen.append((x.dtype, c))
            callers.add((sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name))
            return kernel(x, y, c, s, *rest)

        return call

    monkeypatch.setattr(rotations, "_ROT", {dt: recording(kernel) for dt, kernel in rotations._ROT.items()})
    for complex_alphas in (False, True):
        spec = random_spec(rng, sigma=4, max_order=2, complex_alphas=complex_alphas)
        poles, _ = random_pole_list(rng, spec.m, 2)
        solve_updating(spec, poles)
        solve_via_sop(build_jordan(spec), poles)
    assert {dt for dt, _ in seen} == {np.dtype(np.float64), np.dtype(np.complex128)}
    assert all(isinstance(c, float) for _, c in seen)
    assert {caller for caller, _ in callers} == {"rotate_rows", "rotate_cols"}
    assert "_step" in {grandcaller for _, grandcaller in callers}
    for x, y in ((0.3, -1.2), (0.0, 2.0), (0.3 + 0.1j, 0.5 - 2.0j), (0j, 1j), (-0.0, 1e-300)):
        assert isinstance(zeroing(x, y)[0], float)
        assert isinstance(null_direction(x, y)[0], float)
