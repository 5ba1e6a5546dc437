import dataclasses

import numpy as np
import pytest

from conftest import KERNEL_AT, ROUTES, assert_iep_invariants, is_upper_hessenberg, kernel_stack, on_stack, phase_free_distance, random_pole_list, random_spec, rotation_matrix

from sorf import updating

from sorf.errors import ConfigError, DeflationError, NumericalError
from sorf.evaluation import metric_orthonormality, metric_poles, metric_recurrence
from sorf.pencil import INFINITY, is_infinite_pole, pencil_scale, pole_at, pole_pair
from sorf.reference import rational_arnoldi
from sorf.rotations import rotate_cols, rotate_rows
from sorf.sobolev import DiscreteSobolevSpec, GegenbauerSobolevConfig, build_jordan, default_pole_list, discretize_gegenbauer
from sorf.updating import (
    IEPSolution,
    add_block,
    embed,
    expected_elimination_count,
    install_poles,
    op1_eliminate,
    op2_add_pole,
    op3_swap_adjacent,
    restore_hessenberg,
    single_block_solution,
    solve_updating,
    weight_rotation,
)


def sparsity(M, tol=1e-13):
    return np.abs(M) > tol * max(1.0, np.linalg.norm(M))


def jordan_block(z, alphas):
    s = len(alphas)
    J = np.diag(np.full(s + 1, complex(z)))
    for i in range(s):
        J[i, i + 1] = alphas[s - 1 - i]
    return J


# ---------------------------------------------------------------------------
# single block
# ---------------------------------------------------------------------------


def test_single_block_1x1():
    sol = single_block_solution(2.0, [], 3.0)
    assert sol.H == pytest.approx(np.array([[2.0]]))
    assert sol.K == pytest.approx(np.array([[1.0]]))
    assert sol.Q == pytest.approx(np.array([[1.0]]))
    assert sol.wnorm == 3.0


def test_single_block_2x2_recurrence_by_hand():
    z, al, w = 1.5, 0.7, 2.0
    sol = single_block_solution(z, [al], w)
    assert sol.H == pytest.approx(np.array([[z, 0.0], [al, z]]))
    assert sol.Q == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]))
    J = jordan_block(z, [al])
    # hand multiplication: J Q = [[al, z], [z, 0]] column-wise equals Q H
    assert J @ sol.Q == pytest.approx(np.array([[al, z], [z, 0.0]]))
    assert J @ sol.Q == pytest.approx(sol.Q @ sol.H)


def test_single_block_real_data_transpose_identity():
    # for s = 1 the doubly-reversed block is exactly the transpose
    z, al = 0.4, 1.3
    sol = single_block_solution(z, [al], 1.0)
    assert np.array_equal(sol.H, jordan_block(z, [al]).T)


def test_single_block_nonconstant_scalings():
    # s = 2 with alpha_1 != alpha_2: plain transpose would fail here
    z, alphas, w = 0.3, [0.5, 2.0], 1.4
    sol = single_block_solution(z, alphas, w)
    J = jordan_block(z, alphas)
    assert np.linalg.norm(J @ sol.Q - sol.Q @ sol.H) == 0.0
    assert sol.Q[:, 0] == pytest.approx(np.array([0.0, 0.0, 1.0]))


def test_single_block_complex_weight_phase():
    w = 1.0 + 2.0j
    sol = single_block_solution(0.2, [1.0], w)
    target = np.array([0.0, w]) / abs(w)
    assert sol.Q[:, 0] == pytest.approx(target)
    J = jordan_block(0.2, [1.0])
    assert np.linalg.norm(J @ sol.Q - sol.Q @ sol.H) <= 1e-15


def test_single_block_refuses_a_zero_weight():
    with pytest.raises(NumericalError, match="^block weight amplitude must be nonzero$"):
        single_block_solution(0.1, (1.0,), 0.0)


# ---------------------------------------------------------------------------
# embedding and the weight rotation
# ---------------------------------------------------------------------------


def test_embed_two_singletons():
    a = single_block_solution(1.0, [], 1.0)
    b = single_block_solution(2.0, [], 1.0)
    emb = embed(a, b)
    assert emb.H == pytest.approx(np.diag([1.0, 2.0]).astype(complex))
    assert emb.K == pytest.approx(np.eye(2))
    assert emb.wnorm == pytest.approx(np.sqrt(2.0))


def test_embed_preserves_hat_poles_and_residual(rng):
    spec = random_spec(rng, sigma=3, max_order=1)
    poles, _ = random_pole_list(rng, spec.m, 2)
    hat = solve_updating(spec, poles)
    blk = single_block_solution(0.99, [1.0], 1.0)
    emb = embed(hat, blk)
    for k in range(spec.m - 1):
        a = pole_at(hat.H, hat.K, k)
        b = pole_at(emb.H, emb.K, k)
        if is_infinite_pole(a):
            assert is_infinite_pole(b)
        else:
            assert abs(a - b) == 0.0
    Jfull = np.zeros((emb.m, emb.m), dtype=complex)
    Jfull[: spec.m, : spec.m] = build_jordan(spec).J
    Jfull[spec.m :, spec.m :] = jordan_block(0.99, [1.0])
    res = np.linalg.norm(Jfull @ emb.Q @ emb.K - emb.Q @ emb.H)
    assert res <= 1e-13 * np.linalg.norm(emb.H)


def identity_solution(m):
    return IEPSolution(np.stack([np.eye(m, dtype=complex)] * 3), 1.0)


def test_weight_rotation_zero_new_weight_is_identity():
    sol = identity_solution(6)
    a, b = weight_rotation(sol, 1.0, 0.0, 4)
    assert a == 1.0 and b == 0.0
    assert np.array_equal(sol.Q, np.eye(6))


def test_weight_rotation_zero_hat_norm_is_pure_swap():
    sol = identity_solution(6)
    a, b = weight_rotation(sol, 0.0, 2.0, 4)
    assert a == 0.0 and abs(b) == 1.0
    # rows 0 and 4 (the first row of the appended block) trade places
    assert np.array_equal(np.abs(sol.H), np.eye(6)[[4, 1, 2, 3, 0, 5]])


def test_weight_rotation_fixes_first_column(rng):
    spec = random_spec(rng, sigma=2, max_order=1)
    poles, _ = random_pole_list(rng, spec.m, 1)
    hat = solve_updating(spec, poles)
    w_new = 1.7
    blk = single_block_solution(0.9, [0.8], w_new)
    emb = embed(hat, blk)
    weight_rotation(emb, hat.wnorm, w_new, hat.m)
    w_full = np.concatenate([build_jordan(spec).w, [0.0, w_new]])
    assert np.linalg.norm(emb.Q[:, 0] - w_full / np.linalg.norm(w_full)) <= 1e-14


@pytest.mark.parametrize("weight", (0.9, 0.9j))
def test_weight_rotation_rotates_the_q_a_solver_returns(weight):
    """add_block hands back Q as a transposed view of its stack; P rotates
    it in place all the same (real and complex data)."""
    sol = add_block(add_block(None, -0.5, [1.0], weight, [-1.3]), 0.1, [1.0], 1.1, [2.2, -1.9])
    assert not sol.Q.flags.c_contiguous
    H, K, Q = sol.H.copy(), sol.K.copy(), sol.Q.copy()
    P = rotation_matrix(weight_rotation(sol, 0.7, 1.2, 2), 0, 2, 4)
    for new, old in ((sol.H, H), (sol.K, K)):
        assert np.linalg.norm(new - P @ old) <= 1e-14 * np.linalg.norm(old)
    assert np.linalg.norm(sol.Q - Q @ P.conj().T) <= 1e-14


def weight_rotated_6x6():
    # three s=1 blocks with finite poles so both matrices fill generically
    hat = add_block(None, -0.5, [1.0], 0.9, [-1.3])
    hat = add_block(hat, 0.1, [1.0], 1.1, [2.2, -1.9])
    blk = single_block_solution(0.7, [1.0], 1.2)
    emb = embed(hat, blk)
    weight_rotation(emb, hat.wnorm, 1.2, hat.m)
    return emb


def test_weight_rotation_fill_pattern_matches_displayed_structure():
    # 6x6, three s=1 blocks: after the weight rotation the only new entries
    # are row 5, columns 1..4, and the (1, 5) entry (1-based)
    emb = weight_rotated_6x6()
    expect_H = np.array(
        [
            [1, 1, 1, 1, 1, 0],
            [1, 1, 1, 1, 0, 0],
            [0, 1, 1, 1, 0, 0],
            [0, 0, 1, 1, 0, 0],
            [1, 1, 1, 1, 1, 0],
            [0, 0, 0, 0, 1, 1],
        ],
        dtype=bool,
    )
    expect_K = np.array(
        [
            [1, 1, 1, 1, 1, 0],
            [1, 1, 1, 1, 0, 0],
            [0, 1, 1, 1, 0, 0],
            [0, 0, 1, 1, 0, 0],
            [1, 1, 1, 1, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ],
        dtype=bool,
    )
    assert np.array_equal(sparsity(emb.H), expect_H)
    assert np.array_equal(sparsity(emb.K), expect_K)


# ---------------------------------------------------------------------------
# Operation 1: pole-preserving elimination
# ---------------------------------------------------------------------------


def test_op1_kernel_named_example():
    # delta/beta = 0.7 must survive the transformation
    A = np.array([[0.7, 0.0], [0.31, -1.2]], dtype=complex)
    B = np.array([[1.0, 0.0], [0.55, 0.4]], dtype=complex)
    H, K = kernel_stack(A), kernel_stack(B)
    left, right = on_stack(op1_eliminate, H, K, None, 2, 0)
    GL, GR = rotation_matrix(left, 0, 1, 2), rotation_matrix(right, 0, 1, 2)
    A2 = GL @ A @ GR
    B2 = GL @ B @ GR
    scale = max(np.linalg.norm(A), np.linalg.norm(B))
    # the stack holds the rotated kernels, with the targets set to zero
    A2_stack, B2_stack = H[KERNEL_AT], K[KERNEL_AT]
    assert np.allclose(A2_stack, A2, rtol=0, atol=1e-14 * scale) and A2_stack[1, 0] == 0
    assert np.allclose(B2_stack, B2, rtol=0, atol=1e-14 * scale) and B2_stack[1, 0] == 0
    assert abs(A2[1, 0]) <= 1e-14 * scale
    assert abs(B2[1, 0]) <= 1e-14 * scale
    assert A2[0, 0] / B2[0, 0] == pytest.approx(0.7, abs=1e-13)


def test_op1_kernel_random_ratios(rng):
    # acceptance criterion: ratio preserved to 1e-12 over 100 random kernels
    for trial in range(100):
        if trial % 10 == 0:
            delta, beta = rng.normal() + 1j * rng.normal(), 0.0  # infinite pole
        else:
            delta = rng.normal() + 1j * rng.normal()
            beta = rng.normal() + 1j * rng.normal()
        if max(abs(delta), abs(beta)) < 0.1:
            delta += 1.0
        A = np.array([[delta, 0.0], [rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()]])
        B = np.array([[beta, 0.0], [rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()]])
        left, right = on_stack(op1_eliminate, kernel_stack(A), kernel_stack(B), None, 2, 0)
        GL, GR = rotation_matrix(left, 0, 1, 2), rotation_matrix(right, 0, 1, 2)
        A2 = GL @ A @ GR
        B2 = GL @ B @ GR
        scale = max(np.linalg.norm(A), np.linalg.norm(B))
        assert abs(A2[1, 0]) <= 1e-12 * scale
        assert abs(B2[1, 0]) <= 1e-12 * scale
        if beta == 0.0:
            assert abs(B2[0, 0]) <= 1e-13 * scale
        else:
            assert A2[0, 0] / B2[0, 0] == pytest.approx(delta / beta, rel=1e-12)


def test_op1_already_zero_targets_are_identity(rng):
    H = np.triu(rng.normal(size=(5, 5)) + 0j, -1)
    K = np.triu(rng.normal(size=(5, 5)) + 0j, -1)
    before_H, before_K = H.copy(), K.copy()
    assert on_stack(op1_eliminate, H, K, np.eye(5, dtype=complex), 4, 0) is None
    assert np.array_equal(H, before_H) and np.array_equal(K, before_K)


def test_op1_deflated_pivot_raises():
    H = np.triu(np.ones((4, 4), dtype=complex), -1)
    K = np.triu(np.ones((4, 4), dtype=complex), -1)
    H[1, 0] = K[1, 0] = 0.0
    H[3, 0] = K[3, 0] = 0.5
    with pytest.raises(DeflationError):
        on_stack(op1_eliminate, H, K, np.eye(4, dtype=complex), 3, 0)


def test_op1_zero_corner_violation_raises():
    # H[1, 2] / K[1, 2] = 1/2 differs from the pivot ratio H[1, 0] / K[1, 0] = 1
    H = kernel_stack(np.array([[1.0, 1.0], [0.5, 1.0]], dtype=complex))
    K = kernel_stack(np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex))
    with pytest.raises(NumericalError) as err:
        on_stack(op1_eliminate, H, K, None, 2, 0)
    assert type(err.value) is NumericalError
    assert str(err.value) == "elimination kernel violates the zero-corner precondition"


def test_op1_rank_one_kernels_would_deflate():
    # beta*A - delta*B has the null direction (1, -1), which annihilates both first columns
    H = kernel_stack(np.array([[1.0, 1.0], [2.0, 2.0]], dtype=complex))
    K = kernel_stack(np.array([[1.0, 1.0], [3.0, 3.0]], dtype=complex))
    with pytest.raises(DeflationError) as err:
        on_stack(op1_eliminate, H, K, None, 2, 0)
    assert type(err.value) is DeflationError
    assert str(err.value) == "elimination would deflate the pencil"


@pytest.mark.parametrize("r, c", [(1, 0), (0, 1)], ids=["pivot", "above-diagonal"])
def test_op1_refuses_targets_outside_the_fill(r, c):
    X = np.stack([np.eye(4, dtype=complex)] * 3)
    with pytest.raises(IndexError):
        op1_eliminate(X, r, c)


def test_op1_first_elimination_display():
    # eliminating (5, 1) of the weight-rotated 6x6 pencil fills (6, 1)
    emb = weight_rotated_6x6()
    on_stack(op1_eliminate, emb.H, emb.K, emb.Q, 4, 0)
    expect_H = np.array(
        [
            [1, 1, 1, 1, 1, 0],
            [1, 1, 1, 1, 1, 0],
            [0, 1, 1, 1, 0, 0],
            [0, 0, 1, 1, 0, 0],
            [0, 1, 1, 1, 1, 0],
            [1, 0, 0, 0, 1, 1],
        ],
        dtype=bool,
    )
    got = sparsity(emb.H)
    assert np.array_equal(got, expect_H)
    # in K the eliminated entry vanishes too, but no (6, 1) fill appears:
    # the appended identity block has no subdiagonal to leak through
    assert not sparsity(emb.K)[4, 0]
    assert not sparsity(emb.K)[5, 0]
    assert not sparsity(emb.K)[5, 1]


# ---------------------------------------------------------------------------
# restore_hessenberg
# ---------------------------------------------------------------------------


def test_restore_on_hessenberg_input_is_noop(rng):
    H = np.triu(rng.normal(size=(6, 6)) + 0j, -1)
    K = np.triu(rng.normal(size=(6, 6)) + 0j, -1)
    before_H = H.copy()
    targets = restore_hessenberg(H, K, np.eye(6, dtype=complex), 1)
    assert targets == []
    assert np.array_equal(H, before_H)


def test_restore_schedule_matches_worked_example():
    # m = 6, s_sigma = 1: columns 1..4 with row targets {5,6},{5,6},{5,6},{6}
    emb = weight_rotated_6x6()
    targets = restore_hessenberg(emb.H, emb.K, emb.Q, 1)
    assert targets == [(4, 0), (5, 0), (4, 1), (5, 1), (4, 2), (5, 2), (5, 3)]
    assert len(targets) == expected_elimination_count(6, 1)
    for M in (emb.H, emb.K):
        for c in range(4):
            assert np.all(M[c + 2 :, c] == 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_restore_elimination_count_random_blocks(seed):
    # generic case: every pole finite, so the fill cascades fully and the
    # count is a function of (m, s_sigma) alone
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, sigma=int(rng.integers(2, 5)), max_order=2)
    sol = None
    pos = 0
    m_running = 0
    for j in range(spec.sigma):
        s = spec.orders[j]
        blk = single_block_solution(spec.nodes[j], spec.alphas[j], spec.weights[j])
        if sol is None:
            sol = blk
            new_poles = [complex(rng.uniform(1.05, 3.0)) for _ in range(s)]
            first = 0
        else:
            emb = embed(sol, blk)
            weight_rotation(emb, sol.wnorm, spec.weights[j], sol.m)
            targets = restore_hessenberg(emb.H, emb.K, emb.Q, s)
            assert len(targets) == expected_elimination_count(emb.m, s)
            sol = emb
            new_poles = [complex(rng.uniform(1.05, 3.0)) for _ in range(s + 1)]
            first = emb.m - s - 2
        install_poles(sol, new_poles, first)
        pos += s + 1


def test_restore_preserves_hat_poles(rng):
    spec = random_spec(rng, sigma=4, max_order=1)
    poles, _ = random_pole_list(rng, spec.m, 2)
    hat = solve_updating(spec, poles)
    hat_poles = hat.poles()
    blk = single_block_solution(0.9, [1.1], 0.7)
    emb = embed(hat, blk)
    weight_rotation(emb, hat.wnorm, 0.7, hat.m)
    q_col0 = emb.Q[:, 0].copy()
    restore_hessenberg(emb.H, emb.K, emb.Q, 1)
    for k in range(spec.m - 1):
        got = pole_at(emb.H, emb.K, k)
        if is_infinite_pole(hat_poles[k]):
            assert is_infinite_pole(got)
        else:
            assert abs(got - hat_poles[k]) <= 1e-12 * abs(hat_poles[k])
    # the weight column of Q is untouched by the left rotations
    assert np.linalg.norm(emb.Q[:, 0] - q_col0) <= 1e-13


# ---------------------------------------------------------------------------
# Operations 2 and 3
# ---------------------------------------------------------------------------


def random_unreduced_pencil(rng, m, poles=None):
    # m one-dimensional blocks give an m-by-m generic unreduced pencil
    spec = random_spec(rng, sigma=m, max_order=0)
    if poles is None:
        poles, _ = random_pole_list(rng, m, 2)
    sol = solve_updating(spec, poles)
    return sol, build_jordan(spec)


def test_op2_pole_already_in_place_is_identity(rng):
    sol, _ = random_unreduced_pencil(rng, 6, poles=[-1.4, 2.0, -1.2, 1.5, 1.9])
    psi = pole_at(sol.H, sol.K, 4)
    H, K = sol.H.copy(), sol.K.copy()
    on_stack(op2_add_pole, H, K, None, psi, pencil_scale(H, K))
    assert abs(pole_at(H, K, 4) - psi) <= 1e-13 * abs(psi)


def test_op2_infinite_pole_zeroes_k_subdiagonal(rng):
    sol, _ = random_unreduced_pencil(rng, 6, poles=[-1.4, 2.0, -1.2, 1.5, 1.9])
    H, K = sol.H.copy(), sol.K.copy()
    on_stack(op2_add_pole, H, K, None, INFINITY, pencil_scale(H, K))
    assert K[5, 4] == 0.0
    assert is_infinite_pole(pole_at(H, K, 4))


def test_op2_random_pencil_places_pole_and_keeps_residual(rng):
    spec = random_spec(rng, sigma=3, max_order=1)
    poles, _ = random_pole_list(rng, spec.m, 1)
    sol = solve_updating(spec, poles)
    sys = build_jordan(spec)
    res_before = np.linalg.norm(sys.J @ sol.Q @ sol.K - sol.Q @ sol.H)
    H, K = sol.H.copy(), sol.K.copy()
    on_stack(op2_add_pole, H, K, None, -1.1, pencil_scale(H, K))
    m = spec.m
    assert abs(pole_at(H, K, m - 2) + 1.1) <= 1e-13 * 1.1
    res_after = np.linalg.norm(sys.J @ sol.Q @ K - sol.Q @ H)
    scale = np.linalg.norm(sys.J @ sol.Q @ K)
    assert abs(res_after - res_before) <= 1e-13 * scale
    # Hessenberg retained
    for c in range(m - 2):
        assert np.all(np.abs(H[c + 2 :, c]) <= 1e-14 * np.linalg.norm(H))


def test_op3_swap_then_swap_restores(rng):
    sol, _ = random_unreduced_pencil(rng, 6, poles=[-1.3, 1.7, INFINITY, -2.0, 1.1])
    H, K, Q = sol.H.copy(), sol.K.copy(), sol.Q.copy()
    before = [pole_at(H, K, k) for k in range(5)]
    on_stack(op3_swap_adjacent, H, K, Q, 1)
    on_stack(op3_swap_adjacent, H, K, Q, 1)
    after = [pole_at(H, K, k) for k in range(5)]
    for a, b in zip(before, after):
        if is_infinite_pole(a):
            assert is_infinite_pole(b)
        else:
            assert abs(a - b) <= 1e-12 * abs(a)


def test_op3_named_example_swaps_first_pair():
    spec = DiscreteSobolevSpec(
        nodes=(-0.4, 0.3), orders=(1, 1), alphas=((1.0,), (0.8,)), weights=(1.0, 0.7)
    )
    poles = default_pole_list([2.0, 5.0], spec.m)
    sol = solve_updating(spec, poles)
    H, K, Q = sol.H.copy(), sol.K.copy(), sol.Q.copy()
    on_stack(op3_swap_adjacent, H, K, Q, 0)
    assert pole_at(H, K, 0) == pytest.approx(5.0, rel=1e-12)
    assert pole_at(H, K, 1) == pytest.approx(2.0, rel=1e-12)
    assert is_infinite_pole(pole_at(H, K, 2))


def test_op3_random_pencils_exchange_exactly_two(rng):
    # acceptance criterion: 100 random Hessenberg pencils
    for trial in range(100):
        m = int(rng.integers(4, 8))
        spec = random_spec(rng, sigma=m, max_order=0)
        poles, _ = random_pole_list(rng, spec.m, int(rng.integers(0, m - 1)))
        sol = solve_updating(spec, poles)
        H, K, Q = sol.H.copy(), sol.K.copy(), sol.Q.copy()
        before = [pole_at(H, K, k) for k in range(m - 1)]
        c = int(rng.integers(0, m - 2))
        on_stack(op3_swap_adjacent, H, K, Q, c)
        after = [pole_at(H, K, k) for k in range(m - 1)]
        expect = list(before)
        expect[c], expect[c + 1] = expect[c + 1], expect[c]
        for a, b in zip(expect, after):
            if is_infinite_pole(a):
                assert is_infinite_pole(b)
            else:
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
        for col in range(m - 2):
            assert np.all(np.abs(H[col + 2 :, col]) <= 1e-13 * np.linalg.norm(H))
            assert np.all(np.abs(K[col + 2 :, col]) <= 1e-13 * np.linalg.norm(K))


def test_op2_op3_return_the_pairs_they_applied(rng):
    sol, _ = random_unreduced_pencil(rng, 6, poles=[-1.3, 1.7, INFINITY, -2.0, 1.1])
    H, K, Q = sol.H.copy(), sol.K.copy(), sol.Q.copy()
    left, right = on_stack(op3_swap_adjacent, H, K, Q, 1)
    GL, GR = rotation_matrix(left, 2, 3, 6), rotation_matrix(right, 1, 2, 6)
    for new, old in ((H, sol.H), (K, sol.K)):
        assert np.linalg.norm(new - GL @ old @ GR) <= 1e-13 * np.linalg.norm(old)
    assert np.linalg.norm(Q - sol.Q @ GL.conj().T) <= 1e-13
    H0, K0 = H.copy(), K.copy()
    G = rotation_matrix(on_stack(op2_add_pole, H, K, None, -1.1, pencil_scale(H, K)), 4, 5, 6)
    assert np.linalg.norm(H - H0 @ G) <= 1e-13 * np.linalg.norm(H0)
    assert np.linalg.norm(K - K0 @ G) <= 1e-13 * np.linalg.norm(K0)


@pytest.mark.parametrize("dtype", (np.float64, np.complex128))
def test_op1_op3_equal_the_public_rotations_of_their_pairs_bit_for_bit(rng, dtype):
    """On random stacks, each op equals rotate_rows on X and rotate_cols on
    X[:2] with the pairs it returns, then the eliminated entries zeroed and
    each moved pole pair pinned to the pair it carries: the entry facing the
    larger of |h|, |k| kept, the other set from the ratio."""
    m = 7
    for _ in range(20):
        X = rng.normal(size=(3, m, m)).astype(dtype)
        if dtype is np.complex128:
            X += 1j * rng.normal(size=(3, m, m))
        c = int(rng.integers(0, m - 2))
        r, p = int(rng.integers(c + 2, m)), c + 1
        X[1, p, r] = X[1, p, c] * X[0, p, r] / X[0, p, c]  # the zero corner: beta a01 = delta b01
        # (target, source): elimination keeps the pivot's pole, a swap exchanges two
        cases = (
            (op1_eliminate, (r, c), (p, r), (c, r), (((p, c), (p, c)),)),
            (op3_swap_adjacent, (c,), (p, p + 1), (c, p), (((p, c), (p + 1, p)), ((p + 1, p), (p, c)))),
        )
        for op, args, rows, cols, pins in cases:
            Y = X.copy()
            pairs = [(i, j, Y.item(0, *src), Y.item(1, *src)) for (i, j), src in pins]
            left, right = op(X, *args)
            rotate_rows(Y[:2], *left, *rows)
            rotate_rows(Y[2], left[0], left[1].conjugate(), *rows)
            rotate_cols(Y[:2], *right, *cols)
            Y[:2, rows[1], c] = 0.0
            for i, j, h, k in pairs:
                if abs(h) >= abs(k):
                    Y[1, i, j] = Y.item(0, i, j) * (k / h)
                else:
                    Y[0, i, j] = Y.item(1, i, j) * (h / k)
            assert np.array_equal(X, Y)


def test_op2_then_swaps_places_pole_at_target(rng):
    # acceptance criterion 4(d): add at the bottom, swap upward s_sigma times
    for trial in range(20):
        m = int(rng.integers(5, 9))
        spec = random_spec(rng, sigma=m, max_order=0)
        poles, _ = random_pole_list(rng, spec.m, 2)
        sol = solve_updating(spec, poles)
        H, K, Q = sol.H.copy(), sol.K.copy(), sol.Q.copy()
        psi = complex(rng.uniform(1.1, 2.5) * (1 if rng.random() < 0.5 else -1))
        target = int(rng.integers(2, m - 1))
        on_stack(op2_add_pole, H, K, None, psi, pencil_scale(H, K))
        for c in range(m - 3, target - 1, -1):
            on_stack(op3_swap_adjacent, H, K, Q, c)
        assert abs(pole_at(H, K, target) - psi) <= 1e-12 * abs(psi)


# ---------------------------------------------------------------------------
# add_block and solve_updating
# ---------------------------------------------------------------------------


def test_add_block_first_block_reduces_to_single_solution():
    sol = add_block(None, 0.5, [1.0], 2.0, [-1.5])
    ref = single_block_solution(0.5, [1.0], 2.0)
    on_stack(op2_add_pole, ref.H, ref.K, None, -1.5, pencil_scale(ref.H, ref.K))
    assert np.array_equal(sol.H, ref.H)
    assert np.array_equal(sol.K, ref.K)
    assert np.array_equal(sol.Q, ref.Q)
    assert abs(pole_at(sol.H, sol.K, 0) + 1.5) <= 1e-13 * 1.5


def test_add_block_end_state_pole_positions():
    # after adding a 2-block to a 4x4 solution, psi_4 sits at (5,4) and
    # psi_5 at (6,5) (1-based), matching the worked example's end state
    hat = add_block(None, -0.5, [1.0], 0.9, [-1.3])
    hat = add_block(hat, 0.1, [1.0], 1.1, [2.2, INFINITY])
    psi4, psi5 = -3.0, 1.8
    sol = add_block(hat, 0.7, [1.0], 1.2, [psi4, psi5])
    assert abs(pole_at(sol.H, sol.K, 3) - psi4) <= 1e-12 * abs(psi4)
    assert abs(pole_at(sol.H, sol.K, 4) - psi5) <= 1e-12 * abs(psi5)
    # earlier poles intact
    assert abs(pole_at(sol.H, sol.K, 0) + 1.3) <= 1e-12 * 1.3
    assert abs(pole_at(sol.H, sol.K, 1) - 2.2) <= 1e-12 * 2.2
    assert is_infinite_pole(pole_at(sol.H, sol.K, 2))


def test_add_block_residual(rng):
    spec = random_spec(rng, sigma=3, max_order=2)
    poles, _ = random_pole_list(rng, spec.m, 2)
    sol = solve_updating(spec, poles)
    sys = build_jordan(spec)
    res = np.linalg.norm(sys.J @ sol.Q @ sol.K - sol.Q @ sol.H, 2)
    scale = max(np.linalg.norm(sys.J @ sol.Q @ sol.K, 2), np.linalg.norm(sol.Q @ sol.H, 2))
    assert res <= 1e-12 * scale


def test_add_block_refuses_a_wrong_pole_count():
    with pytest.raises(ValueError, match="first block introduces exactly s poles"):
        add_block(None, 0.1, (1.0,), 1.0, [2.0, 3.0])
    hat = add_block(None, 0.1, (1.0,), 1.0, [2.0])
    with pytest.raises(ValueError, match="appended block introduces exactly s \\+ 1 poles"):
        add_block(hat, 0.7, (1.0,), 1.2, [2.5])


def test_solve_updating_single_node_spec():
    spec = DiscreteSobolevSpec(nodes=(0.3,), orders=(0,), alphas=((),), weights=(2.0,))
    sol = solve_updating(spec, [])
    ref = single_block_solution(0.3, [], 2.0)
    assert np.array_equal(sol.H, ref.H)


def test_solve_updating_full_invariants(rng):
    for _ in range(5):
        spec = random_spec(rng, max_order=2)
        poles, _ = random_pole_list(rng, spec.m)
        sol = solve_updating(spec, poles)
        assert_iep_invariants(build_jordan(spec), sol, poles)


def test_solve_updating_wrong_pole_count():
    spec = DiscreteSobolevSpec(nodes=(0.3,), orders=(1,), alphas=((1.0,),), weights=(2.0,))
    with pytest.raises(ValueError):
        solve_updating(spec, [INFINITY, INFINITY])


def test_solve_updating_complex_nodes_and_weights(rng):
    # complex data: the reversal-based block solution and phase bookkeeping
    # must keep all invariants (cross-checked against the Krylov route and,
    # on a prescribed prefix, the polynomial-first route, whose swaps then
    # move complex poles)
    from sorf.evaluation import evaluate_solution, table_agreement
    from sorf.reference import rational_arnoldi, solve_via_sop

    spec = DiscreteSobolevSpec(
        nodes=(0.2 + 0.3j, -0.4 + 0.1j, 0.5 - 0.2j),
        orders=(1, 2, 0),
        alphas=((0.8 + 0.1j,), (1.1, 0.6 - 0.4j), ()),
        weights=(1.0 + 0.5j, 0.7, 1.2 - 0.3j),
    )
    poles = [2.0 + 1.0j, INFINITY, -1.8, INFINITY, 2.5 - 0.5j]
    sys = build_jordan(spec)
    a = solve_updating(spec, poles)
    b = rational_arnoldi(sys, poles)
    assert_iep_invariants(sys, a, poles)
    assert_iep_invariants(sys, b, poles)

    xi = [2.0 + 1.0j, INFINITY, -1.8]
    psis = default_pole_list(xi, spec.m)
    routes = [solve_updating(spec, psis), solve_via_sop(sys, xi), rational_arnoldi(sys, psis)]
    nodes = np.array(spec.nodes)
    tables = [evaluate_solution(sol, nodes, max_deriv=2) for sol in routes]
    for sol in routes:
        assert_iep_invariants(sys, sol, psis)
    for i in range(3):
        for j in range(i + 1, 3):
            assert table_agreement(tables[i], tables[j]) <= 1e-10


def test_op2_zero_pole_zeroes_h_subdiagonal(rng):
    sol, _ = random_unreduced_pencil(rng, 5, poles=[-1.4, 2.0, -1.2, 1.5])
    H, K = sol.H.copy(), sol.K.copy()
    on_stack(op2_add_pole, H, K, None, 0.0, pencil_scale(H, K))
    assert H[4, 3] == 0.0
    assert pole_at(H, K, 3) == 0.0


def test_solve_updating_places_prescribed_pole_pair():
    # the first two subdiagonal ratios carry the prescribed pair -1.1, 1.1
    from sorf.sobolev import GegenbauerSobolevConfig, discretize_gegenbauer

    cfg = GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.1, N=3)
    spec = discretize_gegenbauer(cfg)
    poles = default_pole_list([-1.1, 1.1], spec.m)
    sol = solve_updating(spec, poles)
    assert abs(pole_at(sol.H, sol.K, 0) + 1.1) <= 1e-12 * 1.1
    assert abs(pole_at(sol.H, sol.K, 1) - 1.1) <= 1e-12 * 1.1


@pytest.mark.parametrize("method", ROUTES)
def test_large_prescribed_poles_are_placed_on_every_route(method):
    # poles at +-psi: each operation pins the pair it moves to the pole's
    # homogeneous pair, so no ratio is re-read from a K entry of size |h|/|psi|
    # and E_p stays at rounding however large psi is (it grew like eps * |psi|)
    from sorf.evaluation import metric_poles
    from sorf.sobolev import GegenbauerSobolevConfig, discretize_gegenbauer

    for psi in (1e6, 1e8, 1e12):
        cfg = GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.1, N=3, poles=(psi, -psi))
        spec = discretize_gegenbauer(cfg)
        poles = default_pole_list(cfg.poles, spec.m)
        assert metric_poles(ROUTES[method](spec, poles), poles) <= 1e-14, psi


@pytest.mark.parametrize("method", ROUTES)
@pytest.mark.parametrize("N", [24, 50])
def test_pole_error_is_bounded_by_m_eps_on_every_route(method, N):
    # E_p as a bound in m: at most m * eps at m = 94 and 198 over the default pole ladder
    from sorf.evaluation import metric_poles
    from sorf.sobolev import GegenbauerSobolevConfig, discretize_gegenbauer

    for mu in (0.0, 2.0, 5.0):
        for omega in (1.05, 1.5, 3.0):
            cfg = GegenbauerSobolevConfig(mu=mu, lam=1.0, omega=omega, N=N)
            spec = discretize_gegenbauer(cfg)
            poles = default_pole_list(cfg.poles, spec.m)
            E_p = metric_poles(ROUTES[method](spec, poles), poles)
            assert E_p <= spec.m * np.finfo(float).eps, (mu, omega, E_p)


def test_op2_returns_none_when_the_trailing_row_already_has_ratio_psi():
    # the last row of H is 3 times the last row of K on the trailing columns
    H = np.array([[1.0, 2.0], [1.5, 3.0]], dtype=complex)
    K = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    X = np.stack((H, K, np.eye(2, dtype=complex)))
    before = X.copy()
    assert op2_add_pole(X, 3.0, pencil_scale(X[0], X[1])) is None
    assert np.array_equal(X, before)


def test_op3_returns_none_for_equal_poles_with_a_matching_diagonal_ratio():
    # poles 2 at positions 0 and 1, and H[1, 1] / K[1, 1] = 2 between them:
    # the kernel row nu*A - mu*B vanishes and there is nothing to move
    H = np.array([[1.0, 0.3, 0.2], [2.0, 1.0, 0.4], [0.0, 4.0, 0.5]], dtype=complex)
    K = np.array([[1.0, 0.1, 0.7], [1.0, 0.5, 0.9], [0.0, 2.0, 1.2]], dtype=complex)
    X = np.stack((H, K, np.eye(3, dtype=complex)))
    before = X.copy()
    assert op3_swap_adjacent(X, 0) is None
    assert np.array_equal(X, before)


def test_op3_deflated_first_pair_raises():
    # H[1, 0] = K[1, 0] = 0: the row (0, -1) leaves the columns unrotated and
    # both first columns of the triangular kernels are zero
    H = np.triu(np.ones((3, 3), dtype=complex), -1)
    K = np.triu(np.ones((3, 3), dtype=complex), -1)
    H[1, 0] = K[1, 0] = 0.0
    H[2, 1], K[2, 1] = 2.0, 1.0
    with pytest.raises(DeflationError) as err:
        on_stack(op3_swap_adjacent, H, K, None, 0)
    assert type(err.value) is DeflationError
    assert str(err.value) == "pole swap degenerated"


@pytest.mark.parametrize("c", [2, -1])
def test_op3_refuses_an_index_without_a_pair_below(c):
    X = np.stack([np.eye(4, dtype=complex)] * 3)
    with pytest.raises(IndexError):
        op3_swap_adjacent(X, c)


def test_op3_moves_a_zero_pole_both_ways_keeping_h_exactly_zero(rng):
    sol, _ = random_unreduced_pencil(rng, 5, poles=[-1.4, 0.0, -1.2, 1.5])
    H, K = sol.H.copy(), sol.K.copy()
    assert H[2, 1] == 0.0
    on_stack(op3_swap_adjacent, H, K, None, 1)  # zero pole moves down
    assert H[3, 2] == 0.0 and H[2, 1] != 0.0
    assert abs(pole_at(H, K, 1) + 1.2) <= 1e-13 * 1.2
    on_stack(op3_swap_adjacent, H, K, None, 1)  # and back up
    assert H[2, 1] == 0.0 and H[3, 2] != 0.0
    assert abs(pole_at(H, K, 2) + 1.2) <= 1e-13 * 1.2


@pytest.mark.parametrize("psi", [1.0, 2.0, INFINITY])
def test_op2_refuses_a_pencil_without_a_pole_position(psi):
    # m = 1: H[0, -1] would wrap around to the only entry
    X = np.stack([np.eye(1)] * 3)
    with pytest.raises(IndexError):
        op2_add_pole(X, psi, pencil_scale(X[0], X[1]))
    assert np.array_equal(X, np.stack([np.eye(1)] * 3))


@pytest.mark.parametrize("psi", [np.nan, complex(1.5, np.nan)])
def test_op2_refuses_a_nan_pole_and_leaves_the_pencil(psi):
    X = add_block(None, 0.5, [1.0, 0.8], 2.0, [-1.5, 2.5]).X
    before = X.copy()
    with pytest.raises(ConfigError, match="is NaN"):
        op2_add_pole(X, psi, pencil_scale(X[0], X[1]))
    assert X.tobytes() == before.tobytes()


def test_install_poles_refuses_more_poles_than_positions():
    sol = add_block(None, 0.5, [1.0, 0.8], 2.0, [-1.5, 2.5])
    before = sol.X.copy()
    with pytest.raises(ValueError, match="overrun"):
        install_poles(sol, [-4.0, 5.0, 7.0], 0)
    with pytest.raises(ValueError, match="overrun"):
        install_poles(sol, [-4.0], 2)
    with pytest.raises(ValueError, match="overrun"):
        install_poles(sol, [-4.0], -1)
    assert np.array_equal(sol.X, before)
    install_poles(sol, [-4.0, 5.0], 0)  # exactly the two positions
    assert sol.poles() == pytest.approx([-4.0, 5.0], rel=1e-12)


@pytest.mark.parametrize("dtype", (float, complex))
def test_moves_and_adds_in_one_install_equal_two_installs(rng, dtype):
    # the moves come first, then the adds: as one call on one workspace, and
    # as two calls that each pin and copy back
    m = 9
    X = random_pole_stack(rng, dtype, [2.0, 2.0, -1.3, 1.7, INFINITY, -2.0, 1.1, 2.4])
    moves, new = [(1, m - 2), (0, m - 3)], [3.5, -1.5]
    one, two = IEPSolution(X.copy(), 1.0), IEPSolution(X.copy(), 1.0)
    install_poles(one, new, m - 3, moves)
    install_poles(two, [], m - 3, moves)
    install_poles(two, new, m - 3)
    assert one.poles() == pytest.approx(two.poles(), rel=1e-13)
    for a, b in zip(one.X, two.X):
        assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)


def test_the_updating_loop_scans_only_the_solution_it_returns(rng, monkeypatch):
    # partial solutions are finite by construction; the one returned is
    # checked once, whatever the number of blocks
    scanned = []
    check = IEPSolution.__post_init__
    monkeypatch.setattr(IEPSolution, "__post_init__", lambda sol: (scanned.append(sol.X), check(sol)))
    spec = random_spec(rng, sigma=7, max_order=2)
    poles, _ = random_pole_list(rng, spec.m, 3)
    sol = solve_updating(spec, poles)
    assert len(scanned) == 1 and scanned[0] is sol.X


# ---------------------------------------------------------------------------
# a leading block: the node step, and the moves past the solved poles
# ---------------------------------------------------------------------------


def spec_with_leading_order(rng, s, sigma, dtype):
    """Random spec whose block 0 has order s; complex data for dtype complex."""
    cplx = dtype is complex
    spec = random_spec(rng, sigma=sigma, max_order=2, complex_alphas=cplx, complex_weights=cplx)
    alphas = tuple(rng.uniform(0.5, 2.0, size=s) * (1j if cplx else 1.0))
    return DiscreteSobolevSpec(spec.nodes, (s, *spec.orders[1:]), (alphas, *spec.alphas[1:]), spec.weights)


def rest_of(spec):
    return DiscreteSobolevSpec(spec.nodes[1:], spec.orders[1:], spec.alphas[1:], spec.weights[1:])


@pytest.mark.parametrize("dtype", (float, complex))
@pytest.mark.parametrize("s", (0, 1, 2, 3))
def test_a_leading_block_solves_the_problem_with_its_rows_first(rng, monkeypatch, s, dtype):
    # block 0 leads the solved blocks 1..: J's rows are in the spec's order;
    # before the install the pencil holds the solved poles at 0 .. mhat - 2
    # and the node at the s + 1 positions below
    spec = spec_with_leading_order(rng, s, 4, dtype)
    poles, _ = random_pole_list(rng, spec.m, 3)
    hat = solve_updating(rest_of(spec), poles[: spec.m - s - 2])
    # the one _place call makes the interim moves and then the adds; its
    # moves alone give the interim pencil.  The block leads in the route's
    # workspace of order m, which the route's last _place call writes back
    seen = []
    place = updating._place
    monkeypatch.setattr(updating, "_place", lambda ws, steps, X=None: (seen.append((dataclasses.replace(ws, W=ws.W.copy()), steps)), place(ws, steps, X)))
    ws = updating._lead_block(updating._open(hat, spec.m), spec.nodes[0], spec.alphas[0], spec.weights[0], poles[hat.m - 1 :])
    place(ws, [], (sol := IEPSolution(np.empty((3, spec.m, spec.m), ws.W.dtype), ws.wnorm)).X)
    (before, steps), = seen
    interim = IEPSolution(np.empty_like(sol.X), 1.0)
    place(before, [step for step in steps if step[0] is None], interim.X)
    interim = np.array(interim.poles(), dtype=complex)
    assert np.abs(interim[: hat.m - 1] - hat.poles()).max() <= 1e-13 * np.abs(hat.poles()).max()
    assert np.abs(interim[hat.m - 1 :] - spec.nodes[0]).max() <= 1e-13
    assert_iep_invariants(build_jordan(spec), sol, poles, rtol=1e-13)
    assert metric_poles(sol, poles) <= spec.m * np.finfo(float).eps
    assert sol.X.dtype == np.result_type(dtype, *spec.weights, *sum(spec.alphas, ()), np.asarray(poles))
    assert phase_free_distance(sol.Q, rational_arnoldi(build_jordan(spec), poles).Q) <= 1e-12


def gegenbauer_problem(N, mu=2.0, omega=1.5):
    """The config and spec `sorf solve` builds for N (m = 4N - 2), lambda 1."""
    config = GegenbauerSobolevConfig(mu=mu, lam=1.0, omega=omega, N=N)
    return config, discretize_gegenbauer(config)


def test_the_leading_blocks_keep_no_bookkeeping_of_their_own(monkeypatch):
    # the leading blocks share the route's one workspace: its deflation scale
    # is carried (no pencil_scale call), and the copy in (_open) and the
    # phase pass and copy back (_place with a stack) come once per solve.
    # What remains is the appended blocks' own: the first and second block
    # (0 and 2 rows found) each install through a workspace of their own, and
    # the second one's sweep takes its scale -- the same at m = 22 and 46
    counts = {}

    def counting(name, fn, counts_call=lambda *args: True):
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + counts_call(*args, **kwargs)
            return fn(*args, **kwargs)

        monkeypatch.setattr(updating, name, counted)

    counting("pencil_scale", updating.pencil_scale)
    counting("_open", updating._open)
    counting("_place", updating._place, lambda ws, steps, X=None: X is not None)
    seen = []
    for N in (6, 12):
        config, spec = gegenbauer_problem(N)
        counts.clear()
        solve_updating(spec, default_pole_list(config.poles, spec.m))
        seen.append(dict(counts))
    assert seen[0] == seen[1] == {"pencil_scale": 1, "_open": 3, "_place": 3}


def test_a_conjugate_pair_in_the_last_leading_block_promotes_the_workspace(monkeypatch):
    # m = 46: the ladder, real free poles, then 1.6 +- 0.4i in the last two
    # positions, which the last leading block installs: the workspace stays
    # real until that block promotes it
    config, spec = gegenbauer_problem(12)
    m = spec.m
    free = [(1.2 + 0.05 * k) * (-1) ** k for k in range(m - 3 - len(config.poles))]
    poles = default_pole_list(config.poles, m, free=free + [1.6 + 0.4j, 1.6 - 0.4j])
    types = []
    lead = updating._lead_block

    def spy(ws, *block):
        grown = lead(ws, *block)
        types.append((ws.W.dtype, grown.W.dtype))
        return grown

    monkeypatch.setattr(updating, "_lead_block", spy)
    sol = solve_updating(spec, poles)
    assert types[:-1] == [(np.float64, np.float64)] * (len(types) - 1) and types[-1] == (np.float64, np.complex128)
    assert sol.X.dtype == np.complex128
    system = build_jordan(spec)
    assert metric_poles(sol, poles) <= m * np.finfo(float).eps
    assert metric_recurrence(system, sol) <= 1e-13
    assert metric_orthonormality(sol) <= 1e-13
    # measured 4.15e-14 with one BLAS thread (Krylov's Q is 2.1e-14 from
    # sop's): a margin of 2.4x
    assert phase_free_distance(sol.Q, ROUTES["sop"](spec, poles).Q) <= 1e-13


def test_the_block_order_follows_the_weights_alone(rng):
    # blocks come by decreasing |weight| whatever the spec's node order, so a
    # permuted spec gives the same pencil bit for bit and Q's rows permuted
    spec = random_spec(rng, sigma=9, max_order=2, complex_alphas=True, complex_weights=True)
    poles, _ = random_pole_list(rng, spec.m, 3)
    order = rng.permutation(spec.sigma)
    permuted = DiscreteSobolevSpec(*(tuple(field[j] for j in order) for field in (spec.nodes, spec.orders, spec.alphas, spec.weights)))
    start = np.cumsum([0, *(s + 1 for s in spec.orders)])
    rows = np.concatenate([np.arange(start[j], start[j + 1]) for j in order])
    a, b = solve_updating(spec, poles), solve_updating(permuted, poles)
    assert np.array_equal(a.H, b.H) and np.array_equal(a.K, b.K)
    assert np.array_equal(a.Q[rows], b.Q)


def test_general_specs_on_every_route_with_both_placements(rng, monkeypatch):
    # orders 0-3, complex scalings and weights; poles: one conjugate pair,
    # then finite and infinite ones mixed.  A block that finds at most
    # SWEEP_MAX rows is appended and swept, every later one leads.
    placed = {"add_block": set(), "_lead_block": set()}
    for name in placed:
        place = getattr(updating, name)

        def spy(current, node, alphas, weight, new_poles, name=name, place=place):
            if current is not None:
                placed[name].add(len(alphas))
            return place(current, node, alphas, weight, new_poles)

        monkeypatch.setattr(updating, name, spy)
    eps = np.finfo(float).eps
    for _ in range(6):
        spec = random_spec(rng, sigma=12, max_order=3, complex_alphas=True, complex_weights=True)
        m = spec.m
        poles = [1.6 + 0.4j, 1.6 - 0.4j] + [
            INFINITY if rng.random() < 0.4 else float(rng.uniform(1.05, 3.0) * rng.choice((-1.0, 1.0))) for _ in range(m - 3)
        ]
        system = build_jordan(spec)
        sols = {name: route(spec, poles) for name, route in ROUTES.items()}
        for name, sol in sols.items():
            assert metric_poles(sol, poles) <= m * eps, name
            assert metric_recurrence(system, sol) <= 1e-13, name
            assert metric_orthonormality(sol) <= 1e-13, name
        assert phase_free_distance(sols["updating"].Q, sols["sop"].Q) <= 1e-11
    assert placed["add_block"] and placed["_lead_block"] == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# pole moves: one ?tgexc call each, held to the paper's chain of swaps
# ---------------------------------------------------------------------------


def random_pole_stack(rng, dtype, poles):
    """Stack (H, K, Q^T) of a random unreduced Hessenberg pencil of dimension
    len(poles) + 1 carrying `poles` in order, with Q a random unitary; each
    subdiagonal pair is the pole pair scaled to a largest entry of order 1,
    as in a balanced pencil."""

    def draw(*shape):
        M = rng.normal(size=shape)
        return M + 1j * rng.normal(size=shape) if dtype is complex else M

    m = len(poles) + 1
    X = np.zeros((3, m, m), dtype)
    X[:2] = np.triu(draw(2, m, m))
    for k, psi in enumerate(poles):
        mu, nu = pole_pair(psi)
        scale = (draw() + 1.0) / max(abs(mu), abs(nu))
        X[0, k + 1, k], X[1, k + 1, k] = scale * mu, scale * nu
    X[2] = np.linalg.qr(draw(m, m))[0].T
    return X


def assert_move_matches_swap_chain(tgexc_calls, X, poles, first_index, moves):
    """install_poles on X equals, to rounding and one phase per column of Q,
    the paper's loop: op2 adds each pole and op3 swaps it up one position at
    a time; install_poles makes `moves` ?tgexc calls."""
    m = X.shape[1]
    chain = X.astype(np.result_type(X, np.asarray(poles)))
    for t, psi in enumerate(poles, first_index):
        op2_add_pole(chain, psi, pencil_scale(chain[0], chain[1]))
        for c in range(m - 3, t - 1, -1):
            op3_swap_adjacent(chain, c)
    sol = IEPSolution(X.copy(), 1.0)
    before = len(tgexc_calls)
    install_poles(sol, poles, first_index)
    assert len(tgexc_calls) - before == moves
    expected = IEPSolution(chain, 1.0).poles()
    for a, b in zip(expected, sol.poles()):
        if is_infinite_pole(a):
            assert is_infinite_pole(b)
        else:
            assert abs(b - a) <= 1e-13 * max(abs(a), 1.0), (a, b)
    assert np.abs(np.abs(chain[2].conj() @ sol.X[2].T) - np.eye(m)).max() <= 1e-13
    assert metric_poles(sol, expected) <= m * np.finfo(float).eps
    assert is_upper_hessenberg(sol.H) and is_upper_hessenberg(sol.K)


MOVE_CASES = {
    "finite past infinite": ([INFINITY] * 8, [1.7]),
    "infinite past infinite": ([INFINITY] * 6, [INFINITY]),
    "equal finite": ([2.5] * 7, [2.5]),
    "zero pole": ([-1.4, 0.0, 1.9, -2.2, 3.1], [0.0]),
    "large poles": ([1e8, -1e8, 1.3, 1e8, -2.0, -1e8], [-1e8]),
    "finite past finite": ([-1.3, 1.7, INFINITY, -2.0, 1.1, 2.4, -3.3, 1.6, 4.2, -1.2], [5.5]),
}


@pytest.mark.parametrize("dtype", (float, complex))
@pytest.mark.parametrize("case", MOVE_CASES)
def test_every_move_matches_the_swap_chain(tgexc_calls, rng, dtype, case):
    existing, new = MOVE_CASES[case]
    for first_index in range(len(existing) - 1):  # every move of one or more positions
        X = random_pole_stack(rng, dtype, existing)
        assert_move_matches_swap_chain(tgexc_calls, X, new, first_index, 1)


@pytest.mark.parametrize("dtype", (float, complex))
@pytest.mark.parametrize("s", (2, 3))
def test_block_of_order_s_installs_like_the_swap_chain(tgexc_calls, rng, dtype, s):
    # an appended block of order s brings s + 1 poles from index m - s - 2,
    # which move s, s - 1, .. 0 positions: one ?tgexc call each
    for m in (5, 8, 12, 200):
        X = random_pole_stack(rng, dtype, list(rng.uniform(-3.0, 3.0, size=m - 1)))
        new = list(rng.uniform(1.1, 4.0, size=s + 1) * rng.choice((-1.0, 1.0), size=s + 1))
        assert_move_matches_swap_chain(tgexc_calls, X, new, m - s - 2, s + 1)


def test_a_refused_move_raises_deflation_error_and_leaves_the_stack(monkeypatch, rng):
    X = random_pole_stack(rng, float, [INFINITY] * 6)
    before = X.copy()

    def refusing(a, b, q, z, *args, **kwargs):
        return a, b, q, z, None, 1

    monkeypatch.setattr(updating, "get_lapack_funcs", lambda name, arrays: refusing)
    with pytest.raises(DeflationError, match="info 1"):
        install_poles(IEPSolution(X, 1.0), [1.5], 0)
    assert np.array_equal(X, before)
