"""Updating solver for the Hessenberg-pencil inverse eigenvalue problem.

Given the block bidiagonal matrix J, the weight vector w and a pole list
psi_1..psi_{m-1}, construct unitary Q and an unreduced upper Hessenberg
pencil (H, K) with

    J Q K = Q H,    Q e_1 = w / ||w||_2,    H[k+1, k] / K[k+1, k] = psi_k.

Blocks of J are introduced one at a time, by decreasing weight amplitude; a
permutation of J's blocks only permutes Q's rows, which are put back once at
the end.  Each step embeds the solved subproblem and the new block
block-diagonally and corrects the first column of Q with a single plane
rotation.  A partial solution of at most `SWEEP_MAX` rows takes the new
block last, as in the paper: pole-preserving eliminations restore the
Hessenberg shape.  A larger one takes it first: reversing its columns and
rows (the node step) leaves a Hessenberg pencil whose s + 1 leading poles
all equal the node, and LAPACK ?tgexc moves them to the bottom.  Either way
the new block's poles are then installed by adding each one at the bottom
position and moving it upward: by a chain of swaps over a short distance,
else by one ?tgexc call.  Elimination and swap share one 2x2 step, `_step`:
a right rotation from the null direction of a rank-one combination of the H
and K kernels, then a re-triangularizing left rotation.  `_pin` then carries
each moved pole as its homogeneous pair.

All index arguments are 0-based; pole index k refers to the subdiagonal
position (k+1, k).  Rotations are raw (a, b) pairs (see `sorf.rotations`).
A solution is one C-contiguous stack X = (H, K, Q^T), which the pencil
operations rotate in place, bound once per call (`rotations.bind`): a left
rotation G = (a, b) turns a row pair of H and K, and of Q^T by (a, conj(b))
(Q <- Q G^H is Q^T <- conj(G) Q^T); a right one a column pair of H and K.
They return the pairs applied, or None for none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import pencil
from .errors import DeflationError, NumericalError
from .pencil import DEFLATION_RTOL, assert_unreduced, pencil_scale, pole_pair
from .rotations import bind, null_direction, rotate_cols, rotate_rows, zeroing
from .sobolev import DiscreteSobolevSpec, check_spectrum_disjoint

# The longest move `install_poles` makes by a chain of swaps is
# max(SWAP_CHAIN_MAX, m // 16) positions; longer moves take one ?tgexc call.
# Measured with one BLAS thread on sop's pencils, a swap costs 6-8 us and a
# ?tgexc move 40-50 us plus 1 us per position at m <= 94, 75 us plus 2 us
# per position at m = 198 (its m x m work arrays): the chain breaks even at
# 8 positions for m = 10 .. 94 and at 13 for m = 198.
SWAP_CHAIN_MAX = 8

# The largest partial solution `solve_updating` grows by the paper's
# procedure (`add_block`: appended block, elimination sweep); past it each
# new block leads (`_lead_block`).  Timed per block with one BLAS thread
# (s = 1 and 2, partial solutions of 2 .. 32 rows from the m = 94 and 198
# Gegenbauer problems, install included), a leading block costs
# 0.90-1.04x an appended one at 2 rows, 0.83-0.98x at 3, 0.58-0.70x at 8
# and 0.34-0.38x at 32.
SWEEP_MAX = 2


@dataclass
class IEPSolution:
    """Pencil (H, K), basis matrix Q and weight norm solving the inverse
    problem, as one C-contiguous stack X = (H, K, Q^T) that H, K, Q view."""

    X: np.ndarray
    wnorm: float

    def __post_init__(self):
        X = self.X
        if X.ndim != 3 or X.shape[0] != 3 or X.shape[1] != X.shape[2] or not X.flags.c_contiguous:
            raise ValueError("X must be a C-contiguous stack of three square matrices (H, K, Q^T)")
        if not np.all(np.isfinite(X)):
            raise ValueError("pencil and basis entries must be finite")

    H = property(lambda self: self.X[0])
    K = property(lambda self: self.X[1])
    Q = property(lambda self: self.X[2].T)
    m = property(lambda self: self.X.shape[1])

    def poles(self) -> list[complex]:
        return pencil.poles(self.H, self.K)


def single_block_solution(node: complex, alphas, weight: complex) -> IEPSolution:
    """Exact solution of the inverse problem restricted to one block.

    `alphas` lists (alpha_1, ..., alpha_s); the block has size s + 1.  With Q
    the anti-diagonal permutation, K = I and H the doubly-reversed block
    (which coincides with the transpose for s <= 1), the relation J Q = Q H
    holds identically and the permutation puts the weight into the first
    column of Q.  A diagonal phase absorbs a complex weight amplitude.  The
    stack takes the type of the block's data.
    """
    if weight == 0.0:
        raise NumericalError("block weight amplitude must be nonzero")
    phase = weight / abs(weight)
    n = len(alphas) + 1
    H, K, QT = X = np.zeros((3, n, n), np.result_type(node, phase, *alphas))
    # doubly reversed block: subdiagonal runs alpha_1 .. alpha_s downwards
    np.fill_diagonal(H[1:], alphas)
    np.fill_diagonal(H, node)
    np.fill_diagonal(K, 1.0)
    QT[...] = K[::-1]  # Q is symmetric: Q^T = Q
    QT[0] *= phase
    H[:, 0] *= phase
    H[0, :] *= np.conj(phase)
    return IEPSolution(X, abs(weight))


def embed(hat: IEPSolution, blk: IEPSolution) -> IEPSolution:
    """Block-diagonal embedding of two partial solutions.

    The embedded triple satisfies the recurrence for the combined J but not
    yet the weight condition; `weight_rotation` repairs the first column.
    It takes the type of the two parts: complex when either part is.
    """
    mh, m = hat.m, hat.m + blk.m
    X = np.zeros((3, m, m), np.result_type(hat.X, blk.X))
    X[:, :mh, :mh] = hat.X
    X[:, mh:, mh:] = blk.X
    return IEPSolution(X, float(np.hypot(hat.wnorm, blk.wnorm)))


def weight_rotation(sol: IEPSolution, w0: complex, wk: complex, k: int) -> tuple[float, float]:
    """Apply the rotation P zeroing (|w0|, |wk|) to an embedded solution on
    rows 0 and k -- H, K <- P H, P K and Q <- Q P^H -- and return its raw pair.

    Rows 0 and k are the first rows of the two embedded parts, whose weight
    norms are |w0| and |wk| (the appended block starts at row m - s - 1, the
    solved subproblem after a leading block at row s + 1); P makes the first
    column of Q the normalized combined weight vector.  The embedded block
    carries the weight phase, so only magnitudes enter and P is real:
    Q^T <- P Q^T, one row rotation of the whole stack.
    """
    a, b = rot = zeroing(abs(w0), abs(wk))
    rotate_rows(sol.X, a, b, 0, k)
    return rot


def _step(S, p: int, q: int, c: int, d: int, a00, a01, a10, a11, b00, b01, b10, b11, z0, z1, floor: float, what: str):
    """The 2x2 move shared by elimination and swap, on the bound stack S.

    a00 .. a11 and b00 .. b11 are the H and K kernels at rows (p, q), columns
    (c, d).  The right rotation is the null direction of the row (z0, z1)
    (identity for the zero row); the left one zeroes the larger rotated first
    column, or raises DeflationError(what) when its norm is at most `floor`.
    Applies both, zeroes H[q, c] and K[q, c], and returns the raw pairs.
    The left rotation (la, lb) turns the rows of Q^T as (la, conj(lb)).
    """
    rot, x, n, (_, k, g) = S
    ra, rb = null_direction(z0, z1) or (1.0, 0.0)
    ua0, ua1, ub0, ub1 = ra * a00 + rb * a01, ra * a10 + rb * a11, ra * b00 + rb * b01, ra * b10 + rb * b11
    na, nb = math.hypot(abs(ua0), abs(ua1)), math.hypot(abs(ub0), abs(ub1))
    if max(na, nb) <= floor:
        raise DeflationError(what)
    la, lb = left = zeroing(ua0, ua1) if na >= nb else zeroing(ub0, ub1)
    s, pn, qn = -lb.conjugate(), p * n, q * n
    rot(x, x, la, s, n, pn, 1, qn, 1, 1, 1)
    rot(x, x, la, s, n, k + pn, 1, k + qn, 1, 1, 1)
    rot(x, x, la, -lb, n, g + pn, 1, g + qn, 1, 1, 1)
    rot(x, x, ra, rb, g // n, c, n, d, n, 1, 1)
    x[qn + c] = x[k + qn + c] = 0.0
    return left, (ra, rb)


def _pin(X, i: int, j: int, h, k) -> None:
    """Write (H[i, j], K[i, j]) as a multiple of the pole pair (h, k): keep
    the entry facing the larger of |h|, |k|, set the other from the ratio."""
    if abs(h) >= abs(k):
        X[1, i, j] = X.item(0, i, j) * (k / h)
    else:
        X[0, i, j] = X.item(1, i, j) * (h / k)


def _eliminate(X, S, r: int, c: int, tol: float):
    """Body of `op1_eliminate` on the stack X = (H, K, Q^T), bound as S, without
    the index check: raw (left, right) pairs, or None when both target entries
    are at most `tol`.  The kernels at rows (c+1, r), columns (c, r) are judged
    against their own scale; the step's row is beta*A - delta*B."""
    a10, b10 = X.item(0, r, c), X.item(1, r, c)
    ma10, mb10 = abs(a10), abs(b10)
    if ma10 <= tol and mb10 <= tol:
        return None
    p = c + 1
    delta, a01, a11 = X.item(0, p, c), X.item(0, p, r), X.item(0, r, r)
    beta, b01, b11 = X.item(1, p, c), X.item(1, p, r), X.item(1, r, r)
    md, mb = abs(delta), abs(beta)
    scale = max(math.hypot(md, abs(a01), ma10, abs(a11)), math.hypot(mb, abs(b01), mb10, abs(b11)))
    if max(md, mb) <= DEFLATION_RTOL * scale:
        raise DeflationError("elimination pivot has vanished in both matrices")
    if abs(beta * a01 - delta * b01) > 1e-10 * max(md, mb) * scale:
        raise NumericalError("elimination kernel violates the zero-corner precondition")
    z0, z1 = beta * a10 - delta * b10, beta * a11 - delta * b11
    out = _step(S, p, r, c, r, delta, a01, a10, a11, beta, b01, b10, b11, z0, z1, DEFLATION_RTOL * scale, "elimination would deflate the pencil")
    _pin(X, p, c, delta, beta)
    return out


def op1_eliminate(X: np.ndarray, r: int, c: int):
    """Zero H[r, c] and K[r, c] keeping the pole ratio at column c intact:
    the paper's op1, which `restore_hessenberg` applies to partial solutions
    of at most `SWEEP_MAX` rows.

    The pivot sits at (c+1, c).  Applies a left rotation on rows (c+1, r) and
    a right rotation on columns (c, r) of the stack X = (H, K, Q^T), then
    pins the new pivot pair to the old one (`_pin`), so an infinite pole
    keeps its exactly zero K entry.  Returns the raw (left, right) pairs, or
    None when both targets were already negligible.
    """
    if not (0 <= c < r < X.shape[1]) or r == c + 1:
        raise IndexError(f"invalid elimination target ({r}, {c})")
    return _eliminate(X, bind(X), r, c, DEFLATION_RTOL * pencil_scale(X[0], X[1]))


def restore_hessenberg(H: np.ndarray, K: np.ndarray, Q: np.ndarray, s_sigma: int) -> list[tuple[int, int]]:
    """Eliminate everything below the first subdiagonal after a weight rotation
    of an appended block: the paper's sweep, which `solve_updating` runs on
    partial solutions of at most `SWEEP_MAX` rows.

    Column sweep: in the leading columns the fill sits in the rows of the
    appended block (each elimination cascades one row further down); the
    trailing columns clean the corner below their subdiagonal.  Rotations
    keep both Frobenius norms, so the deflation tolerance is fixed for the
    sweep.  Returns the list of positions actually eliminated, in order.
    The sweep rotates a copy of the stack (H, K, Q^T), written back once
    after the residue check.
    """
    m = H.shape[0]
    mhat = m - s_sigma - 1
    scale = pencil_scale(H, K)
    tol = DEFLATION_RTOL * scale
    targets: list[tuple[int, int]] = []
    X = np.stack((H, K, Q.T))
    S = bind(X)
    for c in range(m - 2):
        for r in range(max(mhat, c + 2), m):
            if _eliminate(X, S, r, c, tol) is not None:
                targets.append((r, c))
    residue = np.abs(np.tril(X[:2], -2)).max()
    if residue > 1e-10 * scale:
        raise NumericalError(f"Hessenberg restoration left residue {residue:.3e}")
    H[...], K[...], Q[...] = np.triu(X[0], -1), np.triu(X[1], -1), X[2].T
    return targets


def expected_elimination_count(m: int, s_sigma: int) -> int:
    """Eliminations `restore_hessenberg` needs for a weight-rotated pencil
    with an appended block (on a partial solution of at most `SWEEP_MAX`
    rows) when every pole involved is finite (generic fill).

    The first m - s_sigma - 2 columns each clear the s_sigma + 1 appended
    rows; the trailing corner needs s_sigma + (s_sigma - 1) + ... + 1 more.
    A one-dimensional leading part is special: the weight rotation then mixes
    two adjacent rows and produces no fill below the subdiagonal.  Infinite
    poles reduce the count further (a vanished K subdiagonal stops the fill
    cascade early), so this is an upper bound realized in the generic case.
    """
    S = s_sigma + 1
    mhat = m - S
    if mhat <= 1:
        return 0
    return (mhat - 1) * S + s_sigma * S // 2


def op2_add_pole(X: np.ndarray, psi, scale: float) -> tuple[complex, complex] | None:
    """Set the pole at the last subdiagonal position (m-1, m-2) to psi.

    A single right rotation on the last two columns, then `_pin` writes the
    new pair as a multiple of (mu, nu) = pole_pair(psi); Q is untouched.  X
    must hold psi's type (`install_poles` promotes it).  `scale` is the
    pencil's `pencil_scale`, which rotations keep.  Returns the raw pair
    applied, or None when the ratio already equals psi; raises
    DeflationError (judged against `scale` as in `pencil.pole_at`) when the
    new position has deflated, and IndexError when the pencil has no pole
    position (m < 2).
    """
    H, K = X[0], X[1]
    m = H.shape[0]
    if m < 2:
        raise IndexError(f"no pole position in a pencil of dimension {m}")
    mu, nu = pole_pair(psi)
    rot = null_direction(nu * H[m - 1, m - 2] - mu * K[m - 1, m - 2], nu * H[m - 1, m - 1] - mu * K[m - 1, m - 1])
    if rot is None:  # the ratio at the trailing position already equals psi
        return None
    rotate_cols(X[:2], *rot, m - 2, m - 1)
    _pin(X, m - 1, m - 2, mu, nu)
    pencil._subdiagonal_pole(H, K, m - 2, DEFLATION_RTOL * scale)
    return rot


def op3_swap_adjacent(X: np.ndarray, c: int):
    """Exchange the poles at indices c and c+1; all other ratios are fixed.

    The step's row is nu*A - mu*B for the triangular kernels at rows
    (c+1, c+2), columns (c, c+1); then `_pin` swaps the two pole pairs.  X
    must hold the poles' type (`install_poles` promotes it).  Returns the raw
    (left, right) pairs, or None when that row vanishes (equal poles).
    """
    if not 0 <= c <= X.shape[1] - 3:
        raise IndexError(f"swap index {c} out of range")
    p = c + 1
    tau, kap = X.item(0, p, c), X.item(1, p, c)
    mu, nu = X.item(0, p + 1, p), X.item(1, p + 1, p)
    h01, k01 = X.item(0, p, p), X.item(1, p, p)
    z0, z1 = nu * tau - mu * kap, nu * h01 - mu * k01
    if z0 == 0.0 and z1 == 0.0:
        return None
    out = _step(bind(X), p, p + 1, c, p, tau, h01, 0.0, mu, kap, k01, 0.0, nu, z0, z1, 0.0, "pole swap degenerated")
    _pin(X, p, c, mu, nu)
    _pin(X, p + 1, p, tau, kap)
    return out


def _move_poles(X: np.ndarray, moves) -> None:
    """Make each move (f, t) of `moves` in turn -- the pole at position f to
    position t, the poles between shifting by one -- by one LAPACK ?tgexc
    call each, on one copy of the pencil.

    The poles are the eigenvalues of the triangular pencil
    (H[1:, :-1], K[1:, :-1]), and ?tgexc reorders them.  It rotates only
    the first N rows of q and z, so it gets the pencil at N = m: a = H[1:]
    and b = K[1:] with a zero last row, q = Q[:, 1:], and rows 0 of H and K
    in z, which takes the right rotations.  Moves within positions lo .. hi
    read and write only columns lo.. of a, b and z and lo .. m - 2 of q (and
    a[lo, lo - 1], which must be zero), so only those are copied in and
    back.  dtgexc and ztgexc pick different right-rotation signs, so a
    unimodular factor per column lo .. hi makes the entry `_pin` keeps real
    and nonnegative; then the `_pin` rule, applied to every moved pair at
    once, carries each pole as its pair before the moves (on real data bit
    for bit what one `_pin` call per pair writes).  DeflationError when
    ?tgexc refuses a swap (nonzero info).
    """
    m = X.shape[1]
    lo, hi = min(map(min, moves)), max(map(max, moves))
    src = list(range(lo, hi + 1))
    for f, t in moves:
        src.insert(t - lo, src.pop(f - lo))
    i = np.arange(lo, hi + 1)
    h, k = X[:2].diagonal(-1, 1, 2)[:, src]  # the pole pairs after the moves
    a, b, q, z = (np.empty((m, m), X.dtype, order="F") for _ in range(4))
    a[:-1, lo:], b[:-1, lo:], q[:, lo:-1], z[:2, lo:] = X[0, 1:, lo:], X[1, 1:, lo:], X[2, lo + 1:].T, X[:2, 0, lo:]
    a[-1, lo:] = b[-1, lo:] = a[lo, :lo] = z[2:, lo:] = 0.0
    tgexc = get_lapack_funcs("tgexc", (X,))
    for f, t in moves:
        a, b, q, z, *_, info = tgexc(a, b, q, z, f + 1, t + 1, overwrite_a=1, overwrite_b=1, overwrite_q=1, overwrite_z=1)
        if info != 0:
            raise DeflationError(f"pole move from index {f} to {t} degenerated (?tgexc info {info})")
    keep_h = np.abs(h) >= np.abs(k)
    kept = np.where(keep_h, a[i, i], b[i, i])
    size = np.abs(kept)
    phases = np.divide(size, kept, out=np.ones_like(kept), where=kept != 0.0)
    for M in (a, b, z[:2]):
        M[:, lo:hi + 1] *= phases
    other = size * (np.where(keep_h, k, h) / np.where(keep_h, h, k))
    a[i, i], b[i, i] = np.where(keep_h, size, other), np.where(keep_h, other, size)
    X[0, 1:, lo:], X[1, 1:, lo:], X[2, lo + 1:], X[:2, 0, lo:] = a[:-1, lo:], b[:-1, lo:], q[:, lo:-1].T, z[:2, lo:]


def install_poles(sol: IEPSolution, poles, first_index: int) -> None:
    """Add each pole at the bottom and move it up to index first_index + j
    (j its place in `poles`), in place on the stack sol.X = (H, K, Q^T): by
    a chain of `op3_swap_adjacent` calls over at most
    max(SWAP_CHAIN_MAX, m // 16) positions, further by one ?tgexc call
    (`_move_poles`), which beats a long chain but not a short one.
    Rotations keep the Frobenius norms, so the adds share one deflation
    scale.  ValueError, before any change,
    when the poles do not fit in positions first_index .. m - 2.  A complex
    pole makes a real stack complex: the one place that promotes the type,
    rebinding sol.X to the complex stack."""
    m = sol.m
    if not 0 <= first_index <= m - 1 - len(poles):
        raise ValueError(f"{len(poles)} poles from index {first_index} overrun the {m - 1} positions")
    X = sol.X
    if (dtype := np.result_type(X, np.asarray(poles))) != X.dtype:
        X = sol.X = X.astype(dtype)
    longest, scale = max(SWAP_CHAIN_MAX, m // 16), pencil_scale(X[0], X[1])
    for t, psi in enumerate(poles, first_index):
        op2_add_pole(X, psi, scale)
        if m - 2 - t > longest:
            _move_poles(X, [(m - 2, t)])
        else:
            for c in range(m - 3, t - 1, -1):
                op3_swap_adjacent(X, c)


def add_block(current: IEPSolution | None, node, alphas, weight, new_poles) -> IEPSolution:
    """Grow the solution by one block of J and install its pole positions.

    `new_poles` supplies s + 1 poles (s for the very first block), ordered by
    target position: the first entry lands deepest and moves s positions.
    The paper's procedure: the block is appended (J's rows in the order
    current, block) and `restore_hessenberg` clears the weight rotation's
    fill.  `solve_updating` takes this placement while the partial solution
    has at most `SWEEP_MAX` rows and `_lead_block` past it.
    """
    blk = single_block_solution(node, alphas, weight)
    if current is None:
        if len(new_poles) != len(alphas):
            raise ValueError("the first block introduces exactly s poles")
        install_poles(blk, new_poles, 0)
        return blk
    s = len(alphas)
    if len(new_poles) != s + 1:
        raise ValueError("an appended block introduces exactly s + 1 poles")
    sol = embed(current, blk)
    weight_rotation(sol, current.wnorm, weight, current.m)
    restore_hessenberg(sol.H, sol.K, sol.Q, s)
    install_poles(sol, new_poles, current.m - 1)
    return sol


def _lead_block(current: IEPSolution, node, alphas, weight, new_poles) -> IEPSolution:
    """`add_block` with the block first (J's rows in the order block, current).

    The weight rotation of rows 0 and s + 1 fills row s + 1 at column 0
    only.  The node step -- reversing columns 0 .. s of H and K and rows
    1 .. s of the stack, a permutation that rounds nothing -- moves that
    entry onto the subdiagonal and leaves a Hessenberg pencil whose s + 1
    leading poles all equal the node.  `_move_poles` takes them, the lowest
    first, to positions m - s - 2 .. m - 2, which shifts the current poles
    up to 0 .. m - s - 3 unchanged, and `install_poles` replaces them.
    """
    s = len(alphas)
    sol = embed(single_block_solution(node, alphas, weight), current)
    weight_rotation(sol, weight, current.wnorm, s + 1)
    X, m = sol.X, sol.m
    X[:2, :, : s + 1] = X[:2, :, s::-1]
    X[:, 1 : s + 1] = X[:, s:0:-1]
    _move_poles(X, [(j, m - s - 2 + j) for j in range(s, -1, -1)])
    install_poles(sol, new_poles, current.m - 1)
    return sol


def solve_updating(spec: DiscreteSobolevSpec, poles) -> IEPSolution:
    """Solve the inverse eigenvalue problem block by block.

    `poles` lists psi_1 .. psi_{m-1} (0-based positions 0 .. m-2); the
    partial solution of size p takes positions 0 .. p - 2, whatever its
    blocks, so the next block consumes the next s + 1 of them (s for the
    first block).  Blocks come by decreasing |weight|, ties in node order.
    A block is appended (`add_block`) while the partial solution has at
    most `SWEEP_MAX` rows and leads (`_lead_block`) past it; Q's rows follow
    the blocks' places and are put back into J's order at the end.
    """
    m = spec.m
    poles = list(poles)
    if len(poles) != m - 1:
        raise ValueError(f"need m - 1 = {m - 1} poles, got {len(poles)}")
    check_spectrum_disjoint(poles, spec.nodes)
    start = np.cumsum([0, *(s + 1 for s in spec.orders)])  # J's first row of each block
    sol: IEPSolution | None = None
    rows: list = []  # J's rows in the order of the solution's
    for j in sorted(range(spec.sigma), key=lambda j: -abs(spec.weights[j])):
        pos, s = len(rows), spec.orders[j]
        first = pos > SWEEP_MAX
        sol = (_lead_block if first else add_block)(sol, spec.nodes[j], spec.alphas[j], spec.weights[j], poles[max(pos - 1, 0) : pos + s])
        blk = list(range(start[j], start[j] + s + 1))
        rows = blk + rows if first else rows + blk
    assert sol is not None
    sol.X[2] = sol.X[2][:, np.argsort(rows)]
    assert_unreduced(sol.H, sol.K)
    return sol
