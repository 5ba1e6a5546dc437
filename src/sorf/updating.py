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
all equal the node, which are moved to the bottom.  Either way the new
block's poles are then installed by adding each one at the bottom position
and moving it upward: every move is one LAPACK ?tgexc call and every add
op2's rule (`_add`), on a copy of the pencil in LAPACK's layout, a
`_Workspace`.  `install_poles` makes one copy per call.  The route makes
one at its first leading block, in a workspace of the problem's order,
grows the pencil there block by block (each block pins its pole pairs),
and makes the phase pass and the copy back once, at the end.  The paper's
elimination and swap (`op1_eliminate`, `op3_swap_adjacent`) share one 2x2
step, `_step`: a right rotation from the null direction of a rank-one
combination of the H and K kernels, then a re-triangularizing left
rotation.  `_pin` carries each moved pole as its homogeneous pair.

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
from itertools import chain

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import pencil
from .errors import DeflationError, NumericalError
from .pencil import DEFLATION_RTOL, assert_unreduced, pencil_scale, pole_pair
from .rotations import bind, null_direction, rotate_cols, rotate_rows, zeroing
from .sobolev import DiscreteSobolevSpec, check_spectrum_disjoint

# The largest partial solution `solve_updating` grows by the paper's
# procedure (`add_block`: appended block, elimination sweep); past it each
# new block leads (`_lead_block`).  Timed per block with one BLAS thread
# (s = 1 and 2, partial solutions of 2 .. 8 rows from the m = 94 and 198
# Gegenbauer problems, install included, the copy into the route's
# workspace made once per solve and left out), a leading block costs
# 0.44-0.51x an appended one at 2 rows, 0.42-0.47x at 3 and 0.34-0.37x at
# 8.  Leading would win from 2 rows, but the sweep keeps the paper's op1
# eliminations on the route, which the benchmark's self-test requires
# (`updating.eliminations` > 0); deleting it is ROADMAP item 1's.
SWEEP_MAX = 2


@dataclass
class IEPSolution:
    """Pencil (H, K), basis matrix Q and weight norm solving the inverse
    problem, as one C-contiguous stack X = (H, K, Q^T) that H, K, Q view.
    Construction checks the stack's shape and that every entry is finite;
    `_built` skips the check for the partial solutions of the updating
    loop, finite by construction, and each route checks what it returns."""

    X: np.ndarray
    wnorm: float

    def __post_init__(self):
        X = self.X
        if X.ndim != 3 or X.shape[0] != 3 or X.shape[1] != X.shape[2] or not X.flags.c_contiguous:
            raise ValueError("X must be a C-contiguous stack of three square matrices (H, K, Q^T)")
        if not np.all(np.isfinite(X)):
            raise ValueError("pencil and basis entries must be finite")

    @classmethod
    def _built(cls, X: np.ndarray, wnorm: float) -> IEPSolution:
        sol = object.__new__(cls)
        sol.X, sol.wnorm = X, wnorm
        return sol

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
    return IEPSolution._built(X, abs(weight))


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
    return IEPSolution._built(X, float(np.hypot(hat.wnorm, blk.wnorm)))


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


def _pin(x, y, h, k):
    """The subdiagonal pair (x, y) of H and K as a multiple of the pole pair
    (h, k): keep the entry facing the larger of |h|, |k|, set the other from
    the ratio."""
    return (x, x * (k / h)) if abs(h) >= abs(k) else (y * (h / k), y)


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
    X[0, p, c], X[1, p, c] = _pin(X.item(0, p, c), X.item(1, p, c), delta, beta)
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


def _add(h0, h1, k0, k1, psi, tol: float, at: int):
    """op2's rule on the trailing row of a pencil: h0, h1 and k0, k1 are the
    entries of H and K in the last two columns, (h0, k0) the subdiagonal
    pair at position `at`.  Returns (a, b, h, k): the raw pair of the right
    rotation whose first column is the null direction of
    nu*(h0, h1) - mu*(k0, k1), (mu, nu) = pole_pair(psi), and the pair it
    makes at that position, pinned to (mu, nu) (`_pin`); None when the row
    is zero, as the ratio already equals psi.  DeflationError, by `pencil`'s
    rule against `tol`, when the new pair has deflated."""
    mu, nu = pole_pair(psi)
    if (rot := null_direction(nu * h0 - mu * k0, nu * h1 - mu * k1)) is None:
        return None
    a, b = rot
    h, k = _pin(a * h0 + b * h1, a * k0 + b * k1, mu, nu)
    pencil._pair_pole(h, k, at, tol)
    return a, b, h, k


def op2_add_pole(X: np.ndarray, psi, scale: float) -> tuple[complex, complex] | None:
    """Set the pole at the last subdiagonal position (m-1, m-2) to psi: the
    paper's op2, by its rule `_add`, on the stack X = (H, K, Q^T).

    A single right rotation on the last two columns of H and K, then the
    new pair pinned to (mu, nu) = pole_pair(psi); Q is untouched.  X must
    hold psi's type.  `scale` is the pencil's `pencil_scale`, which
    rotations keep.  Returns the raw pair applied, or None when the ratio
    already equals psi; raises DeflationError (judged against `scale` as in
    `pencil.pole_at`), before any change, when the new position would
    deflate, and IndexError when the pencil has no pole position (m < 2).
    """
    m = X.shape[1]
    if m < 2:
        raise IndexError(f"no pole position in a pencil of dimension {m}")
    if (out := _add(X.item(0, m - 1, m - 2), X.item(0, m - 1, m - 1), X.item(1, m - 1, m - 2), X.item(1, m - 1, m - 1), psi, DEFLATION_RTOL * scale, m - 2)) is None:
        return None
    rotate_cols(X[:2], *out[:2], m - 2, m - 1)
    X[:2, m - 1, m - 2] = out[2:]
    return out[:2]


def op3_swap_adjacent(X: np.ndarray, c: int):
    """Exchange the poles at indices c and c+1; all other ratios are fixed:
    the paper's op3, which the tests hold `install_poles`'s ?tgexc moves to.

    The step's row is nu*A - mu*B for the triangular kernels at rows
    (c+1, c+2), columns (c, c+1); then `_pin` swaps the two pole pairs.  X
    must hold the poles' type.  Returns the raw (left, right) pairs, or None
    when that row vanishes (equal poles).
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
    X[0, p, c], X[1, p, c] = _pin(X.item(0, p, c), X.item(1, p, c), mu, nu)
    X[0, p + 1, p], X[1, p + 1, p] = _pin(X.item(0, p + 1, p), X.item(1, p + 1, p), tau, kap)
    return out


@dataclass
class _Workspace:
    """A pencil in `install_poles`'s layout W = (a^T, b^T, z^T, q^T), the
    rows the pencil operations leave alone last: rows 0 of H and K in z's
    last two rows and Q^T's row 0 in W[3, -1] (q's last column, which ?tgexc
    never reaches).  A pencil of order m - lo sits in the trailing corner of
    the order-m workspace, rows and columns lo .. (and those last rows),
    where ?tgexc moves its poles as in its own, and a leading block grows it
    without a copy.  Carried with it: the squared Frobenius norms of H and
    K, which rotations and permutations keep (the deflation scale), and the
    weight norm.  `install_poles` keeps one for a call, the updating route
    one from its first leading block to its end."""

    W: np.ndarray
    lo: int
    sq: np.ndarray
    wnorm: float


def _open(sol: IEPSolution, m: int = 0) -> _Workspace:
    """The one copy of the stack sol.X into the trailing corner of a
    workspace of order max(m, sol.m), with its squared norms."""
    X, n = sol.X, sol.m
    W = np.zeros((4, max(m, n), max(m, n)), X.dtype)
    W[:2, -n:, -n:-1], W[2, -n:, -2:], W[3, -n:-1, -n:], W[3, -1, -n:] = X[:2, 1:].transpose(0, 2, 1), X[:2, 0].T, X[2, 1:], X[2, 0]
    return _Workspace(W, W.shape[1] - n, np.linalg.norm(X[:2], axis=(1, 2)) ** 2, sol.wnorm)


def _place(ws: _Workspace, steps, X: np.ndarray | None = None) -> None:
    """Make each step (psi, f, t) on the workspace, positions counted in
    the whole workspace: for a pole psi, first add it at the bottom position
    f = m - 2 by op2's rule `_add`; then move the pole at position f to
    position t by one ?tgexc call, the poles between shifting by one.  The
    moves read the pairs as ?tgexc leaves them, and the adds share one
    deflation scale.  Then `_pin`'s rule, applied to every pair at once,
    carries each pole as the pair it had in the pencil or was added as (on
    real data bit for bit what one `_pin` call per pair writes).  With X, on
    a workspace the pencil fills, the pins follow the phase pass -- a
    unimodular factor per column 0 .. m - 2 makes the entry `_pin` keeps
    real and nonnegative (dtgexc and ztgexc pick different right-rotation
    signs) -- and precede the one copy back into the stack X = (H, K, Q^T).
    DeflationError when an add deflates the pencil or ?tgexc refuses a swap
    (nonzero info)."""
    W, lo, m = ws.W, ws.lo, ws.W.shape[1]
    pairs = W[:2].diagonal(0, 1, 2)[:, lo:-1].T.tolist()  # the pole pair each position lo .. m - 2 carries
    (a, b, z, q), (rot, x, n, offsets) = (M.T for M in W), bind(W)
    tgexc, tol = get_lapack_funcs("tgexc", (W,)), DEFLATION_RTOL * math.sqrt(max(ws.sq))
    for psi, f, t in steps:
        if psi is not None:
            if (out := _add(W.item(0, m - 2, m - 2), W.item(0, m - 1, m - 2), W.item(1, m - 2, m - 2), W.item(1, m - 1, m - 2), psi, tol, m - 2)) is not None:
                for off in offsets[:3]:  # columns m - 2, m - 1 of a, b, z
                    rot(x, x, out[0], out[1], n, off + (m - 2) * n, 1, off + (m - 1) * n, 1, 1, 1)
                W[0, m - 2, m - 2], W[1, m - 2, m - 2] = out[2:]
            pairs[-1] = [W.item(0, m - 2, m - 2), W.item(1, m - 2, m - 2)]
        *_, info = tgexc(a, b, q, z, f + 1, t + 1, overwrite_a=1, overwrite_b=1, overwrite_q=1, overwrite_z=1)
        if info != 0:
            raise DeflationError(f"pole move from index {f} to {t} degenerated (?tgexc info {info})")
        pairs.insert(t - lo, pairs.pop(f - lo))
    h, k = np.fromiter(chain.from_iterable(pairs), W.dtype, 2 * len(pairs)).reshape(-1, 2).T
    keep, i = (np.abs(h) < np.abs(k)).astype(np.intp), np.arange(lo, m - 1)  # keep: 0 for H's entry, 1 for K's
    kept = W[keep, i, i]
    if X is not None:  # z^T is zero outside rows 0 of H and K
        W[:3, :-1] *= np.divide(size := np.abs(kept), kept, out=np.ones_like(kept), where=kept != 0.0)[:, None]
        W[keep, i, i] = kept = size
    W[1 - keep, i, i] = kept * (np.where(keep, h, k) / np.where(keep, k, h))
    if X is not None:
        X[:2, 1:], X[:2, 0], X[2, 1:], X[2, 0] = W[:2, :, :-1].transpose(0, 2, 1), W[2, :, -2:].T, W[3, :-1], W[3, -1]


def install_poles(sol: IEPSolution, poles, first_index: int, moves=()) -> None:
    """Make each move (f, t) of `moves` -- the pole at position f to position
    t, the poles between shifting by one -- then add each pole of `poles` at
    the bottom and move it up to index first_index + j (j its place in
    `poles`), in place on the stack sol.X = (H, K, Q^T).

    One copy into a workspace (`_open`), then one `_place` call: the move
    loop (every move one LAPACK ?tgexc call, every add op2's rule `_add`)
    and one phase pass, pin pass and copy back.  The poles are the eigenvalues
    of the triangular pencil (H[1:, :-1], K[1:, :-1]), so ?tgexc gets the
    pencil at N = m: a = H[1:] and b = K[1:] with a zero last row,
    q = Q[:, 1:], and rows 0 of H and K in z's last two rows, which take the
    right rotations.  The workspace is the C-ordered stack W = (a^T, b^T, z^T, q^T),
    so an add turns two rows of W[:3].  ValueError, before any change, when
    the poles do not fit in positions first_index .. m - 2; DeflationError,
    with sol.X as it was, when `_place` raises it.  A complex pole makes a
    real stack complex, rebinding sol.X to the complex stack; the updating
    route's leading blocks promote their workspace by the same rule.
    """
    m = sol.m
    if not 0 <= first_index <= m - 1 - len(poles):
        raise ValueError(f"{len(poles)} poles from index {first_index} overrun the {m - 1} positions")
    sol.X = sol.X.astype(np.result_type(sol.X, np.asarray(poles)), copy=False)
    if steps := [(None, f, t) for f, t in moves] + [(psi, m - 2, t) for t, psi in enumerate(poles, first_index)]:
        _place(_open(sol), steps, sol.X)


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


def _lead_block(ws: _Workspace, node, alphas, weight, new_poles) -> _Workspace:
    """`add_block` with the block first (J's rows in the order block, current),
    in the updating route's workspace of the problem's order m: the current
    pencil fills its trailing corner from row c = ws.lo, the grown one from
    d = c - s - 1.  Returns the grown pencil's workspace (the same array,
    unless a complex block or pole promotes it), pinned: the route's last
    `_place` call makes the phase pass and the copy back.

    The embedding moves the current's row 0 (z's last two rows and Q^T's
    row 0) to row s + 1 and writes the block into rows and columns d .. c - 1
    after the node step -- reversing columns 0 .. s of H and K and rows
    1 .. s of the block's stack, a permutation that rounds nothing.  The
    weight rotation of rows 0 and s + 1, one ?rot call per matrix from
    column d, then fills row s + 1 at column 0 only, which leaves a
    Hessenberg pencil whose s + 1 leading poles all equal the node.  The
    block's squared norms add to the carried ones.  One `_place` call moves
    the node poles, the lowest first, to positions m - s - 2 .. m - 2, which
    shifts the current poles up unchanged, and replaces them with the new
    poles.
    """
    s, B = len(alphas), single_block_solution(node, alphas, weight).X
    W, (a, b) = ws.W.astype(np.result_type(ws.W, B, np.asarray(new_poles)), copy=False), zeroing(abs(weight), ws.wnorm)
    m, c, d, r = W.shape[1], ws.lo, ws.lo - s - 1, ws.lo - 1  # r: row s + 1 of the grown pencil in a, b and q^T
    W[:2, c:, r], W[3, r, c:], W[2, c:, -2:], W[3, -1, c:] = W[2, c:, -2:].T, W[3, -1, c:], 0.0, 0.0
    W[:2, d:c, d:r], W[3, d:r, d:c], W[2, d:c, -2:], W[3, -1, d:c] = B[:2, :0:-1, ::-1].transpose(0, 2, 1), B[2, :0:-1], B[:2, 0, ::-1].T, B[2, 0]
    rot, x, n, (oa, ob, oz, oq) = bind(W, a)
    for ox, oy, inc in ((oz + d * n + m - 2, oa + d * n + r, n), (oz + d * n + m - 1, ob + d * n + r, n), (oq + (m - 1) * n + d, oq + r * n + d, 1)):
        rot(x, x, a, -b, m - d, ox, inc, oy, inc, 1, 1)  # rows 0 and s + 1 of H, K and Q^T
    grown = _Workspace(W, d, ws.sq + ((s + 1) * abs(node) ** 2 + sum(abs(al) ** 2 for al in alphas), s + 1), float(np.hypot(abs(weight), ws.wnorm)))
    _place(grown, [(None, d + j, m - s - 2 + j) for j in range(s, -1, -1)] + [(psi, m - 2, t) for t, psi in enumerate(new_poles, m - s - 2)])
    return grown


def solve_updating(spec: DiscreteSobolevSpec, poles) -> IEPSolution:
    """Solve the inverse eigenvalue problem block by block.

    `poles` lists psi_1 .. psi_{m-1} (0-based positions 0 .. m-2); the
    partial solution of size p takes positions 0 .. p - 2, whatever its
    blocks, so the next block consumes the next s + 1 of them (s for the
    first block).  Blocks come by decreasing |weight|, ties in node order.
    A block is appended (`add_block`) while the partial solution has at
    most `SWEEP_MAX` rows and leads (`_lead_block`) past it, in one
    workspace of order m that the first leading block opens (`_open`) and
    the last `_place` call phases and writes back; Q's rows follow the
    blocks' places and are put back into J's order at the end.
    """
    m = spec.m
    poles = list(poles)
    if len(poles) != m - 1:
        raise ValueError(f"need m - 1 = {m - 1} poles, got {len(poles)}")
    check_spectrum_disjoint(poles, spec.nodes)
    start = np.cumsum([0, *(s + 1 for s in spec.orders)])  # J's first row of each block
    sol = ws = None
    rows: list = []  # J's rows in the order of the solution's
    for j in sorted(range(spec.sigma), key=lambda j: -abs(spec.weights[j])):
        pos, s = len(rows), spec.orders[j]
        block = (spec.nodes[j], spec.alphas[j], spec.weights[j], poles[max(pos - 1, 0) : pos + s])
        blk = list(range(start[j], start[j] + s + 1))
        if pos > SWEEP_MAX:
            ws, rows = _lead_block(ws or _open(sol, m), *block), blk + rows
        else:
            sol, rows = add_block(sol, *block), rows + blk
    if ws is not None:
        sol = IEPSolution._built(np.empty((3, m, m), ws.W.dtype), ws.wnorm)
        _place(ws, [], sol.X)
    sol.X[2] = sol.X[2][:, np.argsort(rows)]
    assert_unreduced(sol.H, sol.K)
    return IEPSolution(sol.X, sol.wnorm)
