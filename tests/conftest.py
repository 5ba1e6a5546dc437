import numpy as np
import pytest

from sorf.evaluation import metric_orthonormality, metric_poles, metric_recurrence
from sorf.reference import rational_arnoldi, solve_via_sop
from sorf.sobolev import DiscreteSobolevSpec, build_jordan, default_pole_list
from sorf import updating
from sorf.updating import solve_updating

# the three solution routes, each from a spec and a pole list
ROUTES = {
    "updating": solve_updating,
    "sop": lambda spec, poles: solve_via_sop(build_jordan(spec), poles),
    "krylov": lambda spec, poles: rational_arnoldi(build_jordan(spec), poles),
}


def random_spec(rng, sigma=None, max_order=2, complex_alphas=False, complex_weights=False):
    """Random discrete Sobolev spec: distinct real nodes in (-1, 1),
    positive (or complex) weights, nonzero derivative scalings."""
    if sigma is None:
        sigma = int(rng.integers(1, 8))
    while True:
        nodes = np.sort(rng.uniform(-0.95, 0.95, size=sigma))
        if sigma == 1 or np.min(np.diff(nodes)) > 5e-2:
            break
    orders = rng.integers(0, max_order + 1, size=sigma)
    alphas = []
    for s in orders:
        a = rng.uniform(0.5, 2.0, size=s)
        if complex_alphas:
            a = a * np.exp(1j * rng.uniform(0, 2 * np.pi, size=s))
        alphas.append(tuple(a))
    weights = rng.uniform(0.3, 2.0, size=sigma)
    if complex_weights:
        weights = weights * np.exp(1j * rng.uniform(0, 2 * np.pi, size=sigma))
    return DiscreteSobolevSpec(
        nodes=tuple(nodes), orders=tuple(int(s) for s in orders),
        alphas=tuple(alphas), weights=tuple(weights),
    )


def random_pole_list(rng, m, n_finite=None):
    """Prescribed finite prefix outside [-1, 1], free poles at infinity."""
    if n_finite is None:
        n_finite = int(rng.integers(0, min(3, m - 1) + 1))
    xi = []
    for _ in range(n_finite):
        mag = rng.uniform(1.05, 3.0)
        xi.append(complex(mag if rng.random() < 0.5 else -mag))
    return default_pole_list(xi, m), xi


def phase_free_distance(Qa, Qb):
    """max_k min_s ||qa_k - s qb_k|| over unimodular s: how far two bases are
    apart once each column's free phase is matched."""
    c = np.sum(Qb.conj() * Qa, axis=0)
    s = np.divide(c, np.abs(c), out=np.ones_like(c), where=c != 0)
    return float(np.max(np.linalg.norm(Qa - s * Qb, axis=0)))


def mp_rational_arnoldi(system, poles, dps=60):
    """Forward-error oracle: the orthonormal basis of the rational Krylov
    space of (J, w) with the poles, computed in mpmath at `dps` digits from
    the double-precision J (upper bidiagonal), w and poles, then rounded to
    complex128.  Step k appends (J - psi_k I)^{-1} q_k, or J q_k at an
    infinite pole, orthogonalized twice by modified Gram-Schmidt; the
    columns' phases are free, so compare with `phase_free_distance`."""
    import mpmath

    J, m = system.J, system.m
    assert np.array_equal(J, np.diag(J.diagonal()) + np.diag(J.diagonal(1), 1))
    with mpmath.workdps(dps):
        d = [mpmath.mpc(complex(x)) for x in J.diagonal()]
        e = [mpmath.mpc(complex(x)) for x in J.diagonal(1)] + [mpmath.mpc(0)]
        w = [mpmath.mpc(complex(x)) for x in system.w]
        Q = [[x / mpmath.sqrt(mpmath.fsum(abs(y) ** 2 for y in w)) for x in w]]
        for psi in poles:
            q = Q[-1]
            if np.isinf(psi):
                v = [d[i] * q[i] + e[i] * q[i + 1] for i in range(m - 1)] + [d[-1] * q[-1]]
            else:
                p, v = mpmath.mpc(complex(psi)), [mpmath.mpc(0)] * m
                for i in reversed(range(m)):  # back substitution on J - psi I
                    v[i] = (q[i] - (e[i] * v[i + 1] if i < m - 1 else 0)) / (d[i] - p)
            for _ in range(2):
                for b in Q:
                    c = mpmath.fsum(mpmath.conj(x) * y for x, y in zip(b, v))
                    v = [y - c * x for x, y in zip(b, v)]
            norm = mpmath.sqrt(mpmath.fsum(abs(y) ** 2 for y in v))
            Q.append([y / norm for y in v])
        return np.array([[complex(x) for x in col] for col in Q]).T


def is_upper_hessenberg(A):
    return not np.tril(A, -2).any()


def integrate(rule, f):
    """Apply a quadrature rule to the integrand f."""
    return np.sum(rule.weights * f(rule.nodes))


def rotation_matrix(rot, i, k, m):
    """Dense m-by-m unitary matrix carrying the raw rotation rot = (a, b) at
    the row/column pair (i, k)."""
    a, b = rot
    G = np.eye(m, dtype=complex)
    G[i, i] = np.conj(a)
    G[i, k] = -np.conj(b)
    G[k, i] = b
    G[k, k] = a
    return G


KERNEL_AT = np.ix_((1, 2), (0, 2))  # rows (1, 2), columns (0, 2): where op1_eliminate(X, 2, 0) reads


def kernel_stack(A):
    """3x3 matrix, zero but for the 2x2 kernel A at KERNEL_AT."""
    M = np.zeros((3, 3), dtype=complex)
    M[KERNEL_AT] = A
    return M


def on_stack(op, H, K, Q, *args):
    """Run a pencil operation of `sorf.updating` on the stack (H, K, Q^T) it
    acts on, write the result back into H, K and Q (Q = None stands for the
    identity and is not written) and return what the operation returned."""
    X = np.stack((H, K, np.eye(len(H), dtype=H.dtype) if Q is None else Q.T))
    out = op(X, *args)
    H[...], K[...] = X[0], X[1]
    if Q is not None:
        Q[...] = X[2].T
    return out


def assert_iep_invariants(system, sol, poles, rtol=1e-12):
    """The three defining conditions of a pencil inverse-problem solution."""
    assert metric_orthonormality(sol) <= rtol
    w = system.w
    assert np.linalg.norm(sol.Q[:, 0] - w / np.linalg.norm(w)) <= rtol
    assert metric_recurrence(system, sol) <= rtol
    assert metric_poles(sol, poles) <= rtol
    assert is_upper_hessenberg(sol.H) and is_upper_hessenberg(sol.K)


@pytest.fixture
def tgexc_calls(monkeypatch):
    """The ?tgexc calls `sorf.updating` makes while the test runs, in order,
    each as (routine name, keyword arguments)."""
    calls = []
    lookup = updating.get_lapack_funcs

    def counting(name, arrays):
        routine = lookup(name, arrays)

        def wrapped(*args, **kwargs):
            calls.append((routine.typecode + name, kwargs))
            return routine(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(updating, "get_lapack_funcs", counting)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "::test_criterion_" in nodeid:
                name = nodeid.split("::test_criterion_")[1]
                rows.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if rows:
        terminalreporter.section("acceptance criteria")
        for name, verdict in sorted(rows):
            terminalreporter.write_line(f"criterion {name}: {verdict}")
