import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qdeco
from qdeco import metrics, qstate


def bell_rho():
    psi = qstate.ghz_state(2)
    return np.outer(psi, psi.conj())


def random_rho(g, dim):
    a = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def haar_u2(g):
    z = (g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_purity_endpoints():
    assert abs(metrics.purity(bell_rho()) - 1.0) < 1e-14
    assert abs(metrics.purity(np.eye(4) / 4) - 0.25) < 1e-14


def test_purity_vs_eigenvalues():
    rho = random_rho(qdeco.rng(1), 4)
    ev = np.linalg.eigvalsh(rho)
    assert abs(metrics.purity(rho) - np.sum(ev**2)) < 1e-12


def test_concurrence_bell_and_product():
    assert abs(metrics.concurrence(bell_rho()) - 1.0) < 1e-12
    g = qdeco.rng(2)
    a, b = qstate.random_state(2, g), qstate.random_state(2, g)
    psi = qstate.tensor_product(a, b, 0b01)
    assert metrics.concurrence(np.outer(psi, psi.conj())) < 1e-8


def test_concurrence_werner_state():
    # eigen-oracle for the spin-flipped product, plus the analytic curve
    alpha = 0.2
    rho = alpha * np.eye(4) / 4 + (1 - alpha) * bell_rho()
    c = metrics.concurrence(rho)
    assert abs(c - (1 - 1.5 * alpha)) < 1e-12
    assert abs(c - metrics.werner_curve(metrics.purity(rho))) < 1e-9


def test_concurrence_local_unitary_invariance():
    g = qdeco.rng(3)
    for _ in range(100):
        rho = random_rho(g, 4)
        u = np.kron(haar_u2(g), haar_u2(g))
        c1 = metrics.concurrence(rho)
        c2 = metrics.concurrence(u @ rho @ u.conj().T)
        assert abs(c1 - c2) < 1e-9


def test_concurrence_shape_check():
    with pytest.raises(ValueError):
        metrics.concurrence(np.eye(2) / 2)


def test_concurrence_pure_schmidt_angle():
    for theta in (0.0, 0.2, 0.4, np.pi / 4):
        psi = qstate.two_qubit_pair(theta, 0.7)
        assert abs(metrics.concurrence_pure(psi) - np.sin(2 * theta)) < 1e-12
        rho = np.outer(psi, psi.conj())
        assert abs(metrics.concurrence(rho) - metrics.concurrence_pure(psi)) < 1e-10


def test_entropy_from_purity():
    assert metrics.entropy_from_purity(1.0) == 0.0
    assert abs(metrics.entropy_from_purity(0.5) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        metrics.entropy_from_purity(0.3)
    g = qdeco.rng(4)
    for _ in range(20):
        rho = random_rho(g, 2)
        assert abs(metrics.entropy_from_purity(metrics.purity(rho))
                   - metrics.von_neumann(rho)) < 1e-9


def test_eof_from_concurrence():
    assert abs(metrics.eof_from_concurrence(1.0) - 1.0) < 1e-12
    assert metrics.eof_from_concurrence(0.0) == 0.0
    assert metrics.eof_from_concurrence(0.7) > metrics.eof_from_concurrence(0.3)
    with pytest.raises(ValueError):
        metrics.eof_from_concurrence(1.5)


def test_offdiagonal_decay():
    plus = np.ones((2, 2)) / 2
    assert abs(metrics.offdiagonal_decay(plus) - 1.0) < 1e-14
    assert metrics.offdiagonal_decay(np.eye(2) / 2) == 0.0
    k = np.exp(-1.0)
    rho = np.array([[0.5, 0.5 * k], [0.5 * k, 0.5]])
    assert abs(metrics.offdiagonal_decay(rho) - np.exp(-2.0)) < 1e-14


def test_offdiagonal_bounded_by_purity():
    g = qdeco.rng(5)
    for _ in range(200):
        rho = random_rho(g, 2)
        d = metrics.offdiagonal_decay(rho)
        assert -1e-12 <= d <= metrics.purity(rho) + 1e-12


def test_werner_curve_values():
    assert metrics.werner_curve(1.0) == 1.0
    assert metrics.werner_curve(1.0 / 3.0) == 0.0
    assert abs(metrics.werner_curve(0.5) - (np.sqrt(3) - 1) / 2) < 1e-14
    p = np.linspace(0.25, 1.0, 301)
    c = metrics.werner_curve(p)
    assert np.all(np.diff(c) >= -1e-14)
    assert np.all(c[p <= 1.0 / 3.0] == 0.0)


def test_werner_family_reduces_at_c0_one():
    p = np.linspace(0.26, 1.0, 200)
    assert np.max(np.abs(metrics.werner_curve_c0(p, 1.0)
                         - metrics.werner_curve(p))) < 1e-12
    assert abs(metrics.werner_curve_c0(1.0, 0.4) - 0.4) < 1e-12


def test_werner_c0_matches_depolarized_pair():
    # one qubit of a pair with concurrence c0 run through a depolarizing
    # channel: (C, P) of the explicit output state must land on the curve
    lam_state = 0.25  # population weight; c0 = 2 sqrt(lam (1-lam)) = 2/3...
    c0 = 2 * np.sqrt(lam_state * (1 - lam_state))
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = np.sqrt(lam_state), np.sqrt(1 - lam_state)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    rho0 = np.outer(psi, psi.conj())
    for gam in np.linspace(0.0, 0.7, 15):
        kraus = [np.sqrt(1 - gam) * np.eye(2), np.sqrt(gam / 3) * sx,
                 np.sqrt(gam / 3) * sy, np.sqrt(gam / 3) * sz]
        rho = sum(np.kron(np.eye(2), k) @ rho0 @ np.kron(np.eye(2), k).conj().T
                  for k in kraus)
        c = metrics.concurrence(rho)
        p = metrics.purity(rho)
        assert abs(c - metrics.werner_curve_c0(p, c0)) < 1e-9


def test_werner_deviation_estimate_value():
    val = metrics.werner_deviation_estimate(0.14, 1024)
    assert abs(val - (1.0 / (2**3.5 * 1024) + 2.0**-12)) < 1e-15


def test_unitality_distance():
    assert metrics.unitality_distance(np.eye(2) / 2) == 0.0
    assert abs(metrics.unitality_distance(np.diag([1.0, 0.0])) - 1.0) < 1e-14
    sx = np.array([[0, 1], [1, 0]])
    rho = (np.eye(2) + 0.3 * sx) / 2
    assert abs(metrics.unitality_distance(rho) - 0.3) < 1e-14


def test_cp_curve_binning_and_distance():
    g = qdeco.rng(6)
    p = g.uniform(0.3, 1.0, 4000)
    curve = metrics.bin_cp_samples(p, metrics.werner_curve(p), bin_width=0.005)
    assert np.all(np.diff(curve.purity) < 0)
    assert np.all(curve.physical)
    assert metrics.cp_distance(curve, metrics.werner_curve) < 2e-4
    # out-of-range points are kept and flagged, never dropped
    wild = metrics.bin_cp_samples([0.9, 0.1], [0.2, 0.2], bin_width=0.005)
    assert list(wild.physical) == [True, False]
    # constant offset integrates to offset x range
    eps = 0.03
    curve2 = metrics.bin_cp_samples(p, metrics.werner_curve(p) + eps, 0.005)
    span = curve2.purity.max() - curve2.purity.min()
    assert abs(metrics.cp_distance(curve2, metrics.werner_curve) - eps * span) < 1e-3
    # purities that are 1 up to rounding share the top bin
    top = metrics.bin_cp_samples([1 + 7e-15, 1 - 5e-15, 0.9], [1.0, 1.0, 0.5])
    assert list(top.counts) == [2, 1]
    assert abs(top.purity[0] - 1.0) < 1e-14
    with pytest.raises(ValueError):
        metrics.bin_cp_samples([], [])


def _mixed_and_pure_stack(g, d, n=6):
    """Full-rank mixed states alternating with rank-one pure ones."""
    out = []
    for k in range(n):
        if k % 2:
            psi = qstate.random_state(d, g)
            out.append(np.outer(psi, psi.conj()))
        else:
            out.append(random_rho(g, d))
    return np.array(out).reshape(2, n // 2, d, d)


@pytest.mark.parametrize("name, d", [
    ("purity", 4), ("purity", 8), ("von_neumann", 4), ("concurrence", 4),
    ("offdiagonal_decay", 2), ("unitality_distance", 2), ("bloch_vector", 2)])
def test_stacked_metric_equals_per_matrix(name, d):
    fn = getattr(metrics, name)
    stack = _mixed_and_pure_stack(qdeco.rng(40 + d), d)
    got = fn(stack)
    assert isinstance(got, np.ndarray)
    want = np.array([[fn(rho) for rho in row] for row in stack])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-14
    if name != "bloch_vector":
        assert isinstance(fn(stack[0, 0]), float)


def test_stacked_shape_checks_and_refusal():
    with pytest.raises(ValueError):
        metrics.concurrence(np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        metrics.offdiagonal_decay(np.zeros((3, 4, 4)))
    stack = _mixed_and_pure_stack(qdeco.rng(7), 4)
    assert np.all(metrics.concurrence(stack) >= 0)
    # one member with eigenvalue -0.01 refuses the whole stack
    stack[1, 2] = np.diag([0.51, 0.5, 0.0, -0.01])
    with pytest.raises(ValueError, match="eigenvalue"):
        metrics.concurrence(stack)


_ENTRIES = hnp.arrays(np.float64, (3, 2, 4, 4),
                      elements=st.floats(-1.0, 1.0, allow_nan=False))
_EULER = hnp.arrays(np.float64, (3, 2, 3),
                    elements=st.floats(-np.pi, np.pi, allow_nan=False))


def _su2(a, b, c):
    """Rz(a) Ry(b) Rz(c)."""
    p, m = np.exp(-0.5j * (a + c)), np.exp(-0.5j * (a - c))
    cb, sb = np.cos(b / 2), np.sin(b / 2)
    return np.array([[p * cb, -m * sb], [m.conj() * sb, p.conj() * cb]])


@settings(deadline=None, max_examples=60)
@given(_ENTRIES, _EULER)
def test_stack_bounds_and_local_unitary_invariance(entries, euler):
    # random two-qubit stacks, rank one to full; P in [1/4, 1], C in [0, 1],
    # and both unchanged by a different local unitary on each member
    a = entries[:, 0] + 1j * entries[:, 1]
    m = a @ a.conj().swapaxes(-1, -2) + 1e-9 * np.eye(4)
    rho = m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    p, c = metrics.purity(rho), metrics.concurrence(rho)
    assert np.all((p >= 0.25 - 1e-12) & (p <= 1.0 + 1e-12))
    assert np.all((c >= 0.0) & (c <= 1.0 + 1e-9))
    u = np.array([np.kron(_su2(*e[0]), _su2(*e[1])) for e in euler])
    turned = u @ rho @ u.conj().swapaxes(-1, -2)
    assert np.max(np.abs(metrics.purity(turned) - p)) < 1e-12
    assert np.max(np.abs(metrics.concurrence(turned) - c)) < 1e-9
