import numpy as np
import pytest

import qdeco
from qdeco import metrics, qstate


def test_split_index_worked_example():
    # 7-qubit register, kept-qubit mask 0b0101001: bits of 55 split to (5, 7)
    assert qstate.split_index(55, 7, 41) == (5, 7)


def test_split_index_zero_and_all_ones():
    for L, mask in ((3, 0b101), (6, 0b011011), (9, 0b100000001)):
        assert qstate.split_index(0, L, mask) == (0, 0)
        k = mask.bit_count()
        assert qstate.split_index((1 << L) - 1, L, mask) == (
            (1 << k) - 1, (1 << (L - k)) - 1)


def test_split_index_bijection_exhaustive():
    for L, mask in ((4, 0b0110), (7, 41), (16, 0b1010101010101010)):
        i_a, i_b = qstate._subsystem_maps(L, mask)
        k = mask.bit_count()
        flat = i_a * (1 << (L - k)) + i_b
        assert np.array_equal(np.sort(flat), np.arange(1 << L))
        # the scalar path agrees with the maps
        rng = np.random.default_rng(0)
        for mu in rng.integers(0, 1 << L, 20):
            assert qstate.split_index(int(mu), L, mask) == (i_a[mu], i_b[mu])


def test_split_index_invalid_mask():
    with pytest.raises(ValueError):
        qstate.split_index(0, 3, 0b1000)


def test_tensor_product_basics():
    zero = np.array([1, 0], dtype=complex)
    out = qstate.tensor_product(zero, zero, 0b01)
    assert np.allclose(out, [1, 0, 0, 0])


def test_tensor_product_mask_is_permutation_of_kron():
    g = qdeco.rng(3)
    a = qstate.random_state(4, g)
    b = qstate.random_state(8, g)
    plain = np.kron(b, a)  # a on low bits
    masked = qstate.tensor_product(a, b, 0b00011)
    assert np.allclose(masked, plain, atol=1e-14)
    # any mask preserves every amplitude product, hence all reductions
    shuffled = qstate.tensor_product(a, b, 0b10100)
    assert np.allclose(np.sort(np.abs(shuffled)), np.sort(np.abs(plain)))


def test_tensor_product_norm_product():
    g = qdeco.rng(11)
    for _ in range(100):
        a = g.standard_normal(4) + 1j * g.standard_normal(4)
        b = g.standard_normal(8) + 1j * g.standard_normal(8)
        out = qstate.tensor_product(a, b, 0b00101)
        assert np.isclose(np.linalg.norm(out),
                          np.linalg.norm(a) * np.linalg.norm(b))


def test_tensor_product_dimension_mismatch():
    with pytest.raises(ValueError):
        qstate.tensor_product(np.ones(4), np.ones(4), 0b0001)


def test_partial_trace_bell():
    rho = qstate.partial_trace(qstate.ghz_state(2), 0b01)
    assert np.allclose(rho, np.eye(2) / 2)


def test_partial_trace_product_state():
    g = qdeco.rng(5)
    a = qstate.random_state(2, g)
    b = qstate.random_state(16, g)
    psi = qstate.tensor_product(a, b, 0b00001)
    rho = qstate.partial_trace(psi, 0b00001)
    assert np.allclose(rho, np.outer(a, a.conj()), atol=1e-12)
    assert np.isclose(metrics.purity(rho), 1.0)


def test_partial_trace_vs_dense_projector():
    # 8 qubits, keep 2: against the 256x256 projector traced index by index
    g = qdeco.rng(7)
    psi = qstate.random_state(256, g)
    keep = 0b00100100
    rho = qstate.partial_trace(psi, keep)
    proj = np.outer(psi, psi.conj())
    i_a, i_b = qstate._subsystem_maps(8, keep)
    dense = np.zeros((4, 4), dtype=complex)
    for mu in range(256):
        for nu in range(256):
            if i_b[mu] == i_b[nu]:
                dense[i_a[mu], i_a[nu]] += proj[mu, nu]
    assert np.max(np.abs(rho - dense)) < 1e-10


def test_partial_trace_contiguous_runs_match_gather():
    # every run of adjacent bits at 6 qubits is read through a reshaped view;
    # compare with the gathered (kept x rest) matrix, plus a non-run mask
    g = qdeco.rng(17)
    psi = qstate.random_state(64, g)
    runs = [((1 << k) - 1) << lo for k in range(1, 7) for lo in range(7 - k)]
    for mask in runs + [0b100101]:
        k = mask.bit_count()
        m = psi[qstate._gather_order(6, mask)].reshape(1 << k, -1)
        assert np.array_equal(qstate.subsystem_matrix(psi, mask), m)
        rho = qstate.partial_trace(psi, mask)
        assert np.max(np.abs(rho - m @ m.conj().T)) < 1e-15


def test_both_reductions_share_purity():
    g = qdeco.rng(13)
    for mask in (0b000111, 0b101010, 0b000001):
        psi = qstate.random_state(64, g)
        pa = metrics.purity(qstate.partial_trace(psi, mask))
        pb = metrics.purity(qstate.partial_trace(psi, 0b111111 ^ mask))
        assert abs(pa - pb) < 1e-12


def test_schmidt_bell_and_product():
    s, _, _ = qstate.schmidt_decompose(qstate.ghz_state(2), 0b01)
    assert np.allclose(s, [1 / np.sqrt(2)] * 2)
    g = qdeco.rng(1)
    a, b = qstate.random_state(2, g), qstate.random_state(4, g)
    s, _, _ = qstate.schmidt_decompose(qstate.tensor_product(a, b, 0b001), 0b001)
    assert np.allclose(s, [1, 0], atol=1e-12)


def test_schmidt_angle_state():
    th = 0.3
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = np.cos(th), np.sin(th)
    s, _, _ = qstate.schmidt_decompose(psi, 0b01)
    assert np.allclose(s, [np.cos(th), np.sin(th)], atol=1e-12)


def test_schmidt_matches_partial_trace_eigenvalues():
    g = qdeco.rng(23)
    psi = qstate.random_state(64, g)
    mask = 0b001011
    s, _, _ = qstate.schmidt_decompose(psi, mask)
    ev = np.sort(np.linalg.eigvalsh(qstate.partial_trace(psi, mask)))[::-1]
    assert np.allclose(s**2, ev[: len(s)], atol=1e-12)
    assert np.isclose(np.sum(s**2), 1.0)


def test_schmidt_reconstructs_state():
    g = qdeco.rng(29)
    psi = qstate.random_state(32, g)
    mask = 0b00110
    s, basis_a, basis_b = qstate.schmidt_decompose(psi, mask)
    m = qstate.subsystem_matrix(psi, mask)
    rebuilt = sum(s[i] * np.outer(basis_a[i], basis_b[i]) for i in range(len(s)))
    assert np.max(np.abs(rebuilt - m)) < 1e-12


def test_random_state_norm_and_determinism():
    psi1 = qstate.random_state(16, qdeco.rng(42))
    psi2 = qstate.random_state(16, qdeco.rng(42))
    assert np.array_equal(psi1, psi2)
    assert abs(np.linalg.norm(psi1) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        qstate.random_state(0, qdeco.rng(1))


def test_random_state_component_mean():
    # |c_0|^2 of a uniform state is Beta(1, dim-1): mean 1/8, var 7/576 at dim 8
    g = qdeco.rng(6)
    n = 10**4
    vals = np.array([abs(qstate.random_state(8, g)[0]) ** 2 for _ in range(n)])
    sigma = np.sqrt(7.0 / 576.0 / n)
    assert abs(vals.mean() - 1.0 / 8.0) < 3 * sigma


def test_canonical_bell_concurrence():
    psi = qstate.two_qubit_pair(np.pi / 4, np.pi / 4)
    assert abs(metrics.concurrence_pure(psi) - 1.0) < 1e-12


def test_ghz_reduced_purity():
    psi = qstate.ghz_state(3)
    for j in range(3):
        p = metrics.purity(qstate.partial_trace(psi, 1 << j))
        assert abs(p - 0.5) < 1e-12


def test_pair_general_reduction_matches_density():
    from qdeco.linear_response import InitParams, initial_qubit_density
    params = InitParams(theta=0.31, phi=0.52, eta=0.83)
    psi = qstate.two_qubit_pair_general(0.31, 0.52, 0.83, 0.2, -0.4)
    rho0 = qstate.partial_trace(psi, 0b01)
    assert np.max(np.abs(rho0 - initial_qubit_density(params))) < 1e-12


def test_canonical_state_dispatch_and_ranges():
    with pytest.raises(ValueError):
        qstate.two_qubit_pair(1.0, 0.0)  # theta beyond pi/4
