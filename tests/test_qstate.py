import numpy as np
import pytest

import qdeco
from qdeco import metrics, qstate


def split_bits(mu, num_qubits, mask):
    """Reference index split, bit by bit: the masked bits of ``mu`` packed in
    order into i_a, the others into i_b."""
    i_a = i_b = pos_a = pos_b = 0
    for j in range(num_qubits):
        bit = (mu >> j) & 1
        if (mask >> j) & 1:
            i_a |= bit << pos_a
            pos_a += 1
        else:
            i_b |= bit << pos_b
            pos_b += 1
    return i_a, i_b


def basis_state(mu, num_qubits):
    psi = np.zeros(1 << num_qubits, dtype=complex)
    psi[mu] = 1.0
    return psi


def test_split_index_worked_example():
    # 7-qubit register, kept-qubit mask 0b0101001: bits of 55 split to (5, 7)
    m = qstate.subsystem_matrix(basis_state(55, 7), 41)
    assert m.shape == (8, 16)
    assert list(zip(*np.nonzero(m))) == [(5, 7)]


def test_split_index_zero_and_all_ones():
    for L, mask in ((3, 0b101), (6, 0b011011), (9, 0b100000001)):
        k = mask.bit_count()
        assert qstate.subsystem_matrix(basis_state(0, L), mask)[0, 0] == 1
        top = qstate.subsystem_matrix(basis_state((1 << L) - 1, L), mask)
        assert top[(1 << k) - 1, (1 << (L - k)) - 1] == 1


def test_split_index_bijection_exhaustive():
    # subsystem_matrix of the index vector holds mu at its split (i_a, i_b);
    # tensor_product of two indicator factors puts their one at mu
    for L, mask in ((4, 0b0110), (7, 41), (16, 0b1010101010101010)):
        k = mask.bit_count()
        m = qstate.subsystem_matrix(np.arange(1 << L), mask)
        assert np.array_equal(np.sort(m.ravel()), np.arange(1 << L))
        rng = np.random.default_rng(0)
        for mu in rng.integers(0, 1 << L, 20):
            i_a, i_b = split_bits(int(mu), L, mask)
            assert m[i_a, i_b] == mu
            out = qstate.tensor_product(basis_state(i_a, k),
                                        basis_state(i_b, L - k), mask)
            assert np.array_equal(out, basis_state(int(mu), L))


def test_split_index_invalid_mask():
    with pytest.raises(ValueError):
        qstate.subsystem_matrix(np.ones(8), 0b1000)


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
    split = [split_bits(mu, 8, keep) for mu in range(256)]
    dense = np.zeros((4, 4), dtype=complex)
    for mu, (a_mu, b_mu) in enumerate(split):
        for nu, (a_nu, b_nu) in enumerate(split):
            if b_mu == b_nu:
                dense[a_mu, a_nu] += proj[mu, nu]
    assert np.max(np.abs(rho - dense)) < 1e-10


def test_partial_trace_contiguous_runs_match_gather():
    # every run of adjacent bits at 6 qubits, plus a non-run mask: compare
    # with the (kept x rest) matrix gathered amplitude by amplitude
    g = qdeco.rng(17)
    psi = qstate.random_state(64, g)
    runs = [((1 << k) - 1) << lo for k in range(1, 7) for lo in range(7 - k)]
    for mask in runs + [0b100101]:
        k = mask.bit_count()
        m = np.empty((1 << k, 1 << (6 - k)), dtype=complex)
        for mu in range(64):
            m[split_bits(mu, 6, mask)] = psi[mu]
        assert np.array_equal(qstate.subsystem_matrix(psi, mask), m)
        rho = qstate.partial_trace(psi, mask)
        assert np.max(np.abs(rho - m @ m.conj().T)) < 1e-15


def test_partial_trace_large_blocks_exactly_hermitian():
    # large kept blocks, where a GEMM's m m^dagger need not be Hermitian bit
    # for bit: the top run (a C-ordered block), the bottom run (F-ordered), a
    # middle run and a gathered mask, each against m m^dagger and exactly
    # Hermitian
    g = qdeco.rng(19)
    psi = qstate.random_state(1 << 16, g)
    for mask in (0xF000, 0x000F, 0x03C0, 0x8421, 0x0003, 0xC000):
        m = qstate.subsystem_matrix(psi, mask)
        assert m.size >= 1 << 15
        rho = qstate.partial_trace(psi, mask)
        assert np.max(np.abs(rho - m @ m.conj().T)) < 1e-15
        assert np.array_equal(rho, rho.conj().T)


def test_both_reductions_share_purity():
    g = qdeco.rng(13)
    for mask in (0b000111, 0b101010, 0b000001):
        psi = qstate.random_state(64, g)
        pa = metrics.purity(qstate.partial_trace(psi, mask))
        pb = metrics.purity(qstate.partial_trace(psi, 0b111111 ^ mask))
        assert abs(pa - pb) < 1e-12


def schmidt_coefficients(psi, mask):
    return np.linalg.svd(qstate.subsystem_matrix(psi, mask), compute_uv=False)


def test_schmidt_bell_and_product():
    s = schmidt_coefficients(qstate.ghz_state(2), 0b01)
    assert np.allclose(s, [1 / np.sqrt(2)] * 2)
    g = qdeco.rng(1)
    a, b = qstate.random_state(2, g), qstate.random_state(4, g)
    s = schmidt_coefficients(qstate.tensor_product(a, b, 0b001), 0b001)
    assert np.allclose(s, [1, 0], atol=1e-12)


def test_schmidt_angle_state():
    th = 0.3
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = np.cos(th), np.sin(th)
    s = schmidt_coefficients(psi, 0b01)
    assert np.allclose(s, [np.cos(th), np.sin(th)], atol=1e-12)


def test_schmidt_matches_partial_trace_eigenvalues():
    g = qdeco.rng(23)
    psi = qstate.random_state(64, g)
    mask = 0b001011
    s = schmidt_coefficients(psi, mask)
    ev = np.sort(np.linalg.eigvalsh(qstate.partial_trace(psi, mask)))[::-1]
    assert np.allclose(s**2, ev[: len(s)], atol=1e-12)
    assert np.isclose(np.sum(s**2), 1.0)


def test_schmidt_reconstructs_state():
    # the Schmidt terms, put back in place by tensor_product, rebuild the
    # state: the two halves of the subsystem path invert each other
    g = qdeco.rng(29)
    psi = qstate.random_state(32, g)
    mask = 0b00110
    u, s, vh = np.linalg.svd(qstate.subsystem_matrix(psi, mask),
                             full_matrices=False)
    rebuilt = sum(s[i] * qstate.tensor_product(u[:, i], vh[i], mask)
                  for i in range(len(s)))
    assert np.max(np.abs(rebuilt - psi)) < 1e-12


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
    psi = qstate.two_qubit_pair_general(np.pi / 4, np.pi / 4, 0.0)
    assert abs(metrics.concurrence(np.outer(psi, psi.conj())) - 1.0) < 1e-12


def test_ghz_reduced_purity():
    psi = qstate.ghz_state(3)
    for j in range(3):
        p = metrics.purity(qstate.partial_trace(psi, 1 << j))
        assert abs(p - 0.5) < 1e-12


def test_pair_general_reduction_matches_density():
    # qubit 0's reduced state: Schmidt weights (cos^2 theta, sin^2 theta) on
    # the orthonormal pair set by its (phi, eta)
    psi = qstate.two_qubit_pair_general(0.31, 0.52, 0.83, 0.2, -0.4)
    rho0 = qstate.partial_trace(psi, 0b01)
    a, b = qstate.schmidt_pair(0.52, 0.83)
    want = (np.cos(0.31) ** 2 * np.outer(a, a.conj())
            + np.sin(0.31) ** 2 * np.outer(b, b.conj()))
    assert np.max(np.abs(rho0 - want)) < 1e-12


def test_canonical_state_dispatch_and_ranges():
    with pytest.raises(ValueError):
        qstate.two_qubit_pair_general(1.0, 0.0, 0.0)  # theta beyond pi/4
