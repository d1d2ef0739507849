"""State vectors, density matrices, and bitwise subsystem indexing.

States are plain complex arrays of length 2**L over an L-qubit register,
little-endian: basis index ``mu`` is the ket |i_{L-1} ... i_0> with qubit j
stored in bit j of ``mu``.  Subsystems are integer bitmasks over the kept
qubits.  Density matrices are plain complex square arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def rng(seed):
    """Counter-based generator; every stochastic routine takes one of these."""
    return np.random.Generator(np.random.Philox(seed))


def num_qubits_of(psi) -> int:
    n = len(psi)
    L = n.bit_length() - 1
    if 1 << L != n:
        raise ValueError(f"state length {n} is not a power of two")
    return L


def validate_mask(mask: int, num_qubits: int) -> None:
    if mask < 0 or mask >= (1 << num_qubits):
        raise ValueError(
            f"mask {mask:#x} has bits outside the {num_qubits}-qubit register"
        )


def split_index(mu: int, num_qubits: int, mask: int):
    """Pack the bits of ``mu`` selected by ``mask`` (order preserving) into
    one sub-index and the remaining bits into the complement index.

    The map mu <-> (i_kept, i_rest) is a bijection.
    """
    i_a, i_b = _subsystem_maps(num_qubits, mask)
    if not 0 <= mu < (1 << num_qubits):
        raise ValueError(f"index {mu} outside register of {num_qubits} qubits")
    return int(i_a[mu]), int(i_b[mu])


@lru_cache(maxsize=256)
def _subsystem_maps(num_qubits: int, mask: int):
    """Vectorized split_index: arrays i_a[mu], i_b[mu] for all mu."""
    validate_mask(mask, num_qubits)
    mu = np.arange(1 << num_qubits, dtype=np.int64)
    i_a = np.zeros_like(mu)
    i_b = np.zeros_like(mu)
    pos_a = pos_b = 0
    for j in range(num_qubits):
        bit = (mu >> j) & 1
        if (mask >> j) & 1:
            i_a |= bit << pos_a
            pos_a += 1
        else:
            i_b |= bit << pos_b
            pos_b += 1
    return i_a, i_b


@lru_cache(maxsize=256)
def _gather_order(num_qubits: int, mask: int):
    """Permutation g with psi[g].reshape(dA, dB)[i_a, i_b] == psi[mu]."""
    i_a, i_b = _subsystem_maps(num_qubits, mask)
    k = int(mask).bit_count()
    d_b = 1 << (num_qubits - k)
    flat = i_a * d_b + i_b
    order = np.empty_like(flat)
    order[flat] = np.arange(flat.shape[0], dtype=np.int64)
    return order


def subsystem_matrix(psi, mask: int):
    """Reshape ``psi`` into a (kept x rest) coefficient matrix.  A kept run
    of adjacent bits lo..lo+k-1 is read through a ``(rest above, kept, rest
    below)`` view, a copy-free one when the run is at the top or bottom of
    the register; other masks gather through a permutation index."""
    L = num_qubits_of(psi)
    mask = int(mask)
    validate_mask(mask, L)
    k = mask.bit_count()
    lo = (mask & -mask).bit_length() - 1
    if mask and (mask >> lo) == (1 << k) - 1:
        v = np.asarray(psi).reshape(-1, 1 << k, 1 << lo)
        return v.transpose(1, 0, 2).reshape(1 << k, -1)
    order = _gather_order(L, mask)
    return np.asarray(psi)[order].reshape(1 << k, 1 << (L - k))


def tensor_product(a, b, mask: int):
    """State over the full register with the ``a`` factor living on the
    masked qubits and ``b`` on the rest: out[mu] = a[i_a] * b[i_b]."""
    la, lb = num_qubits_of(a), num_qubits_of(b)
    L = la + lb
    validate_mask(mask, L)
    if int(mask).bit_count() != la:
        raise ValueError(
            f"mask selects {int(mask).bit_count()} qubits but first factor has {la}"
        )
    i_a, i_b = _subsystem_maps(L, int(mask))
    return np.asarray(a)[i_a] * np.asarray(b)[i_b]


def partial_trace(psi, keep: int):
    """Reduced density matrix of the kept qubits of a pure state.

    Works on the (kept x rest) coefficient matrix, never materializing the
    full projector.
    """
    m = subsystem_matrix(psi, keep)
    return m @ m.conj().T


def schmidt_decompose(psi, mask: int):
    """Schmidt coefficients (descending, sum of squares 1) and the paired
    orthonormal bases of the masked subsystem and its complement."""
    m = subsystem_matrix(psi, mask)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return s, u.T, vh


def random_state(dim: int, gen) -> np.ndarray:
    """Normalized vector of iid complex Gaussian coefficients."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    z = gen.standard_normal((2, dim))
    psi = z[0] + 1j * z[1]
    return psi / np.linalg.norm(psi)


def _check_range(name, value, lo, hi):
    if not lo - 1e-12 <= value <= hi + 1e-12:
        raise ValueError(f"{name}={value} outside [{lo}, {hi}]")


def two_qubit_pair(theta: float, phi: float) -> np.ndarray:
    """Two-qubit state with Schmidt angle theta and magnetization angle phi:

        cos(theta) (cos(phi)|0> + sin(phi)|1>) |0>
      + sin(theta) (sin(phi)|0> - cos(phi)|1>) |1>

    First factor is qubit 0 (bit 0), second qubit 1.  Concurrence sin(2 theta).
    """
    _check_range("theta", theta, 0.0, np.pi / 4)
    _check_range("phi", phi, 0.0, np.pi / 2)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    # index mu = (qubit0) + 2*(qubit1)
    return np.array([ct * cp, ct * sp, st * sp, -st * cp], dtype=complex)


def schmidt_pair(phi: float, eta: float):
    """Orthonormal qubit basis at magnetization angle phi with component
    phase eta = arg(first) - arg(second)."""
    a = np.array([np.cos(phi) * np.exp(1j * eta / 2),
                  np.sin(phi) * np.exp(-1j * eta / 2)])
    b = np.array([-np.sin(phi) * np.exp(1j * eta / 2),
                  np.cos(phi) * np.exp(-1j * eta / 2)])
    return a, b


def two_qubit_pair_general(theta: float, phi1: float, eta1: float,
                           phi2: float = 0.0, eta2: float = 0.0) -> np.ndarray:
    """Pair state cos(theta)|a0 b0> + sin(theta)|a1 b1> with Schmidt vectors
    of each qubit set by its (phi, eta); qubit 0 is the (phi1, eta1) one."""
    _check_range("theta", theta, 0.0, np.pi / 4)
    a0, a1 = schmidt_pair(phi1, eta1)
    b0, b1 = schmidt_pair(phi2, eta2)
    ct, st = np.cos(theta), np.sin(theta)
    psi = np.zeros(4, dtype=complex)
    for q0 in range(2):
        for q1 in range(2):
            psi[q0 + 2 * q1] = ct * a0[q0] * b0[q1] + st * a1[q0] * b1[q1]
    return psi


def ghz_state(n: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2); |+> for one qubit."""
    if n < 1:
        raise ValueError("GHZ needs at least 1 qubit")
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    return psi

