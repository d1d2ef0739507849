"""State vectors, density matrices, and qubit subsystems.

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


@lru_cache
def _axes(num_qubits: int, mask: int) -> tuple[int, ...]:
    """Axes of a state's ``(2,)*L`` view, whose axis a holds qubit L-1-a:
    the masked qubits first, then the rest, each from the highest bit down.
    Cached: a trajectory reduces with one mask at every recorded step."""
    return tuple(sorted(range(num_qubits),
                        key=lambda a: not mask >> (num_qubits - 1 - a) & 1))


def subsystem_matrix(psi, mask: int):
    """(kept x rest) coefficient matrix: entry [i_a, i_b] is the amplitude
    whose masked bits, in order, spell i_a and whose other bits spell i_b.
    A view where numpy can give one, as for a run at the top or bottom."""
    L = num_qubits_of(psi)
    mask = int(mask)
    validate_mask(mask, L)
    v = np.asarray(psi).reshape((2,) * L).transpose(_axes(L, mask))
    return v.reshape(1 << mask.bit_count(), -1)


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
    out = np.multiply.outer(np.asarray(a), np.asarray(b)).reshape((2,) * L)
    return out.transpose(np.argsort(_axes(L, int(mask)))).ravel()


def partial_trace(psi, keep: int):
    """Reduced density matrix of the kept qubits of a pure state.

    Works on the (kept x rest) coefficient matrix m, never materializing the
    full projector.  A GEMM's m m^dagger need not be exactly Hermitian; its
    mean with its conjugate transpose is, since floating-point addition
    commutes.
    """
    m = subsystem_matrix(psi, keep)
    rho = m @ m.conj().T
    return 0.5 * (rho + rho.conj().T)


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

