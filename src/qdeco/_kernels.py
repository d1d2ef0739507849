"""Fused state-vector kernels for qubit registers.

Amplitude arrays are little-endian: basis index ``mu`` encodes the ket
|i_{L-1} ... i_1 i_0> with qubit ``j`` stored in bit ``j`` of ``mu``.  The
last axis holds the amplitudes; leading axes are a batch of states, which
act as extra high bits.

A diagonal operator is one complex vector multiplied in.  Single-site gates
are fused in runs of up to ``GROUP`` adjacent sites into one Kronecker
product each and applied as one matmul on a ``reshape(-1, 2^k, 2^lo)`` view
(gate fusion, as in Qulacs, Suzuki et al., Quantum 5, 559 (2021), and
Haener & Steiger, SC17, arXiv:1704.01127).
"""

from __future__ import annotations

import numpy as np

GROUP = 4
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def pair_signs(num_qubits: int, j: int, k: int) -> np.ndarray:
    """s_j s_k over the basis: +1 where bits j and k agree, -1 where they
    differ (s = +1 for bit 0)."""
    mu = np.arange(1 << num_qubits)
    return 1.0 - 2.0 * (((mu >> j) ^ (mu >> k)) & 1)


def ising_phase(num_qubits: int, pairs) -> np.ndarray:
    """Diagonal of exp(-i sum_{j<k} J_jk s_j s_k), accumulated pair by pair
    from ``(j, k, J_jk)`` triples."""
    energy = np.zeros(1 << num_qubits)
    for j, k, strength in pairs:
        energy += strength * pair_signs(num_qubits, j, k)
    return np.exp(-1j * energy)


def fuse(gates, size: int = GROUP):
    """Fuse one-site 2x2 gates (``None`` is the identity), site ``j`` first,
    into ``(lo, k, matrix)`` runs over sites lo..lo+k-1; ``matrix`` is the
    Kronecker product with site ``lo`` in its lowest bit.  Runs of identities
    are dropped."""
    groups = []
    for lo in range(0, len(gates), size):
        run = gates[lo:lo + size]
        if all(g is None for g in run):
            continue
        m = np.eye(1)
        for g in run:
            m = np.kron(np.eye(2) if g is None else g, m)
        groups.append((lo, len(run), m))
    return groups


def apply_groups(groups, psi, spare):
    """Apply fused runs in order, alternating between ``psi`` and the
    same-shaped ``spare`` buffer.  Returns ``(result, spare)``; either may
    be the caller's ``psi``."""
    for lo, k, m in groups:
        if lo == 0:  # one GEMM over (rest x run)
            np.matmul(psi.reshape(-1, 1 << k), m.T, out=spare.reshape(-1, 1 << k))
        else:
            view = psi.reshape(-1, 1 << k, 1 << lo)
            np.matmul(m, view, out=spare.reshape(view.shape))
        psi, spare = spare, psi
    return psi, spare
