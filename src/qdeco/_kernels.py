"""Fused state-vector kernels for qubit registers.

Amplitude arrays are little-endian: basis index ``mu`` encodes the ket
|i_{L-1} ... i_1 i_0> with qubit ``j`` stored in bit ``j`` of ``mu``.  The
last axis holds the amplitudes; leading axes are a batch of states, which
act as extra high bits.

A diagonal operator is one complex vector multiplied in.  Single-site gates
are fused in runs of up to ``GROUP`` adjacent sites into one Kronecker
product each and applied as one matmul on a ``reshape(-1, 2^k, 2^lo)`` view
(gate fusion, as in Qulacs, Suzuki et al., Quantum 5, 559 (2021), and
Haener & Steiger, SC17, arXiv:1704.01127).  A real run above the lowest
site acts on the float64 view of the complex state, in which the real and
imaginary parts form one more lowest bit: a real GEMM of half the flops of
a complex one.
"""

from __future__ import annotations

import numpy as np

GROUP = 4
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def ising_phase(couplings, site_terms=None) -> np.ndarray:
    """Diagonal of exp(-i E), E = sum_{j<k} J_jk s_j s_k + sum_j t_j s_j,
    from the symmetric coupling matrix J and optional per-site ``t_j``
    (s = +1 for bit 0).  E is built one bit at a time: appending bit j maps
    E to [E + h_j, E - h_j] with h_j = t_j + sum_{k<j} J_jk s_k."""
    lower = np.tril(couplings, -1)
    num_qubits = len(lower)
    t = np.zeros(num_qubits) if site_terms is None else site_terms
    energy = np.empty(1 << num_qubits)
    energy[0] = 0.0
    for j in range(num_qubits):
        m = 1 << j
        h = np.full(m, float(t[j]))
        for k in np.flatnonzero(lower[j, :j]):
            by_bit = h.reshape(-1, 2, 1 << k)  # (bits above k, s_k, bits below)
            by_bit[:, 0] += lower[j, k]
            by_bit[:, 1] -= lower[j, k]
        np.subtract(energy[:m], h, out=energy[m:2 * m])
        energy[:m] += h
    return np.exp(-1j * energy)


def fuse(gates, size: int = GROUP):
    """Fuse one-site 2x2 gates (``None`` is the identity), site ``j`` first,
    into ``(lo, k, matrix)`` runs over sites lo..lo+k-1; ``matrix`` is the
    Kronecker product with site ``lo`` in its lowest bit, real when every
    gate of the run is.  Runs of identities are dropped."""
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
    same-shaped ``spare`` buffer (both C-contiguous).  Returns ``(result,
    spare)``; either may be the caller's ``psi``."""
    for lo, k, m in groups:
        if lo == 0:  # one GEMM over (rest x run)
            np.matmul(psi.reshape(-1, 1 << k), m.T, out=spare.reshape(-1, 1 << k))
        elif np.iscomplexobj(m):
            view = psi.reshape(-1, 1 << k, 1 << lo)
            np.matmul(m, view, out=spare.reshape(view.shape))
        else:  # (rest above, run, rest below x re/im) on the float64 view
            view = psi.view(np.float64).reshape(-1, 1 << k, 2 << lo)
            np.matmul(m, view, out=spare.view(np.float64).reshape(view.shape))
        psi, spare = spare, psi
    return psi, spare
