"""Reference computations made apart from the program's engines.

Both references take plain arrays, so they can be checked at a tiny size
against brute-force dense matrices (``bench/tests``) and then trusted at the
benchmark's size.

* Random-matrix models: the dense Hamiltonian of one ensemble member,
  assembled with ``np.kron`` on the documented axis order
  (q_{n-1}, ..., q_0, env) in C order, and propagated with
  ``scipy.linalg.expm``.
* Kicked Ising rings: one period as the Ising phase ``exp(-i sum J_jk s_j s_k)``,
  a diagonal built from bit arrays (between Hadamard layers for the x axis),
  followed by one 2x2 kick contraction per site on a reshaped axis.
  Site j is bit j of the basis index (little-endian).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# ---------------------------------------------------------------------------
# random-matrix models: one- and two-qubit centers against one bath
# ---------------------------------------------------------------------------

def rmt_hamiltonian(deltas, env_energies, coupling, v) -> np.ndarray:
    """Dense H for qubits with splittings ``deltas`` (qubit 0 first, qubit 0
    coupled) and one bath with spectrum ``env_energies``, coupled by
    ``coupling * v`` with ``v`` acting on (qubit 0, bath) in that order.

    Qubit j has energies +delta_j/2 on |0> and -delta_j/2 on |1>."""
    n_env = len(env_energies)
    eye_env = np.eye(n_env)
    h_q0 = np.diag([deltas[0] / 2.0, -deltas[0] / 2.0])
    # coupled qubit and bath: axes (q0, env)
    h = (np.kron(h_q0, eye_env) + np.kron(np.eye(2), np.diag(env_energies))
         + coupling * np.asarray(v, dtype=complex))
    for delta in deltas[1:]:  # each further qubit is a spectator, prepended
        h = (np.kron(np.diag([delta / 2.0, -delta / 2.0]), np.eye(h.shape[0]))
             + np.kron(np.eye(2), h))
    return h.astype(complex)


def expm_states(h, psi0, dt: float, steps: int) -> np.ndarray:
    """States at t = 0, dt, ..., steps*dt from one ``expm`` of the step."""
    u = expm(-1j * dt * h)
    out = np.empty((steps + 1, len(psi0)), dtype=complex)
    out[0] = psi0
    for k in range(steps):
        out[k + 1] = u @ out[k]
    return out


# ---------------------------------------------------------------------------
# kicked Ising periods
# ---------------------------------------------------------------------------

def _spins(num_spins: int) -> np.ndarray:
    """s[j, mu] = +1 where bit j of mu is 0, -1 where it is 1."""
    mu = np.arange(1 << num_spins)
    bits = (mu[None, :] >> np.arange(num_spins)[:, None]) & 1
    return 1 - 2 * bits


def ising_phase(couplings) -> np.ndarray:
    """Diagonal of exp(-i sum_{j<k} J_jk s_j s_k) over the basis."""
    j = np.triu(np.asarray(couplings, dtype=float), k=1)
    s = _spins(j.shape[0]).astype(float)
    energy = np.einsum("jk,jm,km->m", j, s, s)
    return np.exp(-1j * energy)


def kick_unitary(b) -> np.ndarray:
    """exp(-i b.sigma) from the Pauli matrices."""
    b = np.asarray(b, dtype=float)
    r = float(np.linalg.norm(b))
    if r == 0.0:
        return np.eye(2, dtype=complex)
    n_sigma = sum(c / r * _PAULI[a] for c, a in zip(b, "xyz"))
    return np.cos(r) * np.eye(2) - 1j * np.sin(r) * n_sigma


def _apply_site(psi, site: int, u) -> np.ndarray:
    """Contract a 2x2 unitary into the axis of ``site`` (axis L-1-site)."""
    num_spins = psi.ndim
    axis = num_spins - 1 - site
    return np.moveaxis(np.tensordot(u, psi, axes=([1], [axis])), 0, axis)


def _hadamard_layer(psi) -> np.ndarray:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    for site in range(psi.ndim):
        psi = _apply_site(psi, site, h)
    return psi


class KIPeriod:
    """One kicked-Ising period: Ising phase along ``axis``, then all kicks."""

    def __init__(self, couplings, fields, axis: str):
        self.num_spins = len(fields)
        self.phase = ising_phase(couplings)
        self.kicks = [kick_unitary(b) for b in fields]
        self.axis = axis

    def apply(self, psi) -> np.ndarray:
        shape = (2,) * self.num_spins
        t = np.asarray(psi, dtype=complex).reshape(shape)
        if self.axis == "z":
            t = (self.phase * t.ravel()).reshape(shape)
        else:  # X_j X_k = H Z_j Z_k H on every site
            t = _hadamard_layer(t)
            t = (self.phase * t.ravel()).reshape(shape)
            t = _hadamard_layer(t)
        for site, u in enumerate(self.kicks):
            t = _apply_site(t, site, u)
        return t.ravel()


def reduced_purity(psi, sites, num_spins: int) -> float:
    """Purity of the reduced state of ``sites``, by reshaping axes."""
    t = np.asarray(psi).reshape((2,) * num_spins)
    keep = [num_spins - 1 - s for s in sites]
    rest = [a for a in range(num_spins) if a not in keep]
    m = t.transpose(keep + rest).reshape(1 << len(keep), -1)
    rho = m @ m.conj().T
    return float(np.real(np.trace(rho @ rho)))
