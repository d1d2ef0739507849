"""The benchmark's references against brute-force dense matrices at a tiny
size, where every quantity can be computed exactly."""

import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import references as ref  # noqa: E402

PAULI = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
         "y": np.array([[0, -1j], [1j, 0]]),
         "z": np.diag([1.0 + 0j, -1.0])}


def random_hermitian(n, gen):
    a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_state(n, gen):
    psi = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("deltas", [(0.7,), (0.7, 0.3)])
def test_rmt_hamiltonian_elementwise(deltas):
    gen = np.random.default_rng(1)
    n_env, lam = 3, 0.4
    energies = np.sort(gen.standard_normal(n_env))
    v = random_hermitian(2 * n_env, gen)
    nq = len(deltas)
    dim = (1 << nq) * n_env
    h = np.zeros((dim, dim), dtype=complex)
    # basis (q_{n-1}, ..., q_0, e) in C order; qubit q has energy +-delta/2
    for a in range(dim):
        qa, ea = divmod(a, n_env)
        for b in range(dim):
            qb, eb = divmod(b, n_env)
            if qa == qb and ea == eb:
                h[a, b] += energies[ea] + sum(
                    d / 2 * (1 - 2 * ((qa >> q) & 1)) for q, d in enumerate(deltas))
            if qa >> 1 == qb >> 1:  # coupling acts on (q_0, e) only
                h[a, b] += lam * v[(qa & 1) * n_env + ea, (qb & 1) * n_env + eb]
    np.testing.assert_allclose(ref.rmt_hamiltonian(deltas, energies, lam, v), h,
                               atol=1e-14)


def test_expm_states_match_spectral_propagation():
    gen = np.random.default_rng(2)
    h = random_hermitian(12, gen)
    psi0 = random_state(12, gen)
    dt, steps = 0.37, 9
    e, q = np.linalg.eigh(h)
    want = np.array([q @ (np.exp(-1j * e * dt * k) * (q.conj().T @ psi0))
                     for k in range(steps + 1)])
    np.testing.assert_allclose(ref.expm_states(h, psi0, dt, steps), want,
                               atol=1e-12)


def site_operator(op, site, num_spins):
    """op on ``site`` (bit ``site`` of the index), identity elsewhere."""
    ops = [op if s == site else np.eye(2) for s in reversed(range(num_spins))]
    return reduce(np.kron, ops)


def dense_period(couplings, fields, axis):
    num_spins = len(fields)
    ising = sum(couplings[j, k] * site_operator(PAULI[axis], j, num_spins)
                @ site_operator(PAULI[axis], k, num_spins)
                for j in range(num_spins) for k in range(j + 1, num_spins))
    kicks = [site_operator(expm(-1j * sum(c * PAULI[a] for c, a in zip(b, "xyz"))),
                           site, num_spins) for site, b in enumerate(fields)]
    return reduce(lambda u, k: k @ u, kicks, expm(-1j * ising))


@pytest.mark.parametrize("axis", ["z", "x"])
def test_ki_period_matches_dense_kronecker_period(axis):
    gen = np.random.default_rng(3)
    num_spins = 4
    j = np.triu(gen.uniform(-1, 1, (num_spins, num_spins)), k=1)
    j = j + j.T
    fields = gen.uniform(-1.5, 1.5, (num_spins, 3))
    fields[2] = 0.0  # a site without a kick
    psi = random_state(1 << num_spins, gen)
    period = ref.KIPeriod(j, fields, axis)
    want = dense_period(j, fields, axis) @ psi
    np.testing.assert_allclose(period.apply(psi), want, atol=1e-12)


def test_reduced_purity_by_index_loops():
    gen = np.random.default_rng(4)
    num_spins, sites = 4, (1, 3)
    psi = random_state(1 << num_spins, gen)
    rho = np.zeros((4, 4), dtype=complex)
    for a in range(1 << num_spins):
        for b in range(1 << num_spins):
            rest = [s for s in range(num_spins) if s not in sites]
            if all((a >> s) & 1 == (b >> s) & 1 for s in rest):
                ia = sum(((a >> s) & 1) << i for i, s in enumerate(sites))
                ib = sum(((b >> s) & 1) << i for i, s in enumerate(sites))
                rho[ia, ib] += psi[a] * psi[b].conj()
    want = np.real(np.trace(rho @ rho))
    assert abs(ref.reduced_purity(psi, sites, num_spins) - want) < 1e-14
