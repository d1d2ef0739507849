import ctypes
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import qdeco
from qdeco import metrics, qstate
from qdeco import linear_response as lr
from qdeco import rmt_models as rm
from qdeco.errors import ConfigError, ResourceLimitError
from qdeco.rmt import EnsembleSpec, sample_matrix, unfold
from qdeco.trajectory import average


def small_spec(**kw):
    base = dict(configuration="spectator", n_env=8, ensemble="GUE",
                coupling=0.1, delta=(0.5, 0.0))
    base.update(kw)
    return rm.ModelSpec(**base)


def run_trajectory(spec, params, times, gen):
    """One realization, one initial condition: the unbatched reference that
    ``monte_carlo`` must reproduce."""
    prop = rm.Propagator(spec, gen)
    psi0 = rm.initial_state(spec, rm.central_state(spec, params), gen)
    return rm._measure(rm.reduce_central(spec, prop.states(psi0, times)), times)


def test_spec_validation():
    with pytest.raises(ConfigError):
        rm.ModelSpec("nowhere", 8)
    with pytest.raises(ResourceLimitError):
        rm.ModelSpec("one-qubit", 4096)
    with pytest.raises(ResourceLimitError):
        rm.ModelSpec("n-qubit", 512, n_qubits=8)
    with pytest.raises(ConfigError):
        rm.ModelSpec("spectator", 8, coupling=(0.1, 0.2))
    spec = rm.ModelSpec("separate", (8, 4), coupling=(0.1, 0.2))
    assert spec.env_dims == (8, 4)
    assert spec.total_dim == 4 * 32


def test_decoupled_spectrum_is_sum():
    spec = small_spec(coupling=0.0, delta=(0.7, 0.0), n_env=6)
    h, info = rm.build_hamiltonian(spec, qdeco.rng(1))
    got = np.sort(np.linalg.eigvalsh(h))
    env = info["env_energies"][0]
    expect = np.sort(np.concatenate([
        env + 0.35, env - 0.35, env + 0.35, env - 0.35]))
    # spectator qubit has no splitting: each branch appears twice
    assert np.allclose(got, expect, atol=1e-12)


def test_hamiltonian_hermitian():
    for cfg in ("one-qubit", "spectator", "joint"):
        spec = rm.ModelSpec(cfg, 6, "GOE", 0.3 if cfg != "joint" else (0.3, 0.2),
                            0.4 if cfg == "one-qubit" else (0.4, 0.1))
        h, _ = rm.build_hamiltonian(spec, qdeco.rng(2))
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_spectator_partial_trace_is_doubled_one_qubit():
    # tracing the spectator qubit out of the coupled-system Hamiltonian
    # leaves twice the one-qubit assembly built from the same draws
    seed = 5
    spec2 = rm.ModelSpec("spectator", 8, "GUE", 0.2, (0.7, 0.0))
    spec1 = rm.ModelSpec("one-qubit", 8, "GUE", 0.2, 0.7)
    h2, _ = rm.build_hamiltonian(spec2, qdeco.rng(seed))
    h1, _ = rm.build_hamiltonian(spec1, qdeco.rng(seed))
    traced = h2.reshape(2, 16, 2, 16)
    traced = traced[0, :, 0, :] + traced[1, :, 1, :]
    assert np.max(np.abs(traced - 2 * h1)) < 1e-12


def test_evolve_basics():
    spec = small_spec()
    h, _ = rm.build_hamiltonian(spec, qdeco.rng(3))
    psi0 = rm.initial_state(spec, rm.central_state(
        spec, lr.InitParams(theta=0.3, phi=0.2)), qdeco.rng(4))
    times = np.array([0.0, 0.5, 1.5])
    states = rm.evolve(h, psi0, times)
    assert np.max(np.abs(states[0] - psi0)) < 1e-12
    for s in states:
        assert abs(np.linalg.norm(s) - 1.0) < 1e-10
    energies = [np.real(s.conj() @ h @ s) for s in states]
    assert np.max(np.abs(np.diff(energies))) < 1e-9
    with pytest.raises(ValueError):
        rm.evolve(h + 1j * np.eye(len(h)), psi0, times)


def test_evolve_eigenvector_stays_put():
    spec = small_spec()
    h, _ = rm.build_hamiltonian(spec, qdeco.rng(6))
    evals, evecs = np.linalg.eigh(h)
    states = rm.evolve(h, evecs[:, 3], np.array([0.0, 0.9, 2.7]))
    for t, s in zip((0.0, 0.9, 2.7), states):
        phase = np.exp(-1j * evals[3] * t)
        assert np.max(np.abs(s - phase * evecs[:, 3])) < 1e-10
    # purity of any reduction constant (it is an eigenstate)
    ps = [metrics.purity(rm.reduce_central(spec, s)) for s in states]
    assert np.max(np.abs(np.diff(ps))) < 1e-10


@pytest.mark.parametrize("cfg_kw", [
    dict(configuration="one-qubit", n_env=9, coupling=0.17, delta=0.6),
    dict(configuration="spectator", n_env=9, coupling=0.17, delta=(0.6, 1.1)),
    dict(configuration="separate", n_env=(5, 7), coupling=(0.2, 0.1),
         delta=(0.5, 0.9)),
    dict(configuration="joint", n_env=7, coupling=(0.2, 0.1), delta=(0.5, 0.9)),
    dict(configuration="n-qubit", n_env=5, n_qubits=3, coupling=0.15,
         delta=(0.0, 0.0, 0.0)),
    # blocks above LAPACK's divide-and-conquer cutoff (25 rows), where evd
    # takes a different route from evr
    dict(configuration="one-qubit", n_env=40, coupling=0.3, delta=0.6),
    dict(configuration="spectator", n_env=36, coupling=0.3, delta=(0.6, 1.1)),
    dict(configuration="separate", n_env=(14, 16), coupling=(0.3, 0.2),
         delta=(0.5, 0.9)),
])
def test_propagator_matches_dense_evolution(cfg_kw):
    # the spectator case has a nonzero spectator splitting: a phase-only axis
    for ensemble in ("GOE", "GUE"):
        spec = rm.ModelSpec(ensemble=ensemble, **cfg_kw)
        prop = rm.Propagator(spec, qdeco.rng(11))
        h, _ = rm.build_hamiltonian(spec, qdeco.rng(11))
        g = qdeco.rng(12)
        psi0s = np.array([rm.initial_state(spec, qstate.random_state(
            1 << spec.num_qubits, g), g) for _ in range(3)])
        times = np.linspace(0.0, 6.0, 41)
        got = prop.states(psi0s, times)
        want = np.stack([rm.evolve(h, psi0, times) for psi0 in psi0s], axis=1)
        assert got.shape == (41, 3, spec.total_dim)
        assert np.max(np.abs(got - want)) < 1e-11, ensemble
        singles = np.stack([prop.states(psi0, times) for psi0 in psi0s], axis=1)
        assert np.max(np.abs(got - singles)) < 1e-14, ensemble
        # GOE couplings and eigenbases stay real
        _, couplings = rm.draw_realization(spec, qdeco.rng(11))
        real = ensemble == "GOE"
        assert all(np.isrealobj(v) == real for v in couplings)
        assert all(np.isrealobj(block.q) == real for block in prop.blocks)


@pytest.mark.parametrize("ensemble", ["GOE", "GUE"])
@pytest.mark.parametrize("cfg_kw", [
    dict(configuration="one-qubit", n_env=9, coupling=0.17, delta=0.6),
    dict(configuration="spectator", n_env=9, coupling=0.17, delta=(0.6, 1.1)),
    dict(configuration="separate", n_env=(5, 7), coupling=(0.2, 0.1),
         delta=(0.5, 0.9)),
])
def test_block_equals_kron_construction(monkeypatch, cfg_kw, ensemble):
    # each block, built inside its drawn coupling, is entry for entry the sum
    # delta_q (x) 1 + 1 (x) E_env + lambda V of the same draws, and its
    # eigenpairs, computed inside the block, equal bit for bit those of the
    # copying calls on that sum
    spec = rm.ModelSpec(ensemble=ensemble, **cfg_kw)
    got = []

    class Recording(rm._Block):
        def __init__(self, matrix, axes):
            got.append(matrix.copy())
            super().__init__(matrix, axes)

    monkeypatch.setattr(rm, "_Block", Recording)
    prop = rm.Propagator(spec, qdeco.rng(11))
    env_energies, couplings = rm.draw_realization(spec, qdeco.rng(11))
    want = []
    for qubit, (lam, v) in enumerate(zip(spec.couplings, couplings)):
        env = spec.env_of_coupling(qubit)
        want.append(
            np.kron(np.diag(rm._qubit_energies(spec.deltas[qubit])),
                    np.eye(spec.env_dims[env]))
            + np.kron(np.eye(2), np.diag(env_energies[env])) + lam * v)
    assert len(got) == len(want) == spec.num_coupled
    for block, kron in zip(got, want):
        assert block.dtype == kron.dtype and np.array_equal(block, kron)
    for block, kron in zip(prop.blocks, want):
        energies, q = (sla.eigh(kron, driver="evr") if ensemble == "GUE"
                       else np.linalg.eigh(kron))
        assert np.array_equal(block.energies, energies)
        assert np.array_equal(block.q, q)
    # a GUE bath spectrum is the unfolding of the copying evd call on its draw
    g = qdeco.rng(11)
    for n, energies in zip(spec.env_dims, env_energies):
        h = sample_matrix(EnsembleSpec(ensemble, n), g)
        raw = (sla.eigvalsh(h, driver="evd") if ensemble == "GUE"
               else np.linalg.eigvalsh(h))
        assert np.array_equal(energies, np.sort(unfold(raw).energies)
                              * (np.pi / np.sqrt(n)))


@settings(max_examples=30, deadline=None)
@given(configuration=st.sampled_from(["one-qubit", "spectator", "separate",
                                      "joint", "n-qubit"]),
       ensemble=st.sampled_from(["GOE", "GUE"]),
       n_env=st.integers(2, 12),
       coupling=st.floats(0.0, 2.0),
       delta=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1),
       times=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=12))
def test_propagator_keeps_norms(configuration, ensemble, n_env, coupling, delta,
                                seed, times):
    n_qubits = 3 if configuration == "n-qubit" else None
    spec = rm.ModelSpec(configuration, n_env, ensemble, coupling, delta,
                        n_qubits=n_qubits)
    g = qdeco.rng(seed)
    prop = rm.Propagator(spec, g)
    psi0s = np.array([rm.initial_state(spec, qstate.random_state(
        1 << spec.num_qubits, g), g) for _ in range(3)])
    norms = np.linalg.norm(prop.states(psi0s, times), axis=-1)
    assert norms.shape == (len(times), 3)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


@pytest.mark.parametrize("ensemble", ["GOE", "GUE"])
def test_propagator_transient_memory(ensemble):
    # slices of times keep one call's transient allocation near the output
    spec = rm.ModelSpec("spectator", 64, ensemble, 0.05, (0.8, 0.6))
    g = qdeco.rng(13)
    prop = rm.Propagator(spec, g)
    psi0s = np.array([rm.initial_state(spec, qstate.ghz_state(2), g)
                      for _ in range(15)])
    times = np.linspace(0.0, 2 * spec.nominal_tau_h(), 41)
    tracemalloc.start()
    try:
        states = prop.states(psi0s, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * states.nbytes


def test_monte_carlo_memory_independent_of_time_grid():
    # each slice of times is reduced as soon as it is computed, so the peak
    # stays far below the (times, batch, dim) array of every state
    spec = rm.ModelSpec("spectator", 64, "GUE", 0.05, (0.8, 0.6))
    params = lr.InitParams(theta=0.3, phi=0.5)
    times = np.linspace(0.0, 2 * spec.nominal_tau_h(), 401)
    rm.monte_carlo(spec, params, times[:3], 1, 2, qdeco.rng(1))  # imports
    tracemalloc.start()
    try:
        rm.monte_carlo(spec, params, times, 1, 15, qdeco.rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    all_states = len(times) * 15 * spec.total_dim * 16
    assert peak < 0.5 * all_states


@pytest.mark.parametrize("ensemble", ["GOE", "GUE"])
def test_propagator_keeps_one_copy_of_each_block(ensemble):
    # the block is built inside the drawn coupling and the draw transforms
    # its uniforms in place: no kron terms or full-size transform scratch.
    # Every block and bath matrix is diagonalized inside itself, with no
    # Fortran-ordered copy beside it; LAPACK adds its documented workspace:
    # dsyevd's 2n^2 + 6n + 1 doubles, or zheevr's eigenvector matrix
    spec = rm.ModelSpec("one-qubit", 256, ensemble, 0.05, 0.8)
    rm.Propagator(spec, qdeco.rng(2))
    tracemalloc.start()
    try:
        rm.Propagator(spec, qdeco.rng(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = 2 * 256
    block = n * n * (8 if ensemble == "GOE" else 16)
    workspace = (2 * n * n + 6 * n + 1) * 8 if ensemble == "GOE" else block
    assert peak <= 1.5 * block + workspace


def test_goe_block_resident_once(tmp_path):
    # numpy's eigh keeps its Fortran copy, workspace and eigenvectors in
    # untraced memory, so the resident peak of a child process shows what
    # tracemalloc cannot: a 1024-dim GOE block costs itself plus dsyevd's
    # workspace (24 MiB), where a copying eigh added two more blocks (about
    # 46 MiB in all).  The child reads its own mm's high-water mark, VmHWM:
    # ru_maxrss would carry over the test runner's peak through exec
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs Linux's /proc/self/status")
    script = (
        "import qdeco\n"
        "from qdeco import rmt_models as rm\n"
        "def peak():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh\n"
        "                    if line.startswith('VmHWM:'))\n"
        "rm.Propagator(rm.ModelSpec('one-qubit', 16, 'GOE', 0.05, 0.8), qdeco.rng(2))\n"
        "before = peak()\n"
        "rm.Propagator(rm.ModelSpec('one-qubit', 512, 'GOE', 0.05, 0.8), qdeco.rng(2))\n"
        "print(peak() - before)\n")
    src = str(Path(rm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, cwd=tmp_path)
    assert int(run.stdout) / 1024 < 40.0  # MiB


@pytest.mark.parametrize("ensemble", ["GOE", "GUE"])
@pytest.mark.parametrize("spec_kw", [
    dict(configuration="one-qubit", n_env=64),
    dict(configuration="spectator", n_env=48),
    dict(configuration="separate", n_env=(16, 24)),
    dict(configuration="joint", n_env=24),
    dict(configuration="n-qubit", n_env=8, n_qubits=3)])
def test_plan_bounds_monte_carlo_peak(monkeypatch, spec_kw, ensemble):
    # planned_bytes, which refuses oversized runs, is at least what a
    # monte_carlo call holds at its peak, in every layout, on one process:
    # with one usable core every Hamiltonian runs in the caller
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    spec = rm.ModelSpec(ensemble=ensemble, coupling=0.1, **spec_kw)
    params = lr.InitParams(theta=0.3, phi=0.5)
    times = np.linspace(0.0, 2 * spec.nominal_tau_h(), 11)
    for n_times, n_hamiltonians, batch in ((11, 3, 4), (3, 2, 1)):
        rm.monte_carlo(spec, params, times[:3], 1, 1, qdeco.rng(1))  # imports
        tracemalloc.start()
        try:
            rm.monte_carlo(spec, params, times[:n_times], n_hamiltonians, batch,
                           qdeco.rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rm.planned_bytes(spec, n_times, n_hamiltonians, batch)


@pytest.mark.parametrize("spec", [
    small_spec(n_env=6),
    rm.ModelSpec("n-qubit", 4, "GUE", 0.2, (0.3, 0.0, 0.5), n_qubits=3)])
def test_stacked_measure_matches_per_sample_loop(spec):
    # reference: one state at a time, the coupled qubit (bit 0) kept by
    # tracing the other central qubits out one axis pair at a time
    g = qdeco.rng(21)
    prop = rm.Propagator(spec, g)
    n = spec.num_qubits
    psi0s = np.array([rm.initial_state(spec, qstate.random_state(1 << n, g), g)
                      for _ in range(3)])
    times = np.linspace(0.0, 2.0, 4)
    states = prop.states(psi0s, times)
    tr = rm._measure(rm.reduce_central(spec, states), times)
    for i in range(3):
        for k in range(len(times)):
            rho = rm.reduce_central(spec, states[k, i])
            q = rho.reshape([2] * (2 * n))
            for _ in range(n - 1):
                q = np.trace(q, axis1=0, axis2=q.ndim // 2)
            want = [metrics.purity(rho), metrics.von_neumann(rho),
                    metrics.offdiagonal_decay(q)]
            got = [tr.purity[i, k], tr.entropy[i, k], tr.offdiag[i, k]]
            if n == 2:
                want.append(metrics.concurrence(rho))
                got.append(tr.concurrence[i, k])
            assert np.max(np.abs(np.subtract(got, want))) < 1e-14


def test_run_trajectory_contracts():
    spec = small_spec(n_env=16, coupling=0.05, delta=(0.0, 0.0))
    params = lr.InitParams(theta=0.4, phi=0.3)
    times = np.linspace(0.0, 3.0, 7)
    tr = run_trajectory(spec, params, times, qdeco.rng(7))
    assert abs(tr.purity[0] - 1.0) < 1e-10
    assert abs(tr.concurrence[0] - np.sin(2 * 0.4)) < 1e-10
    assert tr.entropy[0] < 1e-8


def test_lambda_zero_keeps_purity():
    spec = small_spec(coupling=0.0, n_env=12)
    tr = run_trajectory(spec, lr.InitParams(theta=0.3, phi=0.1),
                        np.linspace(0, 5, 6), qdeco.rng(8))
    assert np.max(np.abs(tr.purity - 1.0)) < 1e-10


def test_forward_equals_echo_purity():
    # forward evolution and the echo map share all Schmidt data exactly
    spec = small_spec(n_env=8, coupling=0.3, delta=(0.9, 0.0))
    g = qdeco.rng(9)
    h, _ = rm.build_hamiltonian(spec, g)
    h0, _ = rm.build_hamiltonian(small_spec(n_env=8, coupling=0.0,
                                            delta=(0.9, 0.0)), qdeco.rng(9))
    psi0 = rm.initial_state(spec, rm.central_state(
        spec, lr.InitParams(theta=0.5, phi=0.6)), qdeco.rng(10))
    for t in (0.3, 0.8, 1.7, 2.9, 4.1):
        u = sla.expm(-1j * h * t)
        m = sla.expm(-1j * h0 * t).conj().T @ u
        p_fwd = metrics.purity(rm.reduce_central(spec, u @ psi0))
        p_echo = metrics.purity(rm.reduce_central(spec, m @ psi0))
        assert abs(p_fwd - p_echo) < 1e-10


def test_monte_carlo_single_realization_equals_trajectory():
    spec = small_spec(n_env=10)
    params = lr.InitParams(theta=0.2, phi=0.5)
    times = np.linspace(0.0, 2.0, 5)
    seed_child = qdeco.rng(21).spawn(1)[0]
    single = run_trajectory(spec, params, times, seed_child)
    avg = rm.monte_carlo(spec, params, times, 1, 1, qdeco.rng(21))
    assert np.max(np.abs(avg.purity - single.purity)) < 1e-12
    assert avg.n_realizations == 1


def test_monte_carlo_deterministic():
    spec = small_spec(n_env=8)
    params = lr.InitParams(theta=0.2, phi=0.5)
    times = np.linspace(0.0, 2.0, 4)
    a = rm.monte_carlo(spec, params, times, 3, 2, qdeco.rng(5))
    b = rm.monte_carlo(spec, params, times, 3, 2, qdeco.rng(5))
    assert np.array_equal(a.purity, b.purity)
    assert np.array_equal(a.purity_std, b.purity_std)


def _random_angle(g):
    return lr.InitParams.equatorial(0.0, np.arcsin(g.uniform(-1.0, 1.0)))


def test_monte_carlo_families_share_hamiltonians():
    spec = rm.ModelSpec("one-qubit", 12, "GOE", 0.1)
    params = lr.InitParams.equatorial(0.0, 0.0)
    times = np.linspace(0.0, 3.0, 4)
    fields = ("purity", "purity_std", "entropy", "offdiag")

    def run(families, **kw):
        return rm.monte_carlo(spec, params, times, 3, 2, qdeco.rng(9),
                              params_sampler=families, **kw)

    both = run((None, _random_angle))
    assert both[0].n_realizations == both[1].n_realizations == 3 * 2
    # the first family's draws come first, as in a single-family call
    fixed = run(None)
    for name in fields:
        assert getattr(both[0], name).tobytes() == getattr(fixed, name).tobytes()
    first = run([_random_angle, None])[0]
    assert first.purity.tobytes() == run(_random_angle).purity.tobytes()
    assert not np.array_equal(both[0].purity, both[1].purity)
    # one sampler with collect_samples: the average and every sample, as the
    # unbatched loop over Hamiltonians and initial states gives them
    avg, samples = run(_random_angle, collect_samples=True)
    assert avg.purity.tobytes() == run(_random_angle).purity.tobytes()
    want = []
    for g in qdeco.rng(9).spawn(3):
        prop = rm.Propagator(spec, g)
        for _ in range(2):
            central = rm.central_state(spec, _random_angle(g))
            psi0 = rm.initial_state(spec, central, g)
            rhos = rm.reduce_central(spec, prop.states(psi0, times))
            want.append(rm._measure(rhos, times).purity)
    assert set(samples) == {"purity"} and samples["purity"].shape == (6, 4)
    assert np.max(np.abs(samples["purity"] - np.array(want))) < 1e-12
    # several families keep no per-sample series
    with pytest.raises(ConfigError):
        run((None, _random_angle), collect_samples=True)


def test_sliced_reduction_matches_full_states():
    # 17 times: two slices of 8 and a last one of 1; two families, each
    # reduced on its own columns, bit for bit as from the full state array
    spec = small_spec(n_env=10)
    params = lr.InitParams(theta=0.2, phi=0.5)
    times = np.linspace(0.0, 3.0, 17)
    families = (None, _random_angle)
    got = rm.monte_carlo(spec, params, times, 2, 3, qdeco.rng(8),
                         params_sampler=families)
    batches = []
    for g in qdeco.rng(8).spawn(2):
        prop = rm.Propagator(spec, g)
        psi0s = np.array([
            rm.initial_state(spec, rm.central_state(
                spec, params if f is None else f(g)), g)
            for f in families for _ in range(3)])
        full = [rm.reduce_central(spec, s)
                for s in np.split(prop.states(psi0s, times), 2, axis=1)]
        sliced = prop.central_states(psi0s, times, 2)
        assert [r.tobytes() for r in sliced] == [r.tobytes() for r in full]
        batches.append([rm._measure(r, times) for r in full])
    for avg, family in zip(got, zip(*batches)):
        want = average(family)
        for name in ("purity", "purity_std", "concurrence", "entropy", "offdiag"):
            assert getattr(avg, name).tobytes() == getattr(want, name).tobytes()


def test_spectator_depends_only_on_reduced_state():
    # same coupled-qubit reduction through different spectator bases gives
    # the same averaged purity with shared draws
    spec = small_spec(n_env=12, coupling=0.08, delta=(0.0, 0.0))
    times = np.linspace(0.0, 4.0, 6)
    params = lr.InitParams(theta=0.35, phi=0.6)
    a = rm.monte_carlo(spec, params, times, 4, 3, qdeco.rng(3))
    p2 = lr.InitParams(theta=0.35, phi=1.1, eta=0.7)  # rotate spectator side
    b = rm.monte_carlo(spec, params, times, 4, 3, qdeco.rng(3), params2=p2)
    assert np.max(np.abs(a.purity - b.purity)) < 1e-10


def test_separate_environments_conserve_block_purity():
    # with factorized initial conditions the (qubit+its bath) purity is
    # constant in time even though the pair purity decays
    spec = rm.ModelSpec("separate", (6, 6), "GUE", (0.25, 0.2), (0.3, 0.8))
    g = qdeco.rng(14)
    prop = rm.Propagator(spec, g)
    psi0 = rm.initial_state(spec, qstate.ghz_state(2), g)
    times = np.linspace(0.0, 3.0, 7)
    states = prop.states(psi0, times)
    block = []
    for s in states:
        t = s.reshape(2, 2, 6, 6)          # (q1, q0, e0, e1)
        m = t.transpose(1, 2, 0, 3).reshape(12, 12)  # (q0,e0) x (q1,e1)
        block.append(metrics.purity(m @ m.conj().T))
    assert np.max(np.abs(np.diff(block))) < 1e-10
    pair = [metrics.purity(rm.reduce_central(spec, s)) for s in states]
    assert pair[0] - min(pair) > 1e-3


def test_global_state_stays_pure():
    spec = small_spec(n_env=10, coupling=0.2)
    prop = rm.Propagator(spec, qdeco.rng(15))
    psi0 = rm.initial_state(spec, qstate.ghz_state(2), qdeco.rng(16))
    states = prop.states(psi0, np.linspace(0, 5, 6))
    for s in states:
        assert abs(np.linalg.norm(s) - 1.0) < 1e-10


def test_unitality_experiment_basics():
    spec = rm.ModelSpec("one-qubit", 12, "GUE", 0.0)
    dist = rm.unitality_experiment(spec, np.linspace(0, 3, 4), 3, qdeco.rng(17))
    assert np.max(dist) < 1e-10  # no coupling: reduction never moves
    spec = rm.ModelSpec("one-qubit", 12, "GUE", 0.15)
    dist = rm.unitality_experiment(spec, np.linspace(0, 6, 4), 4, qdeco.rng(18))
    assert np.all(dist >= 0) and dist.shape == (4,)


def _openblas_threads() -> int:
    return rm._lapack._routine("scipy_openblas_get_num_threads64_", (),
                               ctypes.c_int)()


def test_several_hamiltonians_run_on_one_blas_thread(monkeypatch):
    # with several Hamiltonians OpenBLAS reads one thread inside each, in the
    # caller and in the forked children (a child's error reaches the
    # caller); a single Hamiltonian keeps the library's count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    propagator, seen, fork, forks = rm.Propagator, [], os.fork, []

    def checked(*args):
        if _openblas_threads() != 1:
            raise RuntimeError(f"OpenBLAS on {_openblas_threads()} threads")
        seen.append(os.getpid())
        return propagator(*args)

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(rm, "Propagator", checked)
    monkeypatch.setattr(os, "fork", counted)
    spec = small_spec(n_env=16)
    times = np.linspace(0.0, 2.0, 3)
    rm.monte_carlo(spec, lr.InitParams(theta=0.2), times, 5, 2, qdeco.rng(4))
    rm.unitality_experiment(rm.ModelSpec("one-qubit", 16, "GOE", 0.1), times, 3,
                            qdeco.rng(5))
    assert len(forks) == 3 + 2
    assert seen == [os.getpid()] * (2 + 1)  # the caller's first shares
    before, eigh = _openblas_threads(), rm._lapack.eigh

    def recorded(a):
        seen.append(_openblas_threads())
        return eigh(a)

    monkeypatch.setattr(rm, "Propagator", propagator)
    monkeypatch.setattr(rm._lapack, "eigh", recorded)
    seen.clear()
    rm.monte_carlo(spec, lr.InitParams(theta=0.2), times, 1, 2, qdeco.rng(4))
    assert seen == [before] and len(forks) == 5


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("zheevr failed, info 7"),
                                   ResourceLimitError("block over its cap")])
def test_child_hamiltonian_errors_reach_the_caller(monkeypatch, error):
    # an error in a forked child's Hamiltonian is raised in the caller with
    # its type and message, and no child is left behind (conftest)
    parent, eigh = os.getpid(), rm._lapack.eigh

    def failing(a):
        if os.getpid() != parent:
            raise error
        return eigh(a)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(rm._lapack, "eigh", failing)
    with pytest.raises(type(error)) as raised:
        rm.monte_carlo(small_spec(), lr.InitParams(theta=0.2),
                       np.linspace(0.0, 1.0, 3), 4, 2, qdeco.rng(6))
    assert str(raised.value) == str(error)


def test_average_of_pickled_trajectories_is_byte_identical():
    # a Hamiltonian's series are strided views of its density matrices until
    # measure makes them C-ordered; a forked child's come back through a
    # pickle, and the average must not see the difference
    spec = small_spec(n_env=16)
    params = lr.InitParams(theta=0.3, phi=0.5)
    times = np.linspace(0.0, 4.0, 41)
    g = qdeco.rng(7)
    trs = []
    for _ in range(3):
        prop = rm.Propagator(spec, g)
        psi0s = np.array([rm.initial_state(spec, rm.central_state(spec, params), g)
                          for _ in range(15)])
        trs.append(rm._measure(prop.central_states(psi0s, times)[0], times))
    here = average(trs)
    there = average([pickle.loads(pickle.dumps(tr)) for tr in trs])
    for name in ("purity", "concurrence", "entropy", "offdiag", "purity_std",
                 "concurrence_std"):
        assert getattr(here, name).tobytes() == getattr(there, name).tobytes(), name


def test_unitality_distance_shrinks_with_bath():
    # algebraic approach to unitality: log-log slope near -1/2
    sizes = (8, 32, 128)
    finals = []
    for n in sizes:
        spec = rm.ModelSpec("one-qubit", n, "GUE", 0.1)
        t = 1.0 * spec.nominal_tau_h()
        dist = rm.unitality_experiment(spec, np.array([0.0, t]), 24, qdeco.rng(19))
        finals.append(dist[-1])
    slope = np.polyfit(np.log(sizes), np.log(finals), 1)[0]
    assert -0.75 < slope < -0.3


def test_cp_curve_starts_at_bell_corner():
    spec = small_spec(n_env=16, coupling=0.1, delta=(0.0, 0.0))
    params = lr.InitParams(theta=np.pi / 4, phi=np.pi / 4)
    _, samples = rm.monte_carlo(spec, params, np.linspace(0, 2, 6), 3, 3,
                                qdeco.rng(20), collect_samples=True)
    curve = metrics.bin_cp_samples(samples["purity"], samples["concurrence"])
    assert curve.purity[0] > 0.99 and curve.concurrence[0] > 0.99
