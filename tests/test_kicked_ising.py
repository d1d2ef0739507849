from functools import reduce

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import qdeco
from qdeco import _kernels, kicked_ising as ki, metrics, qstate
from qdeco.errors import ConfigError, ResourceLimitError

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
PAULIS = (SX, SY, SZ)


def one_site(op, site, num_spins):
    mats = [np.eye(2, dtype=complex)] * num_spins
    mats[site] = op
    full = mats[-1]
    for m in mats[-2::-1]:
        full = np.kron(full, m)
    return full


def dense_floquet(model):
    dim = model.dim
    h_ising = np.zeros((dim, dim), dtype=complex)
    axis_op = SZ if model.axis == "z" else SX
    for j, k, strength in model.pairs:
        h_ising += strength * one_site(axis_op, j, model.num_spins) \
            @ one_site(axis_op, k, model.num_spins)
    u = sla.expm(-1j * h_ising)
    for j in range(model.num_spins):
        b = model.fields[j]
        if np.any(b):
            hk = sum(bc * one_site(p, j, model.num_spins)
                     for bc, p in zip(b, PAULIS))
            u = sla.expm(-1j * hk) @ u
    return u


def dense_kick(b, site, num_spins):
    return one_site(sla.expm(-1j * sum(bc * p for bc, p in zip(b, PAULIS))),
                    site, num_spins)


def apply_kick(psi, site, b_cartesian):
    """Kick one site in place: a period with one field and no couplings."""
    L = qstate.num_qubits_of(psi)
    fields = np.zeros((L, 3))
    fields[site] = b_cartesian
    return ki.floquet_step(psi, ki.KIModel(L, np.zeros((L, L)), fields))


def apply_ising_phase(psi, j, k, strength):
    """exp(-i strength Z_j Z_k) in place: a period with one coupled pair and
    no fields (j == k breaks the model's zero diagonal)."""
    L = qstate.num_qubits_of(psi)
    couplings = np.zeros((L, L))
    couplings[j, k] = couplings[k, j] = strength
    return ki.floquet_step(psi, ki.KIModel(L, couplings, np.zeros((L, 3))))


def test_kernels_match_dense_on_basis_states():
    # fused kick runs (bottom, middle and top runs for a run length of two)
    # and the Ising phase vector against dense operators, column by column
    L = 6
    g = qdeco.rng(14)
    fields = g.uniform(-1, 1, (L, 3))
    fields[3] = 0.0  # an identity site inside a run
    kicks = [ki.kick_matrix(b) if np.any(b) else None for b in fields]
    dense = np.eye(1 << L)
    for j, b in enumerate(fields):
        dense = dense_kick(b, j, L) @ dense
    hadamard = reduce(np.kron, [_kernels.HADAMARD] * L)
    for size in (1, 2, 4, 6):
        layers = ((_kernels.fuse(kicks, size), dense),
                  (_kernels.fuse([_kernels.HADAMARD] * L, size), hadamard))
        for groups, want in layers:
            for mu in range(1 << L):
                psi = np.zeros(1 << L, dtype=complex)
                psi[mu] = 1.0
                out, _ = _kernels.apply_groups(groups, psi, np.empty_like(psi))
                assert np.max(np.abs(out - want[:, mu])) < 1e-12
    pairs = [(0, 1, 0.7), (1, 3, -0.4), (0, 5, 0.3)]
    phase = _kernels.ising_phase(L, pairs)
    hz = sum(s * one_site(SZ, j, L) @ one_site(SZ, k, L) for j, k, s in pairs)
    hx = sum(s * one_site(SX, j, L) @ one_site(SX, k, L) for j, k, s in pairs)
    # along z the phase is the diagonal; along x it acts in the H basis
    assert np.max(np.abs(np.diag(phase) - sla.expm(-1j * hz))) < 1e-12
    assert np.max(np.abs(hadamard @ np.diag(phase) @ hadamard
                         - sla.expm(-1j * hx))) < 1e-12


def test_ising_phase_contract():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0  # |00>: aligned bits pick up e^{-iJ}
    apply_ising_phase(psi, 0, 1, 0.3)
    assert abs(psi[0] - np.exp(-1j * 0.3)) < 1e-14
    psi = qstate.random_state(4, qdeco.rng(0))
    out = apply_ising_phase(psi.copy(), 0, 1, 0.0)
    assert np.array_equal(out, psi)
    with pytest.raises(ConfigError):
        apply_ising_phase(psi, 1, 1, 0.3)


def test_kick_conventions():
    # b = (0, 0, pi/2) sends |0> to -i|0>
    psi = np.array([1.0, 0.0], dtype=complex)
    apply_kick(psi, 0, (0.0, 0.0, np.pi / 2))
    assert abs(psi[0] + 1j) < 1e-14
    # zero field is the identity fast path
    psi = qstate.random_state(8, qdeco.rng(1))
    assert np.array_equal(apply_kick(psi.copy(), 1, (0, 0, 0)), psi)
    # kick then inverse kick
    out = psi.copy()
    apply_kick(out, 2, (0.3, 0.4, -0.2))
    apply_kick(out, 2, (-0.3, -0.4, 0.2))
    assert np.max(np.abs(out - psi)) < 1e-12
    # matrix matches the dense exponential
    b = np.array([0.5, -1.1, 0.7])
    dense = sla.expm(-1j * sum(bc * p for bc, p in zip(b, PAULIS)))
    assert np.max(np.abs(ki.kick_matrix(b) - dense)) < 1e-13


def test_floquet_step_vs_dense_random_model():
    # in place: at 4 spins the kicks fuse into one run, so a period ends in
    # the spare buffer and is copied back into the caller's array
    g = qdeco.rng(2)
    for L, axis in ((8, "z"), (8, "x"), (4, "z"), (4, "x")):
        j = np.zeros((L, L))
        for _ in range(10):
            a, b = g.integers(0, L, 2)
            if a != b:
                j[a, b] = j[b, a] = g.uniform(-1, 1)
        fields = g.uniform(-1, 1, (L, 3))
        model = ki.KIModel(L, j, fields, axis=axis)
        u = dense_floquet(model)
        for _ in range(10):
            psi = qstate.random_state(1 << L, g)
            out = psi.copy()
            assert ki.floquet_step(out, model) is out
            assert np.max(np.abs(out - u @ psi)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(num_spins=st.integers(2, 8), axis=st.sampled_from(["z", "x"]),
       seed=st.integers(0, 2**32 - 1))
def test_floquet_step_keeps_norms_and_batches(num_spins, axis, seed):
    # a batch of three states steps exactly as the three states one by one
    g = qdeco.rng(seed)
    j = np.triu(g.uniform(-2.0, 2.0, (num_spins, num_spins)), 1)
    model = ki.KIModel(num_spins, j + j.T, g.uniform(-2.0, 2.0, (num_spins, 3)),
                       axis=axis)
    batch = np.array([qstate.random_state(model.dim, g) for _ in range(3)])
    singles = np.array([ki.floquet_step(psi.copy(), model) for psi in batch])
    ki.floquet_step(batch, model)
    assert np.max(np.abs(np.linalg.norm(batch, axis=-1) - 1.0)) < 1e-12
    assert np.max(np.abs(batch - singles)) < 1e-14


def test_floquet_matrix_matches_stepping():
    g = qdeco.rng(3)
    for axis in ("z", "x"):
        model, _ = ki.build_env_config("e", 4, 0.1, (0.9, 0.9, 0), (1.4, 1.4, 0),
                                       axis=axis)
        u = ki.floquet_matrix(model)
        psi = qstate.random_state(model.dim, g)
        assert np.max(np.abs(u @ psi - ki.floquet_step(psi.copy(), model))) < 1e-12
        assert np.max(np.abs(u @ u.conj().T - np.eye(model.dim))) < 1e-10
        assert np.max(np.abs(u - dense_floquet(model))) < 1e-12


def _dense_trajectory(model, psi, steps):
    """Purity, entropy, D and (for a pair) concurrence of the central
    reduction, stepping the dense period in the original basis."""
    u = dense_floquet(model)
    n_c = len(model.central_sites)
    rows = []
    for _ in range(steps + 1):
        rho = qstate.partial_trace(psi, model.central_mask)
        rho_q = qstate.partial_trace(psi, 1 << model.central_sites[0])
        rows.append([metrics.purity(rho), metrics.von_neumann(rho),
                     metrics.offdiagonal_decay(rho_q)]
                    + ([metrics.concurrence(rho)] if n_c == 2 else []))
        psi = u @ psi
    return np.array(rows)


def test_evolve_ki_matches_dense_stepping():
    # z-axis wiring (d), an x-axis register, and an x-axis model whose first
    # central site is not its lowest one (the D_mean qubit moves)
    g = qdeco.rng(18)
    ring, _ = ki.build_env_config("d", 5, 0.2, (1.4, 1.4, 0), (1.4, 1.4, 0))
    register = ki.build_memory_model(5, 2, (0, 3), 0.2, (0.9, 0.9, 0))
    j = np.triu(g.uniform(-1, 1, (7, 7)), 1)
    mixed = ki.KIModel(7, j + j.T, g.uniform(-1, 1, (7, 3)), axis="x",
                       central_sites=(5, 1, 3))
    for model in (ring, register, mixed):
        central = qstate.random_state(1 << len(model.central_sites), g)
        psi0 = ki.initial_state(model, central, g)
        tr = ki.evolve_ki(model, psi0, 12)
        want = _dense_trajectory(model, psi0, 12)
        got = [tr.purity, tr.entropy, tr.offdiag]
        got += [] if tr.concurrence is None else [tr.concurrence]
        assert np.max(np.abs(np.column_stack(got) - want)) < 1e-10


def test_zero_field_diagonal_and_zero_coupling_product():
    model, _ = ki.build_env_config("a", 4, 0.1, (0, 0, 0), (0, 0, 0))
    psi = np.zeros(model.dim, dtype=complex)
    psi[13] = 1.0
    out = ki.floquet_step(psi.copy(), model)
    assert abs(abs(out[13]) - 1.0) < 1e-12  # phases only
    # no couplings at all: product stays product, concurrence frozen
    j = np.zeros((6, 6))
    fields = np.tile([0.3, 0.2, 0.9], (6, 1))
    model = ki.KIModel(6, j, fields, central_sites=(0, 1))
    central = qstate.two_qubit_pair(0.4, 0.6)
    psi = ki.initial_state(model, central, qdeco.rng(4))
    tr = ki.evolve_ki(model, psi, 5)
    assert np.max(np.abs(tr.concurrence - np.sin(0.8))) < 1e-10
    assert np.max(np.abs(tr.purity - 1.0)) < 1e-10


def test_norm_drift_over_many_steps():
    # drift per period below 1e-12 with renormalization off (measured total
    # over ten thousand periods)
    model, _ = ki.build_env_config("e", 6, 0.05, (1.4, 1.4, 0), (1.4, 1.4, 0))
    psi = ki.initial_state(model, qstate.ghz_state(2), qdeco.rng(5))
    steps = 10**4
    for _ in range(steps):
        ki.floquet_step(psi, model)
    drift = abs(np.linalg.norm(psi) - 1.0)
    assert drift / steps < 1e-12
    assert drift < 1e-10


def test_env_config_wiring_and_tau_table():
    model, env = ki.build_env_config("a", 12, 0.01, (1.4, 1.4, 0), (1.4, 1.4, 0))
    assert env.tau_h_estimate == 4096
    assert env.j_normalized == 0.01
    assert model.coupling_pairs == ((1, 2),)
    _, env_d = ki.build_env_config("d", 16, 0.01, (1.4, 1.4, 0), (1.4, 1.4, 0))
    assert env_d.tau_h_estimate == 4096
    model_f, env_f = ki.build_env_config("f", 12, 0.01, (1.4, 1.4, 0),
                                         (1.4, 1.4, 0))
    assert abs(env_f.tau_h_estimate - 10.7) < 0.05
    assert abs(env_f.j_normalized - np.sqrt(12) * 0.01) < 1e-12
    assert len(model_f.env_sections) == 2
    d_model, _ = ki.build_env_config("d", 8, 0.01, (1, 1, 0), (1, 1, 0))
    assert len(d_model.coupling_pairs) == 8  # symmetric: one spot per bath spin
    with pytest.raises(ConfigError):
        ki.build_env_config("q", 8, 0.01, (1, 1, 0), (1, 1, 0))
    with pytest.raises(ConfigError):
        ki.build_env_config("c", 7, 0.01, (1, 1, 0), (1, 1, 0))


def test_field_semantics_relative_to_axis():
    # (parallel, t1, t2): parallel picks the Ising axis component
    assert np.allclose(ki.field_to_cartesian((1.0, 2.0, 3.0), "z"), [2, 3, 1])
    assert np.allclose(ki.field_to_cartesian((1.0, 2.0, 3.0), "x"), [1, 2, 3])


def test_memory_model_wiring():
    model = ki.build_memory_model(12, 4, (0, 3, 6, 9), 0.005, (0.9, 0.9, 0))
    assert model.axis == "x"
    assert model.central_sites == (12, 13, 14, 15)
    assert model.coupling_pairs == ((12, 0), (13, 3), (14, 6), (15, 9))
    assert model.couplings[12, 0] == 0.005
    assert model.couplings[0, 1] == 1.0  # ring bond
    same = ki.build_memory_model(8, 3, (2, 2, 2), 0.01, (0.9, 0.9, 0))
    assert same.coupling_pairs == ((8, 2), (9, 2), (10, 2))
    with pytest.raises(ConfigError):
        ki.build_memory_model(8, 2, (0, 9), 0.01, (0.9, 0.9, 0))


def test_memory_lambda_zero_purity_one():
    model = ki.build_memory_model(6, 2, (0, 3), 0.0, (0.9, 0.9, 0))
    psi = ki.initial_state(model, qstate.ghz_state(2), qdeco.rng(6))
    tr = ki.evolve_ki(model, psi, 6)
    assert np.max(np.abs(tr.purity - 1.0)) < 1e-10


def test_local_kicks_leave_purity_and_concurrence_invariant():
    # exact invariances: kicks on the uncoupled (spectator) qubit, and
    # central kicks parallel to the coupling axis (they commute with it);
    # a transverse kick on the coupled qubit acts like an internal splitting
    # and genuinely shifts the decay, so it is not asserted here
    from dataclasses import replace
    base, _ = ki.build_env_config("e", 6, 0.05, (1.4, 1.4, 0), (1.4, 1.4, 0))
    central = qstate.ghz_state(2)

    def run(model, seed=7):
        psi = ki.initial_state(model, central, qdeco.rng(seed))
        return ki.evolve_ki(model, psi, 30, 3)

    # layout (e): site 1 couples, site 0 spectates
    f = base.fields.copy()
    f[0] = 0.0
    a, b = run(base), run(replace(base, fields=f))
    assert np.max(np.abs(a.purity - b.purity)) < 1e-12
    assert np.max(np.abs(a.concurrence - b.concurrence)) < 1e-12
    f_par, f_off = base.fields.copy(), base.fields.copy()
    f_par[0] = f_par[1] = (0.0, 0.0, 1.1)
    f_off[0] = f_off[1] = 0.0
    c, d = run(replace(base, fields=f_par)), run(replace(base, fields=f_off))
    assert np.max(np.abs(c.purity - d.purity)) < 1e-12
    assert np.max(np.abs(c.concurrence - d.concurrence)) < 1e-12


def test_ring_rotation_symmetry():
    # homogeneous ring + symmetric coupling: rotating the bath state by one
    # site leaves the purity trajectory unchanged
    model, _ = ki.build_env_config("d", 6, 0.03, (1.4, 1.4, 0), (1.4, 1.4, 0))
    g = qdeco.rng(8)
    env = qstate.random_state(1 << 6, g)
    rolled = np.empty_like(env)
    for mu in range(1 << 6):
        shifted = ((mu << 1) | (mu >> 5)) & 0b111111
        rolled[shifted] = env[mu]
    central = qstate.ghz_state(2)
    psi_a = qstate.tensor_product(central, env, 0b11)
    psi_b = qstate.tensor_product(central, rolled, 0b11)
    tr_a = ki.evolve_ki(model, psi_a, 20, 2)
    tr_b = ki.evolve_ki(model, psi_b, 20, 2)
    assert np.max(np.abs(tr_a.purity - tr_b.purity)) < 1e-10


def test_sectioned_environment_state_is_product():
    model, _ = ki.build_env_config("c", 8, 0.05, (0, 1.53, 0), (0, 1.53, 0))
    env = ki.random_environment_state(model, qdeco.rng(9))
    m = env.reshape(16, 16)  # (section B, section A)
    s = np.linalg.svd(m, compute_uv=False)
    assert s[1] < 1e-12  # rank one across the section split


def test_floquet_spectrum_unitary_phases():
    model, _ = ki.build_env_config("e", 4, 0.1, (1.4, 1.4, 0), (1.4, 1.4, 0))
    phases = ki.floquet_spectrum(model)
    assert len(phases) == model.dim
    assert np.all(np.diff(phases) >= 0)
    u = ki.floquet_matrix(model)
    assert np.max(np.abs(np.abs(np.linalg.eigvals(u)) - 1.0)) < 1e-9
    big = ki.build_memory_model(12, 2, (0, 6), 0.01, (0.9, 0.9, 0))
    with pytest.raises(ResourceLimitError):
        ki.floquet_matrix(big)


def test_early_decay_chaotic_linear_integrable_quadratic():
    q = 10
    jp = 0.005 / np.sqrt(q)  # normalized coupling 0.005 in layout (d)
    chaotic, env = ki.build_env_config("d", q, jp, ki.FIELD_PRESETS["chaotic"],
                                       ki.FIELD_PRESETS["chaotic"])
    integ, _ = ki.build_env_config("d", q, jp, ki.FIELD_PRESETS["integrable"],
                                   ki.FIELD_PRESETS["integrable"])
    g = qdeco.rng(12)
    jc = env.j_normalized
    tr_c = ki.evolve_ki(chaotic, ki.initial_state(chaotic, qstate.ghz_state(2), g),
                        24, 2)
    tr_i = ki.evolve_ki(integ, ki.initial_state(integ, qstate.ghz_state(2),
                                                qdeco.rng(13)), 24, 2)
    t = tr_c.times[1:]
    ratio_c = (1 - tr_c.purity[1:]) / (3 * jc**2 * t)
    ratio_i = (1 - tr_i.purity[1:]) / (2 * jc**2 * t**2)
    # chaotic tracks the linear guide within a factor two, integrable the
    # parabola tightly at early times
    assert np.all((0.5 < ratio_c) & (ratio_c < 2.5))
    assert np.max(np.abs(ratio_i[t <= 8] - 1.0)) < 0.15
