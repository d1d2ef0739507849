import os
import threading
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
    for j, k in zip(*np.nonzero(np.triu(model.couplings, 1))):
        h_ising += model.couplings[j, k] * one_site(axis_op, j, model.num_spins) \
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
    # and the Ising phase vector against dense operators, column by column;
    # the real runs (rotations, Hadamards) also on a batch of complex states,
    # whose real and imaginary parts they carry as one more bit
    L = 6
    g = qdeco.rng(14)
    fields = g.uniform(-1, 1, (L, 3))
    fields[3] = 0.0  # an identity site inside a run
    kicks = [ki.kick_matrix(b) if np.any(b) else None for b in fields]
    dense = np.eye(1 << L)
    for j, b in enumerate(fields):
        dense = dense_kick(b, j, L) @ dense
    rotations = [None if j == 3 else np.array([[np.cos(a), -np.sin(a)],
                                               [np.sin(a), np.cos(a)]])
                 for j, a in enumerate(g.uniform(-np.pi, np.pi, L))]
    rotation = reduce(np.kron, [np.eye(2) if r is None else r
                                for r in rotations[::-1]])
    hadamard = reduce(np.kron, [_kernels.HADAMARD] * L)
    batch = np.array([qstate.random_state(1 << L, g) for _ in range(5)])
    for size in (1, 2, 4, 6):
        layers = ((_kernels.fuse(kicks, size), dense),
                  (_kernels.fuse(rotations, size), rotation),
                  (_kernels.fuse([_kernels.HADAMARD] * L, size), hadamard))
        for groups, want in layers:
            for mu in range(1 << L):
                psi = np.zeros(1 << L, dtype=complex)
                psi[mu] = 1.0
                out, _ = _kernels.apply_groups(groups, psi, np.empty_like(psi))
                assert np.max(np.abs(out - want[:, mu])) < 1e-12
            out, _ = _kernels.apply_groups(groups, batch.copy(),
                                           np.empty_like(batch))
            assert np.max(np.abs(out - batch @ want.T)) < 1e-12
        assert all(not np.iscomplexobj(m)
                   for _, _, m in _kernels.fuse(rotations, size))
    pairs = [(0, 1, 0.7), (1, 3, -0.4), (0, 5, 0.3), (4, 2, 1.1)]
    couplings = np.zeros((L, L))
    for j, k, s in pairs:
        couplings[j, k] = couplings[k, j] = s
    phase = _kernels.ising_phase(couplings)
    hz = sum(s * one_site(SZ, j, L) @ one_site(SZ, k, L) for j, k, s in pairs)
    hx = sum(s * one_site(SX, j, L) @ one_site(SX, k, L) for j, k, s in pairs)
    # along z the phase is the diagonal; along x it acts in the H basis
    assert np.max(np.abs(np.diag(phase) - sla.expm(-1j * hz))) < 1e-12
    assert np.max(np.abs(hadamard @ np.diag(phase) @ hadamard
                         - sla.expm(-1j * hx))) < 1e-12
    # plus one z term per site, a zero one included
    terms = g.uniform(-3, 3, L)
    terms[2] = 0.0
    hzt = hz + sum(t * one_site(SZ, j, L) for j, t in enumerate(terms))
    assert np.max(np.abs(_kernels.ising_phase(couplings, terms)
                         - np.diag(sla.expm(-1j * hzt)))) < 1e-12


def test_split_kick_reconstructs_with_unit_phases():
    # u = diag(l) r diag(c) with r a real rotation: a pure z kick (r = 1),
    # transverse pi/2 kicks (zero diagonal), no kick, a unitary whose
    # determinant is not 1, Hadamard-conjugated kicks and random fields
    h = _kernels.HADAMARD
    g = qdeco.rng(21)
    flip = np.array([[0.0, -1j], [-1j, 0.0]])  # -i sigma_x, exactly
    us = [ki.kick_matrix((0.0, 0.0, 0.7)), flip, flip @ np.diag([1j, -1j]),
          ki.kick_matrix((np.pi / 2, 0.0, 0.0)), ki.kick_matrix((0, 0, 0)),
          np.diag([1.0, 1j]) @ ki.kick_matrix((0.3, -0.5, 1.2))]
    us += [ki.kick_matrix(b) for b in g.uniform(-3, 3, (200, 3))]
    us += [h @ u @ h for u in us]
    for u in us:
        l, r, c = ki.split_kick(u)
        assert not np.iscomplexobj(r)
        assert np.max(np.abs(r.T @ r - np.eye(2))) < 1e-15
        assert r[0, 0] == r[1, 1] and r[0, 1] == -r[1, 0]
        assert np.max(np.abs(np.abs(np.concatenate([l, c])) - 1.0)) < 1e-15
        assert np.max(np.abs(np.diag(l) @ r @ np.diag(c) - u)) < 1e-14
    assert np.array_equal(ki.split_kick(us[0])[1], np.eye(2))
    assert np.array_equal(ki.split_kick(flip)[1], [[0.0, -1.0], [1.0, 0.0]])


def test_period_holds_one_register_length_array():
    # the frame lives in 2x2 gates and fused runs (at most 16 x 16 at
    # 10 spins); the phase vector is the one array of the register's length
    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                yield from arrays(item)

    for axis in ("z", "x"):
        model = ki.build_memory_model(8, 2, (0, 4), 0.1, (0.9, 0.9, 0.3),
                                      axis=axis)
        period = model._period
        big = [a for a in arrays(list(vars(period).values()))
               if a.size >= model.dim]
        assert len(big) == 1 and big[0] is period.phase


def test_period_build_matches_per_site_construction():
    # the period splits each distinct field once and fuses runs without
    # np.kron; the result must equal, bit for bit, splitting every site's
    # kick and fusing every run by repeated np.kron
    def fuse_by_kron(gates):
        groups = []
        for lo in range(0, len(gates), _kernels.GROUP):
            run = gates[lo:lo + _kernels.GROUP]
            if all(g is None for g in run):
                continue
            m = np.eye(1)
            for g in run:
                m = np.kron(np.eye(2) if g is None else g, m)
            groups.append((lo, len(run), m))
        return groups

    def per_site(model):
        h = _kernels.HADAMARD if model.axis == "x" else None
        frame, rotations, terms = [], [], []
        for b in model.fields:
            u = ki.kick_matrix(b)
            l, r, c = ki.split_kick(u if h is None else h @ u @ h)
            rotations.append(None if r[1, 0] == 0.0 else r)
            identity = h is None and np.all(l == 1.0)
            frame.append(None if identity else np.diag(l) if h is None else h * l)
            ang = np.angle(c * l)
            terms.append(0.5 * (ang[1] - ang[0]))
        return dict(phase=_kernels.ising_phase(model.couplings, terms),
                    kicks=fuse_by_kron(rotations),
                    enter=fuse_by_kron([None if f is None else f.conj().T
                                        for f in frame]),
                    leave=fuse_by_kron(frame), frame=frame)

    def same(a, b):
        if a is None or b is None:
            return a is b
        if isinstance(a, (list, tuple)):
            return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
        if isinstance(a, np.ndarray):
            return a.dtype == np.asarray(b).dtype and np.array_equal(a, b)
        return a == b

    models = []
    for axis in ("z", "x"):
        models.append(ki.build_memory_model(
            10, 3, (0, 4, 4), 0.05, ki.FIELD_PRESETS["chaotic-soft"], axis=axis))
        # central pair and bath kicked by two distinct fields
        models.append(ki.build_env_config(
            "d", 8, 0.02, ki.FIELD_PRESETS["integrable"],
            ki.FIELD_PRESETS["chaotic"], axis=axis)[0])
    for model in models:
        assert len({b.tobytes() for b in model.fields}) < model.num_spins
        period, want = ki._Period(model), per_site(model)
        for name, value in want.items():
            assert same(getattr(period, name), value), (model.axis, name)


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


def test_ising_phase_matches_exp_of_energies():
    # the phase built from products of bond and site factors against exp(-iE)
    # of the energies summed directly: a ring, one long bond and site terms,
    # with and without them; it keeps unit modulus without renormalizing
    g = qdeco.rng(23)
    for L in (8, 12, 16):
        couplings = np.zeros((L, L))
        for j in range(L):
            couplings[j, (j + 1) % L] = couplings[(j + 1) % L, j] = g.uniform(-2, 2)
        couplings[0, L // 2] = couplings[L // 2, 0] = g.uniform(-2, 2)
        spins = 1.0 - 2.0 * (np.arange(1 << L)[:, None] >> np.arange(L) & 1)
        pair = np.einsum("mj,jk,mk->m", spins, np.triu(couplings, 1), spins)
        for terms in (None, g.uniform(-3, 3, L)):
            energy = pair if terms is None else pair + spins @ terms
            phase = _kernels.ising_phase(couplings, terms)
            assert np.max(np.abs(phase - np.exp(-1j * energy))) < 1e-13
            assert np.max(np.abs(np.abs(phase) - 1.0)) < 1e-14


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
    # z-axis wiring (d), an x-axis register, an x-axis model whose first
    # central site is not its lowest one (the D_mean qubit moves), and
    # models whose central sites have different frames
    g = qdeco.rng(18)
    ring, _ = ki.build_env_config("d", 5, 0.2, (1.4, 1.4, 0), (1.4, 1.4, 0))
    register = ki.build_memory_model(5, 2, (0, 3), 0.2, (0.9, 0.9, 0))
    j = np.triu(g.uniform(-1, 1, (7, 7)), 1)
    mixed = ki.KIModel(7, j + j.T, g.uniform(-1, 1, (7, 3)), axis="x",
                       central_sites=(5, 1, 3))
    # kicks with a y component, a zero-field central site and bath site
    fields = np.tile([0.4, 0.9, -0.6], (6, 1))
    fields[1] = fields[4] = 0.0
    j = np.triu(g.uniform(-1, 1, (6, 6)), 1)
    tilted = [ki.KIModel(6, j + j.T, fields, axis=axis, central_sites=(1, 3))
              for axis in ("z", "x")]
    for model in (ring, register, mixed, *tilted):
        central = qstate.random_state(1 << len(model.central_sites), g)
        psi0 = ki.initial_state(model, central, g)
        tr = ki.evolve_ki(model, psi0, 12)
        want = _dense_trajectory(model, psi0, 12)
        got = [tr.purity, tr.entropy, tr.offdiag]
        got += [] if tr.concurrence is None else [tr.concurrence]
        assert np.max(np.abs(np.column_stack(got) - want)) < 1e-10


def _two_model_jobs(count):
    models = [ki.build_env_config(kind, 4, 0.3, (1.4, 1.4, 0), (1.4, 1.4, 0))[0]
              for kind in ("d", "e")]
    return [(models[i % 2], lambda i=i: ki.initial_state(
        models[i % 2], qstate.ghz_state(2), qdeco.rng(i))) for i in range(count)]


def test_evolve_many_keeps_job_order_under_contention(monkeypatch):
    # many tiny jobs of two models in more processes than cores: a job run
    # twice, lost or returned under another index breaks the order of the
    # results
    jobs = _two_model_jobs(64)
    want = [ki.evolve_ki(model, initial(), 6) for model, initial in jobs]
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    got = ki.evolve_many(jobs, 6, workers=8)
    assert len(forks) == 7
    for tr, ref in zip(got, want, strict=True):
        assert tr.purity.tobytes() == ref.purity.tobytes()
        assert tr.concurrence.tobytes() == ref.concurrence.tobytes()


def test_evolve_many_beside_other_threads_does_not_fork(monkeypatch):
    # a process that runs other Python threads does not fork: it steps the
    # jobs one after another
    jobs = _two_model_jobs(4)
    want = [ki.evolve_ki(model, initial(), 6) for model, initial in jobs]
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
    done = []
    worker = threading.Thread(
        target=lambda: done.append(ki.evolve_many(jobs, 6, workers=4)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(done) == 1
    for tr, ref in zip(done[0], want, strict=True):
        assert tr.purity.tobytes() == ref.purity.tobytes()


class JobFailed(Exception):
    pass


@pytest.mark.parametrize("in_child", [True, False])
@pytest.mark.parametrize("error", [JobFailed("realization 3 failed"),
                                   KeyboardInterrupt("realization 3 stopped")])
def test_job_errors_reach_the_caller_and_no_child_outlives_them(monkeypatch, error,
                                                               in_child):
    # a job that raises, in a child or in the calling process, raises in the
    # caller with its type and message, and every child has been reaped by
    # then
    parent, evolve_ki = os.getpid(), ki.evolve_ki
    jobs = _two_model_jobs(8)

    def failing(*args):
        if (os.getpid() != parent) == in_child:
            raise error
        return evolve_ki(*args)

    monkeypatch.setattr(ki, "evolve_ki", failing)
    with pytest.raises(type(error)) as raised:
        ki.evolve_many(jobs, 6, workers=4)
    assert str(raised.value) == str(error)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    central = qstate.two_qubit_pair_general(0.4, 0.6, 0.0)
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
