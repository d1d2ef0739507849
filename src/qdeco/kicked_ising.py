"""Kicked Ising spin networks on a register state vector.

One period applies all pairwise Ising phases, then all single-site magnetic
kicks.  Ising couplings act along a single axis per model ('z' or 'x');
kick fields are specified relative to that axis as
(parallel, transverse, transverse), so (0, 1.53, 0) is a transverse kick
(integrable chain) and (1.4, 1.4, 0) a tilted one (chaotic) for either axis
choice.  Sites are register bits (little-endian).

Each model builds its period once, in the Ising-axis basis (the
Hadamard-rotated one for axis 'x'), and keeps it.  The Ising terms commute
and are diagonal there.  Each kick splits into a phase layer, a real
rotation and a second phase layer; the phase layers go into a per-site frame
and into the one phase vector, so a period is one complex phase multiply
and a few fused real rotations (``_kernels``).  Trajectories stay in the
frame, and only the small reduced density matrices are rotated back.
``evolve_many`` steps a run's independent evolutions in forked processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import _kernels, _lapack, qstate
from .errors import ConfigError, ResourceLimitError
from .trajectory import Trajectory, measure

MAX_SPINS = 20  # one state vector of 2^20 amplitudes is 16 MiB
MAX_SPECTRUM_SPINS = 12

# Reference kick fields, in (parallel, transverse, transverse) components.
FIELD_PRESETS = {
    "chaotic": (1.4, 1.4, 0.0),
    "chaotic-soft": (0.9, 0.9, 0.0),   # used with ring coupling 0.7 or 1.0
    "integrable": (0.0, 1.53, 0.0),
    "intermediate": (0.8, 1.4, 0.0),
}


def field_to_cartesian(b, axis: str) -> np.ndarray:
    """(parallel, t1, t2) relative to the Ising axis -> Cartesian (x, y, z)."""
    par, t1, t2 = (float(x) for x in b)
    if axis == "z":
        return np.array([t1, t2, par])
    if axis == "x":
        return np.array([par, t1, t2])
    raise ConfigError(f"Ising axis must be 'z' or 'x', got {axis!r}")


@dataclass
class KIModel:
    """Pairwise Ising couplings and per-site kick fields.

    couplings[j, k] is symmetric with zero diagonal; fields[j] is the
    Cartesian kick vector of site j; coupling_pairs lists the (site, site)
    entries that couple the central system to its bath (``memory-sumrule``
    reads its register's ring positions from them and zeroes the coupling of
    each variant's partner qubit).  The period is built on first use and kept
    on the instance; derive changed models with ``dataclasses.replace``
    rather than editing the arrays in place.
    """

    num_spins: int
    couplings: np.ndarray
    fields: np.ndarray
    axis: str = "z"
    central_sites: tuple[int, ...] = (0, 1)
    coupling_pairs: tuple[tuple[int, int], ...] = ()
    env_sections: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        self.couplings = np.asarray(self.couplings, dtype=float)
        self.fields = np.asarray(self.fields, dtype=float)
        L = self.num_spins
        if L > MAX_SPINS:
            raise ResourceLimitError(
                f"kicked-Ising register capped at {MAX_SPINS} spins, got {L}")
        if self.couplings.shape != (L, L):
            raise ConfigError("couplings must be an L x L matrix")
        if self.fields.shape != (L, 3):
            raise ConfigError("fields must be L x 3")
        if np.any(self.couplings != self.couplings.T):
            raise ConfigError("couplings must be symmetric")
        if np.any(np.diag(self.couplings) != 0.0):
            raise ConfigError("couplings must have zero diagonal")
        if self.axis not in ("z", "x"):
            raise ConfigError("Ising axis must be 'z' or 'x'")

    @property
    def dim(self) -> int:
        return 1 << self.num_spins

    @property
    def central_mask(self) -> int:
        return sum(1 << s for s in self.central_sites)

    @cached_property
    def _period(self) -> "_Period":
        return _Period(self)


@dataclass(frozen=True)
class EnvConfig:
    """Bath wiring summary: the normalized coupling and the sector-
    aware Heisenberg-time estimate of the environment spectrum."""
    j_normalized: float
    tau_h_estimate: float


def kick_matrix(b_cartesian) -> np.ndarray:
    """exp(-i b.sigma) = cos|b| - i sin|b| (unit_b . sigma)."""
    b = np.asarray(b_cartesian, dtype=float)
    r = np.linalg.norm(b)
    if r == 0.0:
        return np.eye(2, dtype=complex)
    n = b / r
    c, s = np.cos(r), np.sin(r)
    return np.array([
        [c - 1j * s * n[2], -1j * s * (n[0] - 1j * n[1])],
        [-1j * s * (n[0] + 1j * n[1]), c + 1j * s * n[2]],
    ])


def split_kick(u):
    """Factor a one-site unitary as ``diag(l) @ r @ diag(c)``: ``r`` a real
    rotation, ``l`` and ``c`` unit phases (z-y-z Euler angles, Nielsen &
    Chuang Thm 4.1).  With s = sqrt(det u), u / s = [[A, -B*], [B, A*]];
    for a, b the phases of A, B, l = s (a, b) and c = (1, conj(a b)) leave
    r = [[|A|, -|B|], [|B|, |A|]]."""
    det = complex(np.linalg.det(u))
    s = np.sqrt(det / abs(det))
    A, B = u[0, 0] / s, u[1, 0] / s
    a = A / abs(A) if A else 1.0
    b = B / abs(B) if B else 1.0
    norm = np.hypot(abs(A), abs(B))
    cos, sin = abs(A) / norm, abs(B) / norm
    r = np.array([[cos, -sin], [sin, cos]])
    return s * np.array([a, b]), r, np.array([1.0, np.conj(a * b)])


def _split_site(b, h):
    """(frame gate f_j, real rotation r_j, Ising-axis term t_j) of one
    site's kick with Cartesian field ``b``; ``h`` is the Hadamard for axis
    'x', else None.  ``None`` stands for an identity gate."""
    u = kick_matrix(b)
    l, r, c = split_kick(u if h is None else h @ u @ h)
    identity = h is None and np.all(l == 1.0)
    frame = None if identity else np.diag(l) if h is None else h * l
    # a kick has unit determinant, so c_j l_j = exp(-i t_j s_j)
    ang = np.angle(c * l)
    return frame, None if r[1, 0] == 0.0 else r, 0.5 * (ang[1] - ang[0])


class _Period:
    """One period in a per-site frame of the Ising-axis basis.

    Each kick, conjugated by H for axis 'x', splits as diag(l_j) r_j
    diag(c_j) (``split_kick``).  With F the per-site frame gates
    f_j = H diag(l_j) (diag(l_j) for axis 'z'), R the real kicks r_j and P
    the Ising phases times every site's phases c_j l_j, the period is
    U = F R P F^dagger, so U^n = F (R P)^n F^dagger.  ``phase`` is P, the one
    array of the register's length, ``kicks`` the fused real runs of R, and
    ``enter``/``leave`` the fused runs of F^dagger and F; ``frame`` keeps
    each site's f_j (``None`` for the identity)."""

    def __init__(self, model: KIModel):
        h = _kernels.HADAMARD if model.axis == "x" else None
        # sites with the same field (to the bit) share one split kick
        distinct = {b.tobytes(): b for b in model.fields}
        parts = {key: _split_site(b, h) for key, b in distinct.items()}
        self.frame, rotations, terms = (
            list(x) for x in zip(*[parts[b.tobytes()] for b in model.fields]))
        self.phase = _kernels.ising_phase(model.couplings, terms)
        self.kicks = _kernels.fuse(rotations)
        self.enter = _kernels.fuse([None if f is None else f.conj().T
                                    for f in self.frame])
        self.leave = _kernels.fuse(self.frame)

    def step(self, psi, spare):
        """Advance ``psi`` one period in the frame; returns ``(result,
        spare)``."""
        psi *= self.phase
        return _kernels.apply_groups(self.kicks, psi, spare)


def floquet_step(psi, model: KIModel):
    """One period in the original basis, in place: all Ising phases, then
    all kicks.  Leading axes of ``psi`` are a batch of states."""
    period = model._period
    out, spare = _kernels.apply_groups(period.enter, psi, np.empty_like(psi))
    out, spare = period.step(out, spare)
    out, _ = _kernels.apply_groups(period.leave, out, spare)
    if out is not psi:
        psi[...] = out
    return psi


# ---------------------------------------------------------------------------
# wiring of the bath configurations
# ---------------------------------------------------------------------------

def _ring_bonds(sites):
    return [(sites[i], sites[(i + 1) % len(sites)]) for i in range(len(sites))]


def _chain_bonds(sites):
    return [(sites[i], sites[i + 1]) for i in range(len(sites) - 1)]


def build_env_config(kind: str, q_env: int, j_prime: float, b_central,
                     b_env, j_env: float = 1.0, axis: str = "z"):
    """Two central spins (sites 0, 1) against a q_env-spin bath (sites 2..).

    Kinds: (a) open chain, one end coupled to qubit 1 of the pair;
    (b) open chain, both ends coupled (joint bath); (c) two half chains,
    one end each (separate baths); (d) ring with qubit 1 coupled to every
    bath spin (symmetry kept); (e) ring with a single coupling spot;
    (f) two half rings, each fully coupled to one qubit.
    """
    if q_env < 4:
        raise ConfigError("need at least 4 bath spins")
    L = q_env + 2
    env = list(range(2, L))
    half = q_env // 2
    if kind in ("c", "f") and q_env % 2:
        raise ConfigError(f"configuration ({kind}) splits the bath in two; "
                          "q_env must be even")
    if kind == "a":
        bonds, cpl, sections = _chain_bonds(env), [(1, 2)], (tuple(env),)
        norm, tau = j_prime, 2.0**q_env
    elif kind == "b":
        bonds, cpl, sections = _chain_bonds(env), [(1, 2), (0, L - 1)], (tuple(env),)
        norm, tau = np.sqrt(2) * j_prime, 2.0**q_env
    elif kind == "c":
        sec_a, sec_b = env[:half], env[half:]
        bonds = _chain_bonds(sec_a) + _chain_bonds(sec_b)
        cpl = [(1, sec_a[0]), (0, sec_b[0])]
        sections = (tuple(sec_a), tuple(sec_b))
        norm, tau = np.sqrt(2) * j_prime, 2.0 ** (q_env / 2)
    elif kind == "d":
        bonds, cpl, sections = _ring_bonds(env), [(1, e) for e in env], (tuple(env),)
        norm, tau = np.sqrt(q_env) * j_prime, 2.0**q_env / q_env
    elif kind == "e":
        bonds, cpl, sections = _ring_bonds(env), [(1, 2)], (tuple(env),)
        norm, tau = j_prime, 2.0**q_env
    elif kind == "f":
        sec_a, sec_b = env[:half], env[half:]
        bonds = _ring_bonds(sec_a) + _ring_bonds(sec_b)
        cpl = [(1, e) for e in sec_a] + [(0, e) for e in sec_b]
        sections = (tuple(sec_a), tuple(sec_b))
        norm, tau = np.sqrt(q_env) * j_prime, 2.0 ** (q_env / 2) / half
    else:
        raise ConfigError(f"unknown bath configuration {kind!r}; use a..f")

    j = np.zeros((L, L))
    for a, b in bonds:
        j[a, b] = j[b, a] = j_env
    for a, b in cpl:
        j[a, b] = j[b, a] = j_prime
    fields = np.zeros((L, 3))
    fields[0] = fields[1] = field_to_cartesian(b_central, axis)
    for e in env:
        fields[e] = field_to_cartesian(b_env, axis)
    model = KIModel(L, j, fields, axis=axis, central_sites=(0, 1),
                    coupling_pairs=tuple(cpl), env_sections=sections)
    return model, EnvConfig(float(norm), float(tau))


def build_memory_model(env_spins: int, n_memory: int, positions, coupling: float,
                       b, j_env: float = 1.0, axis: str = "x") -> KIModel:
    """n_memory uncoupled register qubits attached to a homogeneous kicked
    ring of env_spins spins through two-site couplings at the given ring
    positions (repeats allowed; coupling every qubit to one spin is the
    standard counterexample to the additivity of decoherence).  All sites,
    register included, receive the same kick field.
    """
    if n_memory < 1:
        raise ConfigError("need at least one register qubit")
    if not all(float(p).is_integer() for p in positions):
        raise ConfigError(f"ring positions must be whole site numbers, got {positions}")
    positions = [int(p) for p in positions]
    if len(positions) != n_memory:
        raise ConfigError("one ring position per register qubit")
    if any(not 0 <= p < env_spins for p in positions):
        raise ConfigError(f"ring positions must lie in [0, {env_spins})")
    L = env_spins + n_memory
    j = np.zeros((L, L))
    for a, b_ in _ring_bonds(list(range(env_spins))):
        j[a, b_] = j[b_, a] = j_env
    cpl = []
    for i, p in enumerate(positions):
        mem = env_spins + i
        j[mem, p] = j[p, mem] = coupling
        cpl.append((mem, p))
    fields = np.tile(field_to_cartesian(b, axis), (L, 1))
    return KIModel(L, j, fields, axis=axis,
                   central_sites=tuple(range(env_spins, L)),
                   coupling_pairs=tuple(cpl))


def random_environment_state(model: KIModel, gen) -> np.ndarray:
    """Random pure state of the bath: one state for a connected bath, a
    product of per-section states when the bath is split.  Sections hold
    ascending site numbers, so the product is a plain Kronecker stack."""
    sections = model.env_sections or (
        tuple(s for s in range(model.num_spins) if s not in model.central_sites),)
    psi = None
    for sec in sections:
        amp = qstate.random_state(1 << len(sec), gen)
        psi = amp if psi is None else np.kron(amp, psi)
    return psi


def initial_state(model: KIModel, central, gen) -> np.ndarray:
    """central state on the central sites (x) random bath state(s)."""
    env = random_environment_state(model, gen)
    return qstate.tensor_product(np.asarray(central, dtype=complex), env,
                                 model.central_mask)


# ---------------------------------------------------------------------------
# evolution and diagnostics
# ---------------------------------------------------------------------------

def evolve_ki(model: KIModel, psi0, steps: int, stride: int = 1) -> Trajectory:
    """Stroboscopic trajectory of the central reduction.

    Observables are evaluated at t = 0, stride, 2*stride, ..., steps (kick
    counts).  Concurrence is recorded only for a two-site central system;
    the off-diagonal measure follows the first central site.
    """
    period = model._period
    psi = np.array(psi0, dtype=complex)
    del psi0  # frees a state the caller passed and kept no reference to
    psi, spare = _kernels.apply_groups(period.enter, psi, np.empty_like(psi))
    n_c = len(model.central_sites)
    # the central frame gates back to the original basis, highest site first
    back = reduce(np.kron, [np.eye(2) if period.frame[s] is None
                            else period.frame[s]
                            for s in sorted(model.central_sites, reverse=True)])
    # bit of the first central site within the central reduction
    pos = sorted(model.central_sites).index(model.central_sites[0])
    sampled = list(range(0, steps + 1, stride))
    if sampled[-1] != steps:
        sampled.append(steps)
    rhos = np.empty((len(sampled), 1 << n_c, 1 << n_c), dtype=complex)
    k = 0
    for step in range(steps + 1):
        if step:
            psi, spare = period.step(psi, spare)
        if step == sampled[k]:
            rhos[k] = qstate.partial_trace(psi, model.central_mask)
            k += 1
    rhos = back @ rhos @ back.conj().T
    return measure(sampled, rhos, pos)


def evolve_many(jobs, steps: int, stride: int = 1, workers: int = 1) -> list:
    """``evolve_ki`` of each ``(model, initial)`` job, whose ``initial()``
    builds its starting state, in job order, through ``_lapack.fan_out``:
    largest register first, in up to ``workers`` processes that build their
    own periods and states."""
    def run(i):
        model, initial = jobs[i]
        return evolve_ki(model, initial(), steps, stride)

    return _lapack.fan_out(run, [model.dim for model, _ in jobs], workers)


def floquet_matrix(model: KIModel) -> np.ndarray:
    """Dense one-period operator.  Row c of the stepped identity is U e_c;
    rows are stepped in blocks, so the only large array is the result."""
    if model.num_spins > MAX_SPECTRUM_SPINS:
        raise ResourceLimitError(
            f"dense period operator capped at {MAX_SPECTRUM_SPINS} spins, "
            f"got {model.num_spins}")
    d = model.dim
    rows = np.eye(d, dtype=complex)
    for block in np.array_split(rows, max(1, d // 256)):
        floquet_step(block, model)
    return rows.T


def floquet_spectrum(model: KIModel) -> np.ndarray:
    """Sorted eigenphases of the period operator."""
    ev = np.linalg.eigvals(floquet_matrix(model))
    return np.sort(np.angle(ev))
