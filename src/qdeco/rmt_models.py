"""Random-matrix decoherence models: assemble, evolve, average.

Subsystem layout: the state of n central qubits coupled to one or two
environments is a tensor with axes (q_{n-1}, ..., q_0, env_0[, env_1]) in C
order, so the flattened central index is the little-endian qubit index and a
product state is a plain Kronecker product.  Coupling i acts on qubit i, so
the coupled qubits come first; in the spectator configuration qubit 1 is the
uncoupled spectator.

Environment spectra default to the ensemble's level fluctuations unfolded to
a flat density with the central mean level spacing (Heisenberg time
2 sqrt(N_env)), which is the regime the analytic purity formulas describe;
``env_spectrum="raw"`` keeps the sampled semicircle spectrum instead.

Evolution never exponentiates per step: each realization is diagonalized
once and reused for every initial condition and time (the couplings that do
not factorize, joint and n-qubit, diagonalize the full space; the others
diagonalize qubit+environment blocks, ``separate`` in the product of its
two block eigenbases; real GOE blocks by divide and conquer, ``dsyevd``,
complex GUE ones by ``zheevr``).  Each qubit+environment block is built
inside its drawn coupling matrix, and every matrix is diagonalized inside
itself (``_lapack``), so one copy of it is alive: a GOE block's
eigenvectors overwrite it.  A batch of initial states is projected into the
eigenbasis inside its own array; each slice of times is one phase product
into the slice's buffer and one GEMM per block back there, and the Monte
Carlo reduces each slice to the central density matrices as it comes, so
its memory does not grow with the time grid.  A call with several
Hamiltonians runs each on one BLAS thread, in forked processes (``_each``),
so its output depends on neither the cores nor the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack, metrics, qstate
from .errors import ConfigError, ResourceLimitError
from .linear_response import LAYOUTS, InitParams, second_qubit
from .rmt import EnsembleSpec, sample_matrix, unfold
from .trajectory import Trajectory, average, measure

MAX_TOTAL_DIM = 1 << 14


@dataclass(frozen=True)
class ModelSpec:
    """Structure of one decoherence model.

    configuration: one-qubit | spectator | separate | joint | n-qubit
    n_env:         environment dimension (scalar broadcasts to separate's two)
    ensemble:      "GOE" or "GUE" for both the bath and the coupling
    coupling:      strength per coupled qubit (scalar broadcasts)
    delta:         level splitting per central qubit (coupled ones first)
    n_qubits:      central qubits (only the n-qubit configuration varies it)
    env_spectrum:  "unfolded" (default) or "raw"
    """

    configuration: str
    n_env: int | tuple[int, ...]
    ensemble: str = "GUE"
    coupling: float | tuple[float, ...] = 0.0
    delta: float | tuple[float, ...] = 0.0
    n_qubits: int | None = None
    env_spectrum: str = "unfolded"

    def __post_init__(self):
        if self.configuration not in LAYOUTS:
            raise ConfigError(f"unknown configuration {self.configuration!r}")
        if self.ensemble not in ("GOE", "GUE"):
            raise ConfigError("ensemble must be GOE or GUE")
        if self.env_spectrum not in ("unfolded", "raw"):
            raise ConfigError("env_spectrum must be 'unfolded' or 'raw'")
        cap = LAYOUTS[self.configuration][3]
        for n in self.env_dims:
            if n < 2:
                raise ConfigError("environment dimension must be at least 2")
            if n > cap:
                raise ResourceLimitError(
                    f"{self.configuration}: environment dimension {n} exceeds "
                    f"the desk cap {cap}"
                )
        if self.total_dim > MAX_TOTAL_DIM:
            raise ResourceLimitError(
                f"total dimension {self.total_dim} = 2^{self.num_qubits} * "
                f"{'x'.join(str(n) for n in self.env_dims)} exceeds {MAX_TOTAL_DIM}"
            )
        if len(self.couplings) != self.num_coupled:
            raise ConfigError(
                f"{self.configuration} takes {self.num_coupled} coupling(s)")
        self.deltas  # validate length

    @property
    def num_qubits(self) -> int:
        n = LAYOUTS[self.configuration][0] or self.n_qubits
        if n is None or n < 1:
            raise ConfigError("n-qubit configuration needs n_qubits >= 1")
        return n

    @property
    def num_coupled(self) -> int:
        return LAYOUTS[self.configuration][1] or self.num_qubits

    @property
    def env_dims(self) -> tuple[int, ...]:
        n, count = self.n_env, LAYOUTS[self.configuration][2]
        if isinstance(n, (tuple, list)):
            dims = tuple(int(x) for x in n)
        else:
            dims = (int(n),) * count
        if len(dims) != count:
            raise ConfigError(
                f"{self.configuration} takes {count} environment dimension(s)")
        return dims

    @property
    def couplings(self) -> tuple[float, ...]:
        lam = self.coupling
        if isinstance(lam, (tuple, list)):
            return tuple(float(x) for x in lam)
        return (float(lam),) * self.num_coupled

    @property
    def deltas(self) -> tuple[float, ...]:
        d = self.delta
        if isinstance(d, (tuple, list)):
            out = tuple(float(x) for x in d)
            if len(out) != self.num_qubits:
                raise ConfigError("need one splitting per central qubit")
            return out
        return (float(d),) * self.num_qubits

    @property
    def total_dim(self) -> int:
        return (1 << self.num_qubits) * int(np.prod(self.env_dims))

    def nominal_tau_h(self, which: int = 0) -> float:
        """Heisenberg time at the spectrum center, 2 sqrt(N_env)."""
        return 2.0 * np.sqrt(self.env_dims[which])

    def env_of_coupling(self, i: int) -> int:
        return i if self.configuration == "separate" else 0


def _qubit_energies(delta: float) -> np.ndarray:
    return np.array([delta / 2.0, -delta / 2.0])


def _env_energies(spec: ModelSpec, dim: int, gen) -> np.ndarray:
    raw = _lapack.eigvalsh(sample_matrix(EnsembleSpec(spec.ensemble, dim), gen))
    if spec.env_spectrum == "raw":
        return np.sort(raw)
    flat = unfold(raw).energies
    return np.sort(flat) * (np.pi / np.sqrt(dim))  # mean spacing pi/sqrt(N)


def _draw_coupling(spec: ModelSpec, env_dim: int, gen) -> np.ndarray:
    """Real symmetric for GOE, so its blocks diagonalize in real arithmetic."""
    return sample_matrix(EnsembleSpec(spec.ensemble, 2 * env_dim), gen)


def draw_realization(spec: ModelSpec, gen):
    """One member of the ensemble: environment spectra, then couplings, in a
    fixed order so layouts sharing a seed share their draws."""
    env_energies = [_env_energies(spec, n, gen) for n in spec.env_dims]
    couplings = [_draw_coupling(spec, spec.env_dims[spec.env_of_coupling(i)], gen)
                 for i in range(spec.num_coupled)]
    return env_energies, couplings


# ---------------------------------------------------------------------------
# dense assembly
# ---------------------------------------------------------------------------

def _dims_of(spec: ModelSpec) -> list[int]:
    # axes: (q_{n-1}, ..., q_0, env...)
    return [2] * spec.num_qubits + list(spec.env_dims)


def _axis_of_qubit(spec: ModelSpec, qubit: int) -> int:
    return spec.num_qubits - 1 - qubit


def _axis_of_env(spec: ModelSpec, env: int) -> int:
    return spec.num_qubits + env


def _embed_add(h, op, dims, axes, scale=1.0):
    """h += scale * op acting on ``axes`` (identity elsewhere), in place.

    ``h`` has shape dims + dims; ``op`` is a matrix over prod(dims[axes]).
    """
    n = len(dims)
    rest = [i for i in range(n) if i not in axes]
    perm = list(axes) + rest
    hv = h.transpose(perm + [p + n for p in perm])
    da = [dims[a] for a in axes]
    opt = op.reshape(da + da)
    if scale != 1.0:
        opt = scale * opt
    k = len(axes)
    for r in np.ndindex(*[dims[i] for i in rest]):
        idx = (slice(None),) * k + r + (slice(None),) * k + r
        hv[idx] += opt


def _assemble(spec: ModelSpec, env_energies, couplings) -> np.ndarray:
    dims = _dims_of(spec)
    h = np.zeros(dims + dims, dtype=np.result_type(float, *couplings))
    for q, delta in enumerate(spec.deltas):
        if delta != 0.0:
            _embed_add(h, np.diag(_qubit_energies(delta)), dims,
                       [_axis_of_qubit(spec, q)])
    for e, energies in enumerate(env_energies):
        _embed_add(h, np.diag(energies), dims, [_axis_of_env(spec, e)])
    for i, (lam, v) in enumerate(zip(spec.couplings, couplings)):
        if lam != 0.0:
            _embed_add(h, v, dims,
                       [_axis_of_qubit(spec, i),
                        _axis_of_env(spec, spec.env_of_coupling(i))],
                       scale=lam)
    d = int(np.prod(dims))
    return h.reshape(d, d)


def build_hamiltonian(spec: ModelSpec, gen):
    """Dense Hamiltonian: local splittings + environment terms + couplings.

    Returns (H, info); info carries the drawn spectra and the nominal
    Heisenberg time(s).
    """
    env_energies, couplings = draw_realization(spec, gen)
    h = _assemble(spec, env_energies, couplings)
    info = {
        "env_energies": env_energies,
        "tau_h": tuple(spec.nominal_tau_h(i) for i in range(len(spec.env_dims))),
        "dims": _dims_of(spec),
    }
    return h, info


def evolve(h, psi0, times):
    """exp(-i H t) psi0 on every time of the grid, via one diagonalization."""
    from scipy.linalg import eigh
    h = np.asarray(h)
    if np.max(np.abs(h - h.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(h))):
        raise ValueError("Hamiltonian is not Hermitian")
    # scipy's copying evr on the whole matrix, apart from _Block's in-place
    # _lapack calls: an independent check
    energies, q = eigh(h, driver="evr")
    y = q.conj().T @ np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    return (q @ (np.exp(-1j * np.outer(energies, times)) * y[:, None])).T


# ---------------------------------------------------------------------------
# factorized propagation (the Monte Carlo workhorse)
# ---------------------------------------------------------------------------

_TIME_SLICE = 8  # times per back-transform GEMM, and per reduction


class _Block:
    """Eigendecomposed sub-Hamiltonian acting on a group of state axes.  The
    matrix is consumed: LAPACK diagonalizes it in place (``_lapack``), and a
    real one holds its eigenvectors afterwards."""

    def __init__(self, matrix, axes):
        self.energies, self.q = _lapack.eigh(matrix)
        self.axes = tuple(axes)


def _rotate_rows(rows, q, adjoint: bool):
    """rows <- rows conj(Q) (``adjoint``) or rows Q^T, in place."""
    if np.iscomplexobj(q):
        if adjoint:  # conj(conj(rows) Q): no conjugated copy of Q
            np.conjugate(rows, out=rows)
            np.matmul(rows, q, out=rows)
            np.conjugate(rows, out=rows)
        else:
            np.matmul(rows, q.T, out=rows)
        return
    plane = np.empty(rows.shape)
    for part in ("real", "imag"):
        np.matmul(np.ascontiguousarray(getattr(rows, part)), q if adjoint else q.T,
                  out=plane)
        getattr(rows, part)[...] = plane


class Propagator:
    """One ensemble member with its diagonalizations done, reusable across
    initial conditions and times (the expensive part of a realization)."""

    def __init__(self, spec: ModelSpec, gen):
        self.spec = spec
        self.dims = _dims_of(spec)
        env_energies, couplings = draw_realization(spec, gen)
        self.blocks: list[_Block] = []
        phase_axes = []
        if spec.configuration in ("joint", "n-qubit"):
            h = _assemble(spec, env_energies, couplings)
            del couplings  # only the assembled matrix is alive during eigh
            self.blocks.append(_Block(h, range(len(self.dims))))
        else:
            for qubit, lam in enumerate(spec.couplings):
                # the block lam V + delta_q (x) 1 + 1 (x) E_env, built inside
                # the drawn V, which is released once diagonalized
                v, couplings[qubit] = couplings[qubit], None
                env = spec.env_of_coupling(qubit)
                v *= lam
                v.reshape(-1)[::len(v) + 1] += np.add.outer(
                    _qubit_energies(spec.deltas[qubit]), env_energies[env]).ravel()
                self.blocks.append(
                    _Block(v, (_axis_of_qubit(spec, qubit), _axis_of_env(spec, env))))
            phase_axes = [((_axis_of_qubit(spec, q),), _qubit_energies(spec.deltas[q]))
                          for q in range(spec.num_coupled, spec.num_qubits)]
        # eigenstate energies: block energies plus uncoupled splittings
        energy = np.zeros(self.dims)
        for axes, e in [(b.axes, b.energies) for b in self.blocks] + phase_axes:
            energy = energy + e.reshape(
                [n if a in axes else 1 for a, n in enumerate(self.dims)])
        self.energies = energy.ravel()

    def _rotate(self, x, adjoint: bool):
        """x <- Q^dagger x (``adjoint``) or Q x in place, for C-ordered states
        on the last axis: one GEMM per block over the other axes, or one per
        real and imaginary part for a real Q.  Trailing block axes make that
        a reshape; other axes go through a transposed copy."""
        shape = x.shape[:-1] + tuple(self.dims)
        for b in self.blocks:
            axes = [a + x.ndim - 1 for a in b.axes]
            perm = [a for a in range(len(shape)) if a not in axes] + axes
            view = x.reshape(shape).transpose(perm)
            rows = view.reshape(-1, len(b.q))  # a view of x when trailing
            _rotate_rows(rows, b.q, adjoint)
            if perm != sorted(perm):
                view[...] = rows.reshape(view.shape)
            del rows  # a copy is freed before the next block's

    def _slices(self, psi, times, out=None):
        """Evolve a C-ordered batch psi (batch, total_dim) slice of times by
        slice, yielding each slice's first time index and its states
        (len(slice), batch, total_dim).  These land in ``out`` when given,
        else in one buffer that the next slice overwrites.  The batch is
        projected into the eigenbasis once, inside ``psi``, which is
        consumed; each slice multiplies its phases into its buffer and
        rotates that back in place."""
        self._rotate(psi, adjoint=True)
        if out is None:
            buffer = np.empty((min(len(times), _TIME_SLICE),) + psi.shape, dtype=complex)
        for k in range(0, len(times), _TIME_SLICE):
            t = times[k:k + _TIME_SLICE]
            dst = buffer[:len(t)] if out is None else out[k:k + len(t)]
            phases = np.exp(-1j * np.multiply.outer(t, self.energies))[:, None, :]
            np.multiply(phases, psi, out=dst)
            del phases  # freed before the rotation's scratch
            self._rotate(dst, adjoint=False)
            yield k, dst

    def states(self, psi0, times):
        """Evolve a batch of initial states.

        psi0: (batch, total_dim) or (total_dim,); returns
        (len(times), batch, total_dim) or (len(times), total_dim).
        """
        single = np.ndim(psi0) == 1
        psi = np.atleast_2d(np.array(psi0, dtype=complex))  # a copy to consume
        times = np.asarray(times, dtype=float)
        out = np.empty((len(times),) + psi.shape, dtype=complex)
        for _ in self._slices(psi, times, out):
            pass
        return out[:, 0, :] if single else out

    def central_states(self, psi0s, times, groups: int = 1):
        """Central density matrices of a batch of evolved states, shaped
        (groups, len(times), batch // groups, d, d): group g holds the
        consecutive initial states g * batch // groups onwards.  Each slice
        of times is reduced, group by group, as soon as it is computed, so
        the memory does not grow with the time grid beyond these matrices.
        ``psi0s`` is consumed when it is a C-ordered complex array."""
        psi = np.ascontiguousarray(psi0s, dtype=complex)
        times = np.asarray(times, dtype=float)
        d = 1 << self.spec.num_qubits
        rhos = np.empty((groups, len(times), len(psi) // groups, d, d), dtype=complex)
        for k, states in self._slices(psi, times):
            for rho, part in zip(rhos, np.split(states, groups, axis=1)):
                rho[k:k + len(states)] = reduce_central(self.spec, part)
        return rhos


# ---------------------------------------------------------------------------
# initial states and observables
# ---------------------------------------------------------------------------

def central_state(spec: ModelSpec, params: InitParams,
                  params2: InitParams | None = None) -> np.ndarray:
    """Canonical central state: the (theta, phi, eta) pair family, a single
    qubit, or a GHZ register for the n-qubit configuration."""
    if spec.configuration == "one-qubit":
        return qstate.schmidt_pair(params.phi, params.eta)[0]
    if spec.configuration in ("spectator", "separate", "joint"):
        p2 = second_qubit(params, params2)
        return qstate.two_qubit_pair_general(params.theta, params.phi, params.eta,
                                             p2.phi, p2.eta)
    return qstate.ghz_state(spec.num_qubits)


def initial_state(spec: ModelSpec, central, gen) -> np.ndarray:
    """central (x) fresh random environment state(s)."""
    psi = np.asarray(central, dtype=complex)
    for n in spec.env_dims:
        psi = np.multiply.outer(psi, qstate.random_state(n, gen)).ravel()
    return psi


def reduce_central(spec: ModelSpec, psi) -> np.ndarray:
    """Central density matrices of states with shape (..., total_dim):
    rho[a, b] = sum_k m[a, k] conj(m[b, k]), with no conjugated copy of
    the states."""
    psi = np.asarray(psi)
    m = psi.reshape(psi.shape[:-1] + (1 << spec.num_qubits, -1))
    return np.vecdot(m[..., None, :, :], m[..., :, None, :])


def _measure(rhos, times) -> Trajectory:
    """Observables of central density matrices shaped (len(times), ..., d,
    d); the series come out shaped (..., len(times))."""
    return measure(times, np.moveaxis(rhos, 0, -3))


def planned_bytes(spec: ModelSpec, n_times: int, n_hamiltonians: int,
                  batch: int, workers: int = 1) -> int:
    """Bytes of the arrays a ``monte_carlo`` run on ``workers`` processes
    holds at its peak, all of them together, 64 KiB of small ones aside: a
    spawned generator (1.0 KB traced, up to 2.4 KB resident) and two copies
    of the observable series per Hamiltonian; and in each process that runs
    one, its eigenstate energies, initial states, a slice of times with its
    rotation's scratch (one slice, two for ``separate``'s transposed copy) or
    its phases and their temporary, its central density matrices, each block
    once, and beside the largest while it is diagonalized, LAPACK's
    workspace.  That is ``dsyevd``'s 2 n^2 + 6 n + 1 doubles and 5 n + 3
    integers, or ``zheevr``'s eigenvector matrix with 33 n complex numbers
    (OpenBLAS's block size, 32, plus one), 24 n doubles and 10 n integers."""
    item = 8 if spec.ensemble == "GOE" else 16
    blocks = ([spec.total_dim] if spec.configuration in ("joint", "n-qubit")
              else [2 * n for n in spec.env_dims])  # one block per bath
    n = max(blocks)
    work = (8 * (2 * n * n + 11 * n + 4) if spec.ensemble == "GOE"
            else 16 * n * n + 800 * n)
    scratch = max(batch * (2 if spec.configuration == "separate" else 1), 2)
    states = batch + min(n_times, _TIME_SLICE) * (batch + scratch)
    d = 1 << spec.num_qubits
    return (65536 + n_hamiltonians * (2048 + 2 * 4 * 8 * batch * n_times)
            + min(workers, n_hamiltonians) * (
                sum(n * n * item for n in blocks) + work
                + spec.total_dim * (8 + 16 * states) + 16 * n_times * batch * d * d))


def _each(gen, count: int, one, workers: int | None) -> list:
    """``one(g)`` for each of ``count`` generators spawned from ``gen``, in
    order: one here on the library's BLAS threads, several on one thread
    each in up to ``workers`` processes (``_lapack.fan_out``)."""
    gens = gen.spawn(count)
    if count == 1:
        return [one(gens[0])]
    return _lapack.fan_out(lambda i: one(gens[i]), [1] * count, workers)


def monte_carlo(spec: ModelSpec, params: InitParams, times, n_hamiltonians: int,
                n_initials: int, gen, params2: InitParams | None = None,
                params_sampler=None, collect_samples: bool = False,
                workers: int | None = None):
    """Average over n_hamiltonians x n_initials realizations.

    The ensemble member (bath spectrum + coupling) is drawn per Hamiltonian
    and reused across its initial conditions; environment states (and, when
    ``params_sampler`` is given, the central state) are drawn per initial
    condition.  Deterministic for a fixed generator seed: each Hamiltonian
    has a generator spawned from ``gen``, several run in up to ``workers``
    processes (``_each``), and they are averaged in order.  With
    ``collect_samples`` it also returns every sample's purity (and, for two
    qubits, concurrence) series, concatenated.

    ``params_sampler`` may also be a sequence of initial-state families, each
    a sampler or None for the fixed ``params``.  Each Hamiltonian's generator
    then draws n_initials states per family, in sequence order, and one
    ``Propagator.states`` call evolves them all; the result is a list of one
    average per family.  So the first family averages exactly what a
    single-family call with the same generator does.  ``collect_samples``
    takes a single family only (ConfigError otherwise).

    Each Hamiltonian's states are reduced to the central density matrices
    slice of times by slice (``Propagator.central_states``), so no state
    is kept beyond its slice.
    """
    if n_hamiltonians < 1 or n_initials < 1:
        raise ConfigError("realization counts must be at least 1")
    several = not (params_sampler is None or callable(params_sampler))
    families = list(params_sampler) if several else [params_sampler]
    if collect_samples and several:
        raise ConfigError("collect_samples takes a single initial-state family")
    t = np.asarray(times, dtype=float)
    samplers = [s for s in families for _ in range(n_initials)]

    # a call per Hamiltonian frees its propagator before the next is built
    def one_hamiltonian(g):
        prop = Propagator(spec, g)
        psi0s = np.empty((len(samplers), spec.total_dim), dtype=complex)
        for i, sampler in enumerate(samplers):
            p = sampler(g) if sampler is not None else params
            psi0s[i] = initial_state(spec, central_state(spec, p, params2), g)
        return [_measure(rhos, t)
                for rhos in prop.central_states(psi0s, t, len(families))]

    batches = _each(gen, n_hamiltonians, one_hamiltonian, workers)
    avgs = [average(family) for family in zip(*batches)]
    if several:
        return avgs
    if collect_samples:
        names = ("purity", "concurrence") if spec.num_qubits == 2 else ("purity",)
        return avgs[0], {k: np.concatenate([getattr(tr[0], k) for tr in batches])
                         for k in names}
    return avgs[0]


def unitality_experiment(spec: ModelSpec, times, n_realizations: int, gen,
                         workers: int | None = None) -> np.ndarray:
    """Mean Bloch-vector norm of the coupled qubit when the initial state
    carries a fully mixed qubit: (|0>|e0> + |1>|e1>)/sqrt(2) with
    orthonormal environment states.  Zero for an exactly unital channel."""
    if spec.configuration != "one-qubit":
        raise ConfigError("the unitality probe runs in the one-qubit layout")
    t = np.asarray(times, dtype=float)

    def one(g):  # as in monte_carlo, one propagator alive at a time
        prop = Propagator(spec, g)
        ne = spec.env_dims[0]
        e0 = qstate.random_state(ne, g)
        e1 = qstate.random_state(ne, g)
        e1 = e1 - (e0.conj() @ e1) * e0
        e1 /= np.linalg.norm(e1)
        assert abs(e0.conj() @ e1) < 1e-12
        psi0 = np.concatenate([e0, e1]) / np.sqrt(2.0)
        return metrics.unitality_distance(
            prop.central_states(psi0[None], t)[0, :, 0])

    return np.mean(_each(gen, n_realizations, one, workers), axis=0)
