"""Random-matrix decoherence models: assemble, evolve, average.

Subsystem layout: the state of n central qubits coupled to one or two
environments is a tensor with axes (q_{n-1}, ..., q_0, env_0[, env_1]) in C
order, so the flattened central index is the little-endian qubit index and a
product state is a plain Kronecker product.  Qubit 0 is always a coupled
qubit; in the spectator configuration qubit 1 is the uncoupled spectator.

Environment spectra default to the ensemble's level fluctuations unfolded to
a flat density with the central mean level spacing (Heisenberg time
2 sqrt(N_env)), which is the regime the analytic purity formulas describe;
``env_spectrum="raw"`` keeps the sampled semicircle spectrum instead.

Evolution never exponentiates per step: each realization is diagonalized
once and reused for every initial condition and time (the couplings that do
not factorize, joint and n-qubit, diagonalize the full space; the others
diagonalize qubit+environment blocks, ``separate`` in the product of its
two block eigenbases; real GOE blocks by divide and conquer, ``evd``,
complex GUE ones by ``evr``).  A batch of initial states is projected into
the eigenbasis once; each slice of times is one phase product and one GEMM
per block back.  That linear algebra all runs on scipy's BLAS: numpy bundles
a second OpenBLAS, whose threads compete with the ones scipy leaves spinning.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigvalsh
from scipy.linalg.blas import dgemm, zgemm

from . import metrics, qstate
from .errors import ConfigError, ResourceLimitError
from .linear_response import InitParams
from .rmt import EnsembleSpec, sample_matrix, unfold
from .trajectory import Trajectory, average, measure

MAX_TOTAL_DIM = 1 << 14
_ENV_CAPS = {"one-qubit": 2048, "spectator": 2048, "separate": 64, "joint": 512,
             "n-qubit": 512}


@dataclass(frozen=True)
class ModelSpec:
    """Structure of one decoherence model.

    configuration: one-qubit | spectator | separate | joint | n-qubit
    n_env:         environment dimension (pair of dims for separate)
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
        if self.configuration not in _ENV_CAPS:
            raise ConfigError(f"unknown configuration {self.configuration!r}")
        if self.ensemble not in ("GOE", "GUE"):
            raise ConfigError("ensemble must be GOE or GUE")
        if self.env_spectrum not in ("unfolded", "raw"):
            raise ConfigError("env_spectrum must be 'unfolded' or 'raw'")
        for n in self.env_dims:
            if n < 2:
                raise ConfigError("environment dimension must be at least 2")
            if n > _ENV_CAPS[self.configuration]:
                raise ResourceLimitError(
                    f"{self.configuration}: environment dimension {n} exceeds "
                    f"the desk cap {_ENV_CAPS[self.configuration]}"
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
        fixed = {"one-qubit": 1, "spectator": 2, "separate": 2, "joint": 2}
        if self.configuration in fixed:
            return fixed[self.configuration]
        if self.n_qubits is None or self.n_qubits < 1:
            raise ConfigError("n-qubit configuration needs n_qubits >= 1")
        return self.n_qubits

    @property
    def num_coupled(self) -> int:
        return {"one-qubit": 1, "spectator": 1, "separate": 2,
                "joint": 2}.get(self.configuration, self.num_qubits)

    @property
    def env_dims(self) -> tuple[int, ...]:
        n = self.n_env
        if isinstance(n, (tuple, list)):
            dims = tuple(int(x) for x in n)
        else:
            dims = (int(n), int(n)) if self.configuration == "separate" else (int(n),)
        if self.configuration == "separate" and len(dims) != 2:
            raise ConfigError("separate environments: n_env must give two dims")
        if self.configuration != "separate" and len(dims) != 1:
            raise ConfigError("this configuration has a single environment")
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

    def qubit_of_coupling(self, i: int) -> int:
        return 0 if self.configuration in ("one-qubit", "spectator") else i

    def env_of_coupling(self, i: int) -> int:
        return i if self.configuration == "separate" else 0


def _qubit_energies(delta: float) -> np.ndarray:
    return np.array([delta / 2.0, -delta / 2.0])


def _env_energies(spec: ModelSpec, dim: int, gen) -> np.ndarray:
    ens = EnsembleSpec(spec.ensemble, dim)
    raw = eigvalsh(sample_matrix(ens, gen), driver="evd")  # as numpy's eigvalsh
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
    opt = scale * op.reshape(da + da)
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
                       [_axis_of_qubit(spec, spec.qubit_of_coupling(i)),
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
    h = np.asarray(h)
    if np.max(np.abs(h - h.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(h))):
        raise ValueError("Hamiltonian is not Hermitian")
    energies, q = eigh(h, driver="evr")  # not _Block's driver: an independent check
    y = q.conj().T @ np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    return (q @ (np.exp(-1j * np.outer(energies, times)) * y[:, None])).T


# ---------------------------------------------------------------------------
# factorized propagation (the Monte Carlo workhorse)
# ---------------------------------------------------------------------------

_TIME_SLICE = 8  # times per back-transform GEMM; bounds the transient memory


class _Block:
    """Eigendecomposed sub-Hamiltonian acting on a group of state axes."""

    def __init__(self, matrix, axes):
        # evd is about twice as fast as evr on real blocks, slower on complex
        self.energies, self.q = eigh(
            matrix, driver="evr" if np.iscomplexobj(matrix) else "evd")
        self.axes = tuple(axes)


class Propagator:
    """One ensemble member with its diagonalizations done, reusable across
    initial conditions and times (the expensive part of a realization)."""

    def __init__(self, spec: ModelSpec, gen):
        self.dims = _dims_of(spec)
        env_energies, couplings = draw_realization(spec, gen)
        self.blocks: list[_Block] = []
        phase_axes = []
        if spec.configuration in ("joint", "n-qubit"):
            self.blocks.append(
                _Block(_assemble(spec, env_energies, couplings),
                       range(len(self.dims))))
        else:
            for i, (lam, v) in enumerate(zip(spec.couplings, couplings)):
                qubit = spec.qubit_of_coupling(i)
                env = spec.env_of_coupling(i)
                ne = spec.env_dims[env]
                hb = (np.kron(np.diag(_qubit_energies(spec.deltas[qubit])), np.eye(ne))
                      + np.kron(np.eye(2), np.diag(env_energies[env]))
                      + lam * v)
                self.blocks.append(
                    _Block(hb, (_axis_of_qubit(spec, qubit), _axis_of_env(spec, env))))
            phase_axes = [((_axis_of_qubit(spec, q),), _qubit_energies(spec.deltas[q]))
                          for q in range(spec.num_coupled, spec.num_qubits)]
        # eigenstate energies: block energies plus uncoupled splittings
        energy = np.zeros(self.dims)
        for axes, e in [(b.axes, b.energies) for b in self.blocks] + phase_axes:
            energy = energy + e.reshape(
                [n if a in axes else 1 for a, n in enumerate(self.dims)])
        self.energies = energy.ravel()

    def _rotate(self, src, dst, adjoint: bool):
        """dst <- Q^dagger src (``adjoint``) or Q src for states on the last
        axis: one GEMM per block over the other axes, or one per real and
        imaginary part for a real Q.  Trailing block axes make that a
        reshape and the GEMM writes straight into dst; other axes go through
        transposed copies, so dst may be src."""
        shape = src.shape[:-1] + tuple(self.dims)
        for b in self.blocks:
            axes = [a + src.ndim - 1 for a in b.axes]
            perm = [a for a in range(len(shape)) if a not in axes] + axes
            x = src.reshape(shape).transpose(perm).reshape(-1, len(b.q))
            view = dst.reshape(shape).transpose(perm)
            trailing = perm == sorted(perm)
            y = view.reshape(x.shape) if trailing else np.empty_like(x)
            # to BLAS, a row-major (rows, n) array is a column-major (n, rows) one
            if np.iscomplexobj(b.q):
                zgemm(1.0, b.q, x.T, trans_a=2 * adjoint, c=y.T, overwrite_c=True)
            else:
                for part in ("real", "imag"):
                    plane = np.ascontiguousarray(getattr(x, part)).T
                    getattr(y, part)[...] = dgemm(1.0, b.q, plane, trans_a=adjoint).T
            if not trailing:
                view[...] = y.reshape(view.shape)
            src = dst

    def states(self, psi0, times):
        """Evolve a batch of initial states.

        psi0: (batch, total_dim) or (total_dim,); returns
        (len(times), batch, total_dim) or (len(times), total_dim).
        The batch is projected into the eigenbasis once; each slice of
        times is one phase product and one GEMM per block back.
        """
        single = np.ndim(psi0) == 1
        psi = np.atleast_2d(np.asarray(psi0, dtype=complex))
        y = np.empty_like(psi)
        self._rotate(psi, y, adjoint=True)
        times = np.asarray(times, dtype=float)
        out = np.empty((len(times),) + psi.shape, dtype=complex)
        for k in range(0, len(times), _TIME_SLICE):
            t = times[k:k + _TIME_SLICE]
            phases = np.exp(-1j * np.multiply.outer(t, self.energies))
            self._rotate(phases[:, None, :] * y, out[k:k + len(t)], adjoint=False)
        return out[:, 0, :] if single else out


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
        p2 = params2 if params2 is not None else InitParams(theta=params.theta)
        return qstate.two_qubit_pair_general(params.theta, params.phi, params.eta,
                                             p2.phi, p2.eta)
    return qstate.ghz_state(spec.num_qubits)


def initial_state(spec: ModelSpec, central, gen) -> np.ndarray:
    """central (x) fresh random environment state(s)."""
    psi = np.asarray(central, dtype=complex)
    for n in spec.env_dims:
        psi = np.kron(psi, qstate.random_state(n, gen))
    return psi


def reduce_central(spec: ModelSpec, psi) -> np.ndarray:
    """Central density matrices of states with shape (..., total_dim):
    rho[a, b] = sum_k m[a, k] conj(m[b, k]), with no conjugated copy of
    the states."""
    psi = np.asarray(psi)
    m = psi.reshape(psi.shape[:-1] + (1 << spec.num_qubits, -1))
    return np.vecdot(m[..., None, :, :], m[..., :, None, :])


def _measure(spec: ModelSpec, states, times) -> Trajectory:
    """Observables of states shaped (len(times), ..., total_dim); the
    series come out shaped (..., len(times))."""
    return measure(times, np.moveaxis(reduce_central(spec, states), 0, -3))


def _map(fn, seeds, threads: int) -> list:
    if threads <= 1:
        return [fn(g) for g in seeds]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, seeds))


def monte_carlo(spec: ModelSpec, params: InitParams, times, n_hamiltonians: int,
                n_initials: int, gen, params2: InitParams | None = None,
                threads: int = 1, params_sampler=None, central=None,
                collect_samples: bool = False):
    """Average over n_hamiltonians x n_initials realizations.

    The ensemble member (bath spectrum + coupling) is drawn per Hamiltonian
    and reused across its initial conditions; environment states (and, when
    ``params_sampler`` is given, the central state) are drawn per initial
    condition.  Deterministic for a fixed generator seed, independent of
    ``threads``.
    """
    if n_hamiltonians < 1 or n_initials < 1:
        raise ConfigError("realization counts must be at least 1")
    t = np.asarray(times, dtype=float)
    seeds = gen.spawn(n_hamiltonians)

    def one_hamiltonian(g):
        prop = Propagator(spec, g)
        psi0s = np.empty((n_initials, spec.total_dim), dtype=complex)
        for i in range(n_initials):
            c = central
            if params_sampler is not None:
                c = central_state(spec, params_sampler(g), params2)
            elif c is None:
                c = central_state(spec, params, params2)
            psi0s[i] = initial_state(spec, c, g)
        return _measure(spec, prop.states(psi0s, t), t)

    batches = _map(one_hamiltonian, seeds, threads)
    avg = average(batches)
    if collect_samples:
        names = ("purity", "concurrence") if spec.num_qubits == 2 else ("purity",)
        return avg, {k: np.concatenate([getattr(tr, k) for tr in batches])
                     for k in names}
    return avg


def cp_curve(spec: ModelSpec, params: InitParams, times, n_hamiltonians: int,
             n_initials: int, gen, params2: InitParams | None = None,
             threads: int = 1, bin_width: float = 0.005) -> metrics.CPCurve:
    """Ensemble concurrence-purity curve, binned by purity."""
    if spec.num_qubits != 2:
        raise ConfigError("concurrence-purity curves need a two-qubit center")
    _, samples = monte_carlo(spec, params, times, n_hamiltonians, n_initials,
                             gen, params2=params2, threads=threads,
                             collect_samples=True)
    return metrics.bin_cp_samples(samples["purity"], samples["concurrence"],
                                  bin_width)


def unitality_experiment(spec: ModelSpec, times, n_realizations: int, gen,
                         threads: int = 1) -> np.ndarray:
    """Mean Bloch-vector norm of the coupled qubit when the initial state
    carries a fully mixed qubit: (|0>|e0> + |1>|e1>)/sqrt(2) with
    orthonormal environment states.  Zero for an exactly unital channel."""
    if spec.configuration != "one-qubit":
        raise ConfigError("the unitality probe runs in the one-qubit layout")
    t = np.asarray(times, dtype=float)
    seeds = gen.spawn(n_realizations)

    def one(g):
        prop = Propagator(spec, g)
        ne = spec.env_dims[0]
        e0 = qstate.random_state(ne, g)
        e1 = qstate.random_state(ne, g)
        e1 = e1 - (e0.conj() @ e1) * e0
        e1 /= np.linalg.norm(e1)
        assert abs(e0.conj() @ e1) < 1e-12
        psi0 = np.concatenate([e0, e1]) / np.sqrt(2.0)
        return metrics.unitality_distance(
            reduce_central(spec, prop.states(psi0, t)))

    return np.mean(_map(one, seeds, threads), axis=0)
