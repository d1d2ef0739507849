"""Analytic purity and concurrence predictions for weak coupling.

Everything is expressed through three ingredients: geometric factors of the
initial pair state, correlation functions of the coupled qubit, and the
environment spectral correlation 1 + delta(t/tau_H) - b2(t/tau_H).  The
delta ridge along equal times is integrated analytically (it contributes
tau_H * t * value-on-the-diagonal); the b2 part goes through a dense
trapezoid grid.

Conventions: the coupled qubit has splitting Delta with energies
(+Delta/2, -Delta/2) on (|0>, |1>); eta is the phase between the components
of the Schmidt vectors of the coupled qubit (for Schmidt vectors on the
Bloch equator, eta equals the equator angle gamma).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import ConfigError, ResourceLimitError
from .metrics import werner_curve
from .rmt import b2, b2_double_integral

# configuration: (central qubits, coupled qubits, environments, bath cap);
# None means the n-qubit layout's n_qubits, every one of them coupled
LAYOUTS = {"one-qubit": (1, 1, 1, 2048), "spectator": (2, 1, 1, 2048),
           "separate": (2, 2, 2, 64), "joint": (2, 2, 1, 512),
           "n-qubit": (None, None, 1, 512)}


@dataclass(frozen=True)
class InitParams:
    """Angles of the initial central state.

    theta: Schmidt (entanglement) angle in [0, pi/4]; concurrence sin(2 theta).
    phi:   magnetization angle of the coupled qubit's Schmidt vectors, [0, pi/2].
    eta:   phase between the components of those Schmidt vectors.
    """

    theta: float = 0.0
    phi: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if not -1e-12 <= self.theta <= np.pi / 4 + 1e-12:
            raise ConfigError(f"theta={self.theta} outside [0, pi/4]")
        if not -1e-12 <= self.phi <= np.pi / 2 + 1e-12:
            raise ConfigError(f"phi={self.phi} outside [0, pi/2]")

    @classmethod
    def equatorial(cls, theta: float, gamma: float):
        """Pair state whose coupled-qubit Schmidt vectors are
        (|0> +- e^{i gamma}|1>)/sqrt(2), i.e. on the Bloch equator at angle
        gamma; in the (phi, eta) parametrization that is phi = pi/4 and
        eta = -gamma."""
        if not -np.pi / 2 - 1e-12 <= gamma <= np.pi / 2 + 1e-12:
            raise ConfigError(f"gamma={gamma} outside [-pi/2, pi/2]")
        return cls(theta=theta, phi=np.pi / 4, eta=-gamma)

    @property
    def sin_sq_gamma(self) -> float:
        """Squared sine of the Bloch angle between the coupled-qubit Schmidt
        vectors and the real (xz) plane."""
        g_phi = (3.0 + np.cos(4.0 * self.phi)) / 4.0
        return float((1.0 - g_phi) * (1.0 - np.cos(2.0 * self.eta)))


def second_qubit(params: InitParams, params2: InitParams | None) -> InitParams:
    """Qubit 1 of a two-qubit center: ``params2``, or by default a qubit
    with phi = eta = 0 sharing the pair's theta."""
    if params2 is None:
        return InitParams(theta=params.theta)
    if abs(params2.theta - params.theta) > 1e-12:
        raise ValueError("both qubits belong to one pair: theta must match")
    return params2


@dataclass(frozen=True)
class LRConfig:
    """Coupling layout: which configuration, ensemble(s), Heisenberg time(s),
    coupling strength(s) and level splitting(s).  ``beta``/``tau_h``/
    ``couplings``/``deltas`` carry one entry per coupled qubit (two for
    separate/joint).  An n-qubit register composes from one-qubit layouts
    through ``nqubit_sum_rule``."""

    configuration: str
    beta: tuple[int, ...]
    tau_h: tuple[float, ...]
    couplings: tuple[float, ...]
    deltas: tuple[float, ...]
    n_env: int | None = None

    def __post_init__(self):
        if self.configuration == "n-qubit":
            raise ConfigError("n-qubit registers compose from one-qubit "
                              "predictions through nqubit_sum_rule")
        if self.configuration not in LAYOUTS:
            raise ConfigError(f"unknown configuration {self.configuration!r}")
        k = len(self.couplings)
        if not len(self.beta) == len(self.tau_h) == len(self.deltas) == k:
            raise ConfigError("beta, tau_h, couplings, deltas must have equal length")
        expected = LAYOUTS[self.configuration][1]
        if k != expected:
            raise ConfigError(
                f"{self.configuration} takes {expected} coupling(s), got {k}")
        if self.configuration == "joint" and (
            len(set(self.beta)) != 1 or len(set(self.tau_h)) != 1
        ):
            raise ConfigError("joint environment: both couplings share one spectrum")
        if any(b not in (1, 2) for b in self.beta):
            raise ConfigError("beta entries must be 1 (GOE) or 2 (GUE)")
        if any(l < 0 for l in self.couplings):
            raise ConfigError("couplings must be nonnegative")
        if any(t <= 0 for t in self.tau_h):
            raise ConfigError("Heisenberg times must be positive")


def f_heisenberg(t, tau_h: float):
    """Purity-decay shape of the degenerate limit:
    2 t max(t, tau_H) + (2/3 tau_H) min(t, tau_H)^3 (linear before the
    Heisenberg time, quadratic after)."""
    t = np.asarray(t, dtype=float)
    out = 2.0 * t * np.maximum(t, tau_h) + 2.0 / (3.0 * tau_h) * np.minimum(t, tau_h) ** 3
    return out if out.ndim else float(out)


def geometric_factors(params: InitParams):
    """(g_phi, g_theta, g1, g2) with g_x = (3 + cos 4x)/4; g1 in [0, 1/2]
    weighs the part of the decay that survives fast internal rotation, g2 in
    [1/2, 1] the part that does not."""
    g_phi = (3.0 + np.cos(4.0 * params.phi)) / 4.0
    g_theta = (3.0 + np.cos(4.0 * params.theta)) / 4.0
    g1 = g_theta * (1.0 - g_phi) + g_phi * (1.0 - g_theta)
    g2 = 2.0 * (1.0 - g_theta) - g_phi * (1.0 - 2.0 * g_theta)
    return g_phi, g_theta, g1, g2


# ---------------------------------------------------------------------------
# the quadrature kernel
# ---------------------------------------------------------------------------

# quadrature grid cap: the kernel's arrays peak near 64 MiB at this size
MAX_GRID_POINTS = 1 << 20


def _hole_integrals(beta, tau_h, g1, g2, delta, times, points_per_tauh):
    """integral_0^t (t-u) b2(u/tau_h) [g1 + g2 cos(delta u)] du at each t."""
    t_max = times.max()
    if t_max == 0.0:
        return np.zeros_like(times)
    n = points_per_tauh * t_max / tau_h
    if not n <= MAX_GRID_POINTS:
        raise ResourceLimitError(f"quadrature grid of {n:.3g} points up to "
                                 f"t = {t_max:.3g} exceeds {MAX_GRID_POINTS}")
    n = max(256, int(np.ceil(n)))
    base = np.linspace(0.0, t_max, n)
    grid = np.union1d(np.union1d(base, times), [tau_h] if tau_h < t_max else [])
    f = b2(beta, grid / tau_h) * (g1 + g2 * np.cos(delta * grid))
    c0 = np.concatenate([[0.0], cumulative_trapezoid(f, grid)])
    c1 = np.concatenate([[0.0], cumulative_trapezoid(grid * f, grid)])
    idx = np.searchsorted(grid, times)
    return times * c0[idx] - c1[idx]


def _coupling_contribution(beta, tau_h, lam, d, params, times, points_per_tauh):
    """2 lambda^2 x (double time integral of the response kernel) for one
    coupled qubit with splitting d."""
    _, _, g1, g2 = geometric_factors(params)
    if d == 0.0:
        osc = times**2
        sq = times.astype(complex) ** 2
    else:
        osc = 2.0 * (1.0 - np.cos(d * times)) / d**2
        sq = ((np.exp(1j * d * times) - 1.0) / (1j * d)) ** 2
    i_corr = (
        g1 * times**2
        + g2 * osc
        + tau_h * times * (g1 + g2)
        - 2.0 * _hole_integrals(beta, tau_h, g1, g2, d, times, points_per_tauh)
    )
    if beta == 1:
        i_corr += g1 * times**2 - (1.0 - g2) * (np.exp(2j * params.eta) * sq).real
    return 2.0 * lam**2 * i_corr


def _per_coupling(config, params, params2):
    """(beta, tau_h, lambda, Delta, initial state) of each coupled qubit."""
    states = [params]
    if config.configuration in ("separate", "joint"):
        states.append(second_qubit(params, params2))
    return zip(config.beta, config.tau_h, config.couplings, config.deltas, states)


def purity_lr(config: LRConfig, params: InitParams, t, params2: InitParams | None = None,
              points_per_tauh: int = 2000):
    """Leading-order average purity 1 - 2 sum_i lambda_i^2 Re(double integral
    of the response kernel).  Its truncation error on 1 - P is about
    (1 - P)/(2 (1 - P_inf)) relative, the gap to ``exponentiate`` with the
    asymptotic purity P_inf; past 1 - P = 0.3 a warning is issued."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    if config.configuration == "one-qubit" and abs(params.theta) > 1e-12:
        raise ValueError("one-qubit configuration takes a pure qubit (theta = 0)")
    loss = np.zeros_like(times)
    for beta, tau_h, lam, d, p in _per_coupling(config, params, params2):
        if config.n_env is not None and d > 0:
            # the coherent spike has width ~ tau_h / n_env; the splitting must
            # resolve it for the kernel's diagonal treatment to apply
            if d >= 0.5 * config.n_env * 2.0 * np.pi / tau_h:
                warnings.warn(
                    f"splitting {d} approaches the inverse coherence width "
                    f"{config.n_env * 2.0 * np.pi / tau_h:.3g}; kernel unreliable",
                    stacklevel=2,
                )
        loss += _coupling_contribution(beta, tau_h, lam, d, p, times, points_per_tauh)
    out = 1.0 - loss
    big = 1.0 - out > 0.3
    if np.any(big):
        warnings.warn("1 - P exceeds 0.3; leading order is unreliable there",
                      stacklevel=2)
    return out if np.ndim(t) else float(out[0])


# ---------------------------------------------------------------------------
# closed forms for the limiting regimes
# ---------------------------------------------------------------------------

DEGENERATE_MAX = 0.1   # Delta * tau_H at or below this counts as degenerate
FAST_MIN = 10.0        # ... at or above this as fast


def _regime(delta: float, tau_h: float) -> str:
    x = abs(delta) * tau_h
    if x <= DEGENERATE_MAX:
        return "degenerate"
    if x >= FAST_MIN:
        return "fast"
    raise ConfigError(
        f"Delta*tau_H = {x:.3g} violates both the degenerate bound "
        f"(<= {DEGENERATE_MAX}) and the fast bound (>= {FAST_MIN})"
    )


def closed_forms(config: LRConfig, params: InitParams, t,
                 params2: InitParams | None = None):
    """Exact evaluation of the limiting-regime formulas (degenerate when the
    splitting is far below the environment mean level spacing, fast when far
    above).  Raises naming the violated inequality when neither applies."""
    times = np.asarray(t, dtype=float)
    _, g_theta, _, _ = geometric_factors(params)
    loss = np.zeros_like(np.atleast_1d(times))
    for beta, tau_h, lam, d, p in _per_coupling(config, params, params2):
        reg = _regime(d, tau_h)
        if beta == 2:
            _, _, g1, g2 = geometric_factors(p)
            if config.configuration == "one-qubit" and abs(p.theta) > 1e-12:
                raise ValueError("one-qubit configuration takes theta = 0")
            if reg == "degenerate":
                loss += lam**2 * (2.0 - g_theta) * f_heisenberg(times, tau_h)
            else:
                loss += lam**2 * (g1 * f_heisenberg(times, tau_h)
                                  + 2.0 * tau_h * g2 * times)
        else:
            if reg != "degenerate":
                raise ValueError("no closed time-reversal-invariant form away "
                                 "from the degenerate limit")
            b2int = b2_double_integral(1, times, tau_h)
            s2 = p.sin_sq_gamma
            cos2g = 1.0 - 2.0 * s2
            if config.configuration == "one-qubit":
                loss += lam**2 * (times**2 * (3.0 - cos2g)
                                  + 2.0 * times * tau_h - 2.0 * b2int)
            elif config.configuration == "spectator":
                cos2_2theta = np.cos(2.0 * p.theta) ** 2
                loss += lam**2 * (
                    times**2 * (4.0 - 2.0 * cos2_2theta * (1.0 - s2))
                    + (4.0 - 2.0 * g_theta) * (times * tau_h - b2int)
                )
            else:
                raise ValueError("time-reversal-invariant closed forms cover "
                                 "the one-qubit and spectator layouts only")
    out = 1.0 - loss
    return out if np.ndim(t) else float(out if np.isscalar(out) else out[0])


def sigma_purity(config: LRConfig, params: InitParams, t):
    """Ensemble standard deviation of purity for time-reversal-invariant
    degenerate coupling with the initial state drawn uniformly over the
    allowed family: (4/(3 sqrt 5)) lambda^2 t^2, damped by cos^2(2 theta)
    when a spectator carries part of the state."""
    if config.beta[0] != 1:
        raise ConfigError("the purity spread is derived for GOE coupling")
    if _regime(config.deltas[0], config.tau_h[0]) != "degenerate":
        raise ConfigError("the purity spread is derived in the degenerate limit")
    t = np.asarray(t, dtype=float)
    lam = config.couplings[0]
    base = 4.0 / (3.0 * np.sqrt(5.0)) * lam**2 * t**2
    if config.configuration == "spectator":
        base = base * np.cos(2.0 * params.theta) ** 2
    elif config.configuration != "one-qubit":
        raise ConfigError("purity spread: one-qubit or spectator only")
    return base if base.ndim else float(base)


# ---------------------------------------------------------------------------
# extensions beyond leading order
# ---------------------------------------------------------------------------

def asymptotic_purity(config: LRConfig, params: InitParams) -> float:
    """Long-time purity estimate: full depolarization of the coupled qubit
    (spectator: g_theta/2), of both qubits (1/4), or of a lone qubit (1/2)."""
    if config.configuration == "one-qubit":
        return 0.5
    if config.configuration == "spectator":
        _, g_theta, _, _ = geometric_factors(params)
        return float(g_theta / 2.0)
    return 0.25


def exponentiate(p_lr, p_infinity: float):
    """P_inf + (1 - P_inf) exp[-(1 - P_lr)/(1 - P_inf)]: matches the
    leading-order curve at early times and saturates at P_inf."""
    if p_infinity >= 1.0:
        raise ValueError("asymptotic purity must be below 1")
    p_lr = np.asarray(p_lr, dtype=float)
    out = p_infinity + (1.0 - p_infinity) * np.exp(-(1.0 - p_lr) / (1.0 - p_infinity))
    return out if out.ndim else float(out)


def concurrence_prediction(p_of_t, c0: float = 1.0, times=None):
    """Concurrence trajectory from a purity trajectory, through the
    depolarized-pair curve ``werner_curve`` at initial concurrence c0 (the
    Werner curve at c0 = 1); expects the exponentiated purity.
    Returns (C array, sudden-death time or None), the time interpolated
    where C first reaches zero (requires ``times``).
    """
    c = werner_curve(p_of_t, c0)
    t_star = None
    if times is not None:
        times = np.asarray(times, dtype=float)
        dead = np.flatnonzero(c <= 1e-12)
        if dead.size and dead[0] > 0:
            i = dead[0]
            c0_, c1_ = c[i - 1], c[i]
            t_star = float(times[i - 1] + (times[i] - times[i - 1]) * c0_ / (c0_ - c1_))
        elif dead.size:
            t_star = float(times[0])
    return c, t_star


def nqubit_sum_rule(spectator_purities):
    """Register purity from the purities of each qubit alone coupled (the
    rest spectating): P = 1 - sum_i (1 - P_i).  Requires uncorrelated
    couplings in the interaction picture and small decoherence."""
    arrs = [np.asarray(p, dtype=float) for p in spectator_purities]
    out = 1.0 - sum(1.0 - a for a in arrs)
    return out


RMTKI_ALPHA = 0.21  # reference fit of rmtki_prediction's prefactor


def rmtki_prediction(t, j_prime: float, q_env: int, tau_h: float,
                     alpha: float = RMTKI_ALPHA):
    """Random-matrix purity-decay form adapted to a kicked spin-bath ring
    with symmetric coupling of raw strength j_prime to q_env spins.  It leaves
    out the spectral-correlation (b2) term, as is appropriate when many
    symmetry sectors superpose."""
    t = np.asarray(t, dtype=float)
    shape = 3.0 * t * tau_h + 4.0 * t**2 / tau_h
    out = 1.0 - alpha * (j_prime / np.sqrt(q_env)) ** 2 * shape
    return out if out.ndim else float(out)
