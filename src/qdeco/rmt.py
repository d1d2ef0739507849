"""Gaussian ensembles and spectral statistics.

Matrix-element normalization: GOE  <V_ij V_kl> = d_il d_jk + d_ik d_jl
(diagonal variance 2, off-diagonal 1); GUE  <V_ij V_kl> = d_il d_jk
(real diagonal variance 1, off-diagonal <|V_ij|^2> = 1).  With this
convention an N-dim spectrum fills the semicircle of radius 2 sqrt(N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import integrate, optimize, special

from .errors import ConfigError


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str  # "GOE" or "GUE"
    dim: int

    def __post_init__(self):
        if self.kind not in ("GOE", "GUE"):
            raise ValueError(f"ensemble kind must be GOE or GUE, got {self.kind!r}")
        if self.dim < 2:
            raise ConfigError("ensemble dimension must be at least 2")

    @property
    def beta(self) -> int:
        return 1 if self.kind == "GOE" else 2


def sample_gaussian(sigma, x0, gen, size=None):
    """Complex Gaussian via the polar transform of two uniforms,

        z = sigma * e^{2 pi i v} * sqrt(-2 log u) + x0,

    with u drawn from (0, 1] so the log never sees zero.  The real part has
    variance sigma^2 and <|z - x0|^2> = 2 sigma^2.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    u = 1.0 - gen.random(size)
    v = gen.random(size)
    return sigma * np.exp(2j * np.pi * v) * np.sqrt(-2.0 * np.log(u)) + x0


def sample_matrix(spec: EnsembleSpec, gen) -> np.ndarray:
    """Random member of the ensemble, Hermitian by construction: the stream of
    ``sample_gaussian`` on the diagonal, then on a full (n, n) grid whose
    strictly upper entries alone go through the polar transform."""
    n = spec.dim
    goe = spec.kind == "GOE"
    diag = sample_gaussian(np.sqrt(2.0) if goe else 1.0, 0.0, gen, n).real
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    r = np.sqrt(-2.0 * np.log(1.0 - gen.random((n, n))[upper]))
    phase = 2.0 * np.pi * gen.random((n, n))[upper]
    off = np.cos(phase) * r if goe else 1.0 / np.sqrt(2.0) * np.exp(1j * phase) * r
    m = np.zeros((n, n), dtype=off.dtype)
    m[upper] = off
    m.T[upper] = off.conj()
    m[np.diag_indices(n)] = diag
    return m


def semicircle_density(energy, dim: int):
    """Level density of the Gaussian ensembles, support |E| <= 2 sqrt(N)."""
    e = np.asarray(energy, dtype=float)
    x = 1.0 - e * e / (4.0 * dim)
    rho = np.sqrt(dim) / np.pi * np.sqrt(np.clip(x, 0.0, None))
    return rho if rho.ndim else float(rho)


class Unfolded(NamedTuple):
    energies: np.ndarray
    clamped: np.ndarray  # True where the input sat past the semicircle edge


def unfold(energies, dim: int | None = None) -> Unfolded:
    """Map a semicircle spectrum to unit mean spacing via the cumulative
    level density,

        phi_i = (N/pi) (asin e_i + e_i sqrt(1 - e_i^2)),  e_i = E_i / (2 sqrt(N)),

    centered so phi(0) = 0 and phi(+-edge) = +-N/2.  Inputs past the edge are
    clamped to it and flagged.
    """
    e = np.asarray(energies, dtype=float)
    n = dim if dim is not None else len(e)
    x = e / (2.0 * np.sqrt(n))
    clamped = np.abs(x) > 1.0
    x = np.clip(x, -1.0, 1.0)
    phi = n / np.pi * (np.arcsin(x) + x * np.sqrt(1.0 - x * x))
    return Unfolded(phi, clamped)


def form_factor(energies, t):
    """K2(t) = |sum_j e^{i t E_j}|^2 / N."""
    e = np.asarray(energies, dtype=float)
    t = np.asarray(t, dtype=float)
    phases = np.exp(1j * np.multiply.outer(t, e))
    k2 = np.abs(phases.sum(axis=-1)) ** 2 / len(e)
    return k2 if k2.ndim else float(k2)


def b2(beta: int, t):
    """Two-level form-factor hole, time in units of the Heisenberg time."""
    s = np.abs(np.asarray(t, dtype=float))
    if beta == 2:
        out = np.where(s <= 1.0, 1.0 - s, 0.0)
    elif beta == 1:
        below = 1.0 - 2.0 * s + s * np.log1p(2.0 * s)
        with np.errstate(divide="ignore", invalid="ignore"):
            above = -1.0 + s * np.log((2.0 * s + 1.0) / (2.0 * s - 1.0))
        out = np.where(s <= 1.0, below, above)
    else:
        raise ValueError("beta must be 1 (GOE) or 2 (GUE)")
    return out if out.ndim else float(out)


def k2_average(beta: int, t, tau_h: float):
    """Ensemble mean of K2 away from the coherent spike at t=0."""
    return 1.0 - b2(beta, np.asarray(t, dtype=float) / tau_h)


def _b2_weighted_integral(beta: int, t: float, tau_h: float) -> float:
    """integral_0^t (t - u) b2(u / tau_h) du by adaptive quadrature."""
    if t == 0.0:
        return 0.0
    pts = [tau_h] if 0.0 < tau_h < t else None
    val, _ = integrate.quad(
        lambda u: (t - u) * b2(beta, u / tau_h),
        0.0, t, points=pts, limit=200, epsabs=1e-9, epsrel=1e-11,
    )
    return val


def b2_double_integral(beta: int, t, tau_h: float):
    """Repeated integral of the form-factor hole.

    For beta=2 the closed form of int_0^t dT int_0^T du b2(u/tau_h):
    t^2/2 - t^3/(6 tau_h) below tau_h, then t tau_h/2 - tau_h^2/6.
    For beta=1 the conventional prefactor 2 is included and the integral is
    done by adaptive quadrature (abs tol 1e-9); no closed form is used.
    """
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(tarr < 0):
        raise ValueError("time must be nonnegative")
    if beta == 2:
        below = tarr**2 / 2.0 - tarr**3 / (6.0 * tau_h)
        above = tarr * tau_h / 2.0 - tau_h**2 / 6.0
        out = np.where(tarr < tau_h, below, above)
    elif beta == 1:
        out = 2.0 * np.array([_b2_weighted_integral(1, ti, tau_h) for ti in tarr])
    else:
        raise ValueError("beta must be 1 or 2")
    return out if np.ndim(t) else float(out[0])


def brody_pdf(s, omega: float):
    """Spacing density interpolating Poisson (omega=0) and the orthogonal
    Wigner surmise (omega=1)."""
    s = np.asarray(s, dtype=float)
    b = special.gamma((omega + 2.0) / (omega + 1.0)) ** (omega + 1.0)
    return (omega + 1.0) * b * s**omega * np.exp(-b * s ** (omega + 1.0))


def fit_brody(spacings) -> float:
    """Maximum-likelihood Brody parameter of a set of spacings."""
    s = np.asarray(spacings, dtype=float)
    s = s[s > 0]
    s = s / s.mean()

    def neg_loglik(omega):
        b = special.gamma((omega + 2.0) / (omega + 1.0)) ** (omega + 1.0)
        return -np.sum(
            np.log(omega + 1.0) + np.log(b) + omega * np.log(s) - b * s ** (omega + 1.0)
        )

    res = optimize.minimize_scalar(neg_loglik, bounds=(-0.3, 1.5), method="bounded")
    return float(res.x)


def spacing_statistics(unfolded_energies):
    """Nearest-neighbor spacings of an unfolded spectrum and the Brody
    parameter fitted to them.  Accepts one spectrum or a list of spectra
    (spacings are pooled, never taken across spectra)."""
    seqs = unfolded_energies
    if np.ndim(seqs[0]) == 0:
        seqs = [seqs]
    spacings = np.concatenate([np.diff(np.sort(np.asarray(e, dtype=float))) for e in seqs])
    if len(spacings) < 50:
        raise ConfigError(f"need at least 50 spacings, got {len(spacings)}")
    return spacings, fit_brody(spacings)
