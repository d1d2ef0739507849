"""Gaussian ensembles and spectral statistics.

Matrix-element normalization: GOE  <V_ij V_kl> = d_il d_jk + d_ik d_jl
(diagonal variance 2, off-diagonal 1); GUE  <V_ij V_kl> = d_il d_jk
(real diagonal variance 1, off-diagonal <|V_ij|^2> = 1).  With this
convention an N-dim spectrum fills the semicircle of radius 2 sqrt(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    strictly upper entries alone go through the polar transform.  The
    gathered uniforms are transformed in place, so each draw's (n, n) grid
    is the only full-size scratch."""
    n = spec.dim
    goe = spec.kind == "GOE"
    diag = sample_gaussian(np.sqrt(2.0) if goe else 1.0, 0.0, gen, n).real
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    r = gen.random((n, n))[upper]
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    off = gen.random((n, n))[upper]
    off *= 2.0 * np.pi
    if goe:
        np.cos(off, out=off)
    else:
        off = 1j * off
        np.exp(off, out=off)
        off *= 1.0 / np.sqrt(2.0)
    off *= r
    del r
    m = np.empty((n, n), dtype=off.dtype)
    m[upper] = off
    m.T[upper] = np.conjugate(off, out=off)
    m[np.diag_indices(n)] = diag
    return m


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


def b2_double_integral(beta: int, t, tau_h: float):
    """Repeated integral of the form-factor hole, int_0^t dT int_0^T du
    b2(u/tau_h) = tau_h^2 G(t/tau_h) with G(x) = int_0^x (x - s) b2(s) ds,
    in closed form on each side of x = 1.  For beta=1 the conventional
    prefactor 2 is included; there the relative rounding error grows as
    x falls below 2e-3, to 1.5e-10 at x = 1e-7."""
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(tarr < 0):
        raise ValueError("time must be nonnegative")
    if beta == 2:
        below = tarr**2 / 2.0 - tarr**3 / (6.0 * tau_h)
        above = tarr * tau_h / 2.0 - tau_h**2 / 6.0
        out = np.where(tarr < tau_h, below, above)
    elif beta == 1:
        x = tarr / tau_h
        g, low = np.empty_like(x), x <= 1.0
        s, big_l = x[low], np.log1p(2.0 * x[low])
        g[low] = (s**3 * big_l / 6.0 - 17.0 * s**3 / 36.0 + 2.0 * s**2 / 3.0
                  - s * big_l / 8.0 + s / 12.0 - big_l / 24.0)
        s = x[~low]
        r = np.log1p(2.0 / (2.0 * s - 1.0))
        g[~low] = (s**3 * r / 6.0 - s**2 / 6.0 - s * r / 8.0 + s / 2.0
                   - (np.log(s - 0.5) + np.log(s + 0.5)) / 24.0
                   - np.log(2.0) / 12.0 - 1.0 / 18.0)
        out = 2.0 * tau_h**2 * g
    else:
        raise ValueError("beta must be 1 or 2")
    return out if np.ndim(t) else float(out[0])


def fit_brody(spacings) -> float:
    """Maximum-likelihood Brody parameter of a set of spacings: a golden-
    section search of the likelihood on [-0.3, 1.5], to 1e-9."""
    s = np.asarray(spacings, dtype=float)
    s = s[s > 0]
    log_s = np.log(s / s.mean())

    def neg_loglik(omega):
        a = omega + 1.0
        b = math.gamma((omega + 2.0) / a) ** a
        return -(len(log_s) * math.log(a * b) + omega * log_s.sum()
                 - b * np.exp(a * log_s).sum())

    lo, hi = -0.3, 1.5
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f1, f2 = neg_loglik(x1), neg_loglik(x2)
    while hi - lo > 1e-9:
        if f1 <= f2:  # the minimum lies in [lo, x2]
            hi, x2, f2 = x2, x1, f1
            x1 = hi - shrink * (hi - lo)
            f1 = neg_loglik(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + shrink * (hi - lo)
            f2 = neg_loglik(x2)
    return 0.5 * (lo + hi)


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
