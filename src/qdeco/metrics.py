"""Diagnostics: purity, concurrence, entropies, off-diagonal decay,
Werner-family concurrence-purity curves, and Bloch-vector unitality.

The reduced-state observables take one density matrix or a stack of them,
shape (..., d, d), and return a float or an array of the stack's shape."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# sigma_y x sigma_y in the computational basis
_SYY = np.array(
    [[0, 0, 0, -1],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [-1, 0, 0, 0]], dtype=float)


def _value(x):
    """A float for one matrix, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _stack_of(rho, d: int):
    rho = np.asarray(rho)
    if rho.shape[-2:] != (d, d):
        raise ValueError(f"need {d}x{d} density matrices, got shape {rho.shape}")
    return rho


def purity(rho):
    """tr rho^2, of one matrix or a stack (..., d, d)."""
    rho = np.asarray(rho)
    return _value(np.real(np.einsum("...ij,...ji->...", rho, rho)))


def concurrence(rho):
    """Two-qubit mixed-state concurrence, of one matrix or a stack
    (..., 4, 4).

    max(0, L1 - L2 - L3 - L4) with L the singular values, descending, of
    sqrt(rho) sqrt(rho~), where rho~ = S rho* S is the spin-flipped state,
    S = sy x sy and conjugation in the computational basis.  S is real,
    symmetric and its own inverse, so sqrt(rho~) = S sqrt(rho)* S and one
    eigendecomposition of rho gives both roots; this form keeps the rank-
    deficient pure-state case accurate to machine precision.  Refuses the
    whole stack if any member has an eigenvalue below -1e-10.
    """
    rho = _stack_of(rho, 4)
    ev, vec = np.linalg.eigh((rho + rho.conj().swapaxes(-1, -2)) / 2)
    if ev.min() < -1e-10:
        raise ValueError(f"density matrix has eigenvalue {ev.min()} < -1e-10")
    root = (vec * np.sqrt(np.clip(ev, 0.0, None))[..., None, :]
            @ vec.conj().swapaxes(-1, -2))
    lam = np.linalg.svd(root @ (_SYY @ root.conj() @ _SYY), compute_uv=False)
    return _value(np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3],
                          0.0, None))


def _h(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = -x[pos] * np.log2(x[pos])
    return out


def von_neumann(rho):
    """-sum lambda log2 lambda over the eigenvalues of rho, of one matrix or
    a stack (..., d, d)."""
    ev = np.linalg.eigvalsh(np.asarray(rho))
    return _value(np.sum(_h(np.clip(ev, 0.0, None)), axis=-1))


def offdiagonal_decay(rho):
    """Basis-dependent decoherence measure 4|rho_01|^2 of a single qubit, or
    of a stack (..., 2, 2); bounded by the purity."""
    rho = _stack_of(rho, 2)
    return _value(4.0 * np.abs(rho[..., 0, 1]) ** 2)


def bloch_vector(rho) -> np.ndarray:
    """(x, y, z) of a single-qubit state; a stack (..., 2, 2) gives (..., 3)."""
    rho = _stack_of(rho, 2)
    return np.stack([
        2.0 * rho[..., 0, 1].real,
        -2.0 * rho[..., 0, 1].imag,
        (rho[..., 0, 0] - rho[..., 1, 1]).real,
    ], axis=-1)


def unitality_distance(rho):
    """Euclidean distance of a single-qubit state from the maximally mixed
    state: the Bloch-vector norm.  Zero iff rho = I/2.  Takes one matrix or
    a stack (..., 2, 2)."""
    return _value(np.linalg.norm(bloch_vector(rho), axis=-1))


# ---------------------------------------------------------------------------
# Werner-family concurrence-purity relations
# ---------------------------------------------------------------------------

def werner_curve(p, c0: float = 1.0):
    """Concurrence-purity relation when one qubit of a pure pair with
    initial concurrence c0 is depolarized,

        C = c0 max(0, (3/2) sqrt(1 - 4(1-P)/(2 + c0^2)) - 1/2),

    zero once 9P <= 5 - 2 c0^2 (the depolarized pair state crosses its
    sudden death there).  At c0 = 1 it is the Werner family's
    max(0, (sqrt(12 P - 3) - 1)/2)."""
    if not -1e-12 <= c0 <= 1 + 1e-12:
        raise ValueError("initial concurrence must lie in [0, 1]")
    p = np.asarray(p, dtype=float)
    root = np.sqrt(np.clip(1.0 - 4.0 * (1.0 - p) / (2.0 + c0 * c0), 0.0, None))
    return _value(np.clip(c0 * (1.5 * root - 0.5), 0.0, None))


def werner_deviation_estimate(coupling: float, n_env: int) -> float:
    """Empirical size of the deviation of an accumulated concurrence-purity
    curve from the Werner curve, at unit level splitting: a finite-size term
    plus an exponentially coupling-suppressed offset.  ``coupling`` is in
    units of the environment's mean level spacing, lambda sqrt(N_env)/pi for
    the unfolded spectra of ``rmt_models``."""
    return 1.0 / (2.0**3.5 * n_env) + 2.0 ** -(5.0 + 50.0 * coupling)


UNITAL_AREA = 1.0 / 18.0


# ---------------------------------------------------------------------------
# concurrence-purity curves from sampled trajectories
# ---------------------------------------------------------------------------

@dataclass
class CPCurve:
    """Concurrence averaged in purity bins; purity strictly decreasing.
    Out-of-range bins are kept."""
    purity: np.ndarray
    concurrence: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.purity) >= 0):
            raise ValueError("binned purities must be strictly decreasing")


def bin_cp_samples(purities, concurrences, bin_width: float = 0.005) -> CPCurve:
    """Average (concurrence, purity) samples on a purity grid of the given
    bin width, anchored at P = 1: bin k holds 1 - (k+1) w < P <= 1 - k w,
    and bin 0 also takes purities above 1, so states that are pure up to
    rounding share one bin."""
    p = np.asarray(purities, dtype=float).ravel()
    c = np.asarray(concurrences, dtype=float).ravel()
    if p.size == 0:
        raise ValueError("no samples to bin")
    idx = np.floor((1.0 - p) / bin_width).clip(0).astype(int)
    _, bins, counts = np.unique(idx, return_inverse=True, return_counts=True)
    return CPCurve(np.bincount(bins, p) / counts, np.bincount(bins, c) / counts,
                   counts)


def cp_distance(curve: CPCurve) -> float:
    """Trapezoid integral of |C_curve(P) - C_Werner(P)| over the purity
    range spanned by the curve."""
    if len(curve.purity) == 0:
        raise ValueError("empty curve")
    p = curve.purity[::-1]  # ascending
    c = curve.concurrence[::-1]
    return float(np.trapezoid(np.abs(c - werner_curve(p)), p))
