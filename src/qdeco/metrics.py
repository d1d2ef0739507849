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

    Square roots of the (real, nonnegative up to rounding) eigenvalues of
    rho (sy x sy) rho* (sy x sy), sorted descending; then
    max(0, L1 - L2 - L3 - L4).  Conjugation is in the computational basis.
    The spectrum is taken from the similarity-equivalent Hermitian form
    sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho), which keeps the rank-
    deficient pure-state case accurate to machine precision.  Refuses the
    whole stack if any member has an eigenvalue below -1e-10.
    """
    rho = _stack_of(rho, 4)

    def msqrt(m):
        ev, vec = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2)
        if ev.min() < -1e-10:
            raise ValueError(f"density matrix has eigenvalue {ev.min()} < -1e-10")
        root = vec * np.sqrt(np.clip(ev, 0.0, None))[..., None, :]
        return root @ vec.conj().swapaxes(-1, -2)

    flipped = _SYY @ rho.conj() @ _SYY
    lam = np.linalg.svd(msqrt(rho) @ msqrt(flipped), compute_uv=False)
    return _value(np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3],
                          0.0, None))


def concurrence_pure(psi) -> float:
    """Concurrence of a pure two-qubit state, 2|c00 c11 - c01 c10|; equals
    sin(2 theta) for Schmidt angle theta."""
    c = np.asarray(psi)
    if c.shape != (4,):
        raise ValueError("need a 4-component two-qubit state")
    return float(2.0 * abs(c[0] * c[3] - c[1] * c[2]))


def _h(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = -x[pos] * np.log2(x[pos])
    return out


def entropy_from_purity(p: float) -> float:
    """Single-qubit von Neumann entropy as a function of purity,
    valid for 1/2 <= P <= 1."""
    if not 0.5 - 1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"single-qubit purity must lie in [1/2, 1], got {p}")
    r = np.sqrt(max(2.0 * p - 1.0, 0.0))
    return float(np.sum(_h(np.array([(1 + r) / 2, (1 - r) / 2]))))


def von_neumann(rho):
    """-sum lambda log2 lambda over the eigenvalues of rho, of one matrix or
    a stack (..., d, d)."""
    ev = np.linalg.eigvalsh(np.asarray(rho))
    return _value(np.sum(_h(np.clip(ev, 0.0, None)), axis=-1))


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation from concurrence via the binary entropy."""
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise ValueError(f"concurrence must lie in [0, 1], got {c}")
    x = (1.0 + np.sqrt(max(1.0 - c * c, 0.0))) / 2.0
    return float(np.sum(_h(np.array([x, 1.0 - x]))))


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

def werner_curve(p):
    """Concurrence of the Werner family at purity p:
    max(0, (sqrt(12 p - 3) - 1)/2)."""
    p = np.asarray(p, dtype=float)
    c = (np.sqrt(np.clip(12.0 * p - 3.0, 0.0, None)) - 1.0) / 2.0
    return _value(np.clip(c, 0.0, None))


def werner_curve_c0(p, c0: float):
    """Concurrence-purity relation when one qubit of a pure pair with
    initial concurrence c0 is depolarized,

        C = c0 max(0, (3/2) sqrt(1 - 4(1-P)/(2 + c0^2)) - 1/2),

    zero once 9P <= 5 - 2 c0^2 (the depolarized pair state crosses its
    sudden death there).  Reduces to the Werner curve at c0 = 1."""
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

    ``physical`` flags bins inside the admissible two-qubit region
    (P in [1/4, 1], C in [0, 1], up to 1e-9 slack); out-of-range bins are
    kept, only marked.
    """
    purity: np.ndarray
    concurrence: np.ndarray
    counts: np.ndarray
    bin_width: float
    physical: np.ndarray | None = None

    def __post_init__(self):
        if np.any(np.diff(self.purity) >= 0):
            raise ValueError("binned purities must be strictly decreasing")
        if self.physical is None:
            slack = 1e-9
            self.physical = (
                (self.purity >= 0.25 - slack) & (self.purity <= 1.0 + slack)
                & (self.concurrence >= -slack) & (self.concurrence <= 1.0 + slack)
            )


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
                   counts, bin_width)


def cp_distance(curve: CPCurve, reference) -> float:
    """Trapezoid integral of |C_curve(P) - C_reference(P)| over the purity
    range spanned by the curve."""
    if len(curve.purity) == 0:
        raise ValueError("empty curve")
    p = curve.purity[::-1]  # ascending
    c = curve.concurrence[::-1]
    return float(np.trapezoid(np.abs(c - reference(p)), p))
