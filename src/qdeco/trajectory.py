"""Time series of reduced-state diagnostics shared by the model backends."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics


@dataclass
class Trajectory:
    """Observables of the central system along an evolution.

    Each series has the time grid as its last axis; leading axes, if any,
    index samples.  ``concurrence`` is None unless the central system is a
    qubit pair; ``offdiag`` tracks the coupled qubit's off-diagonal decay
    measure.  For ensemble averages the ``*_std`` arrays carry the sample
    standard deviation, and ``n_realizations`` the count.
    """

    times: np.ndarray
    purity: np.ndarray
    concurrence: np.ndarray | None = None
    entropy: np.ndarray | None = None
    offdiag: np.ndarray | None = None
    n_realizations: int = 1
    purity_std: np.ndarray | None = None
    concurrence_std: np.ndarray | None = None


def measure(times, rhos, bit: int = 0) -> Trajectory:
    """Observables of stacked central density matrices, shape
    (..., len(times), d, d).  The off-diagonal measure follows the qubit at
    ``bit`` of the central index; concurrence is taken when d = 4."""
    rhos = np.asarray(rhos)
    d = rhos.shape[-1]
    lo, hi = 1 << bit, d >> (bit + 1)  # central qubits below and above ``bit``
    rho_q = rhos.reshape(rhos.shape[:-2] + (hi, 2, lo, hi, 2, lo))
    return Trajectory(
        np.asarray(times, dtype=float), metrics.purity(rhos),
        metrics.concurrence(rhos) if d == 4 else None,
        metrics.von_neumann(rhos),
        metrics.offdiagonal_decay(np.einsum("...aibajb->...ij", rho_q)))


def average(trajectories) -> Trajectory:
    """Ensemble mean over trajectories on one time grid, each holding one
    sample or a stack of them; the standard deviations use ddof=1 and are
    zero for a single sample."""
    times = trajectories[0].times

    def samples(name):
        if getattr(trajectories[0], name) is None:
            return None
        return np.concatenate([np.reshape(getattr(tr, name), (-1, len(times)))
                               for tr in trajectories])

    p, c, s, d = map(samples, ("purity", "concurrence", "entropy", "offdiag"))
    n = len(p)

    def std(x):
        return None if x is None else (x.std(axis=0, ddof=1) if n > 1 else 0 * x[0])

    mean = [None if x is None else x.mean(axis=0) for x in (p, c, s, d)]
    return Trajectory(times, *mean, n_realizations=n,
                      purity_std=std(p), concurrence_std=std(c))

