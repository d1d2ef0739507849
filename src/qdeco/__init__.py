"""Qubit decoherence workbench.

Exact state-vector engines (random-matrix baths and kicked Ising spin
networks), leading-order analytic purity and concurrence predictions, and
the entanglement diagnostics tying the two together.

scipy is imported inside the functions that call it, never at module top:
loading its modules took most of a CLI process's start-up.  Only the dense
oracle ``rmt_models.evolve`` and the tests call it; no run imports it.
"""

from .qstate import rng
from .linear_response import InitParams, LRConfig
from .rmt import EnsembleSpec
from .rmt_models import ModelSpec
from .kicked_ising import EnvConfig, KIModel
from .trajectory import Trajectory
from .errors import ConfigError, ResourceLimitError

__all__ = [
    "rng", "InitParams", "LRConfig", "EnsembleSpec", "ModelSpec",
    "EnvConfig", "KIModel", "Trajectory", "ConfigError", "ResourceLimitError",
]

__version__ = "0.1.0"
