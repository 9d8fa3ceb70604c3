"""zenosim: a small state-vector simulator and experiment harness for
measurement-based qubit error avoidance.

The package encodes a data qubit into an entangled register, interleaves
coherent-drift noise with rapid auxiliary measurements, and checks the
resulting survival and fidelity against closed-form references and a
repetition-code baseline.
"""
from .states import *
from .noise import *
from .protocol import *
from .analysis import *
from .repetition import *
from .config import *
from .sweep import *
from . import analysis, config, noise, protocol, repetition, states, sweep

__version__ = "0.1.0"

__all__ = [
    *states.__all__,
    *noise.__all__,
    *protocol.__all__,
    *analysis.__all__,
    *repetition.__all__,
    *config.__all__,
    *sweep.__all__,
    "__version__",
]
