import numpy as np
import pytest
from hypothesis import Phase, settings

from zenosim import StateVector

# CI's profile (--hypothesis-profile=ci): a failing example is reported as
# found, not shrunk, which can take a failing run from seconds to many
# minutes; explain works on the shrunk example, so it goes too. print_blob
# prints the @reproduce_failure line that re-runs the example locally
settings.register_profile(
    "ci", phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)], print_blob=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish random pure state: complex normal amplitudes, normalized."""
    dim = 1 << num_qubits
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(num_qubits, amps)
