"""Three-qubit repetition register under coherent noise, with a majority-vote
round as the error-correction baseline.

Under a generic flip drift every qubit of the register leaks amplitude, so
all six non-code amplitudes become populated: single flips of a code word at
first order in time, double flips at second order. The majority-vote round
measures the two pair parities and applies the single-flip repair the
syndrome points at; it is the behavioral baseline the avoidance protocol is
compared against, not a contribution in itself.
"""
from __future__ import annotations

__all__ = ["EpsilonReport", "evolve_repetition", "majority_vote_round", "syndrome_branches"]

import math
from dataclasses import dataclass, fields

import numpy as np

from .states import (
    _MIN_BRANCH_PROB,
    PAULI_X,
    StateVector,
    ZeroProbabilityError,
    _bit_mask,
    apply_single,
)
from .noise import NoiseSpec, evolve_exact
from .protocol import MEASUREMENT_MODES, MODE_POST_SELECTED, MODE_STOCHASTIC, encode

_AMPLITUDE_SUM_TOL = 1e-10

#: syndrome (parity of qubits 0,1 and of qubits 1,2) -> qubit to flip
SYNDROME_TO_FLIP = {
    (0, 0): None,
    (1, 0): 0,
    (1, 1): 1,
    (0, 1): 2,
}


@dataclass(frozen=True)
class EpsilonReport:
    """The 8 basis amplitudes of a noisy repetition register, labelled by
    bit pattern: the two code words plus the six leakage amplitudes."""

    alpha_000: complex
    alpha_111: complex
    eps_001: complex
    eps_010: complex
    eps_011: complex
    eps_100: complex
    eps_101: complex
    eps_110: complex

    def __post_init__(self):
        total = sum(abs(a) ** 2 for a in self.as_dict().values())
        if abs(total - 1.0) > _AMPLITUDE_SUM_TOL:
            raise ValueError(f"squared magnitudes sum to {total!r}, expected 1")

    @classmethod
    def from_state(cls, state: StateVector) -> "EpsilonReport":
        if state.num_qubits != 3:
            raise ValueError(f"expected a 3-qubit state, got {state.num_qubits}")
        # each field ends in its bit pattern, which is its basis index in binary
        return cls(*(complex(state.amplitudes[int(f.name[-3:], 2)]) for f in fields(cls)))

    def as_dict(self) -> dict[str, complex]:
        """Every amplitude keyed by its bit pattern, 000 to 111."""
        return {f.name[-3:]: getattr(self, f.name)
                for f in sorted(fields(self), key=lambda f: f.name[-3:])}

    @property
    def epsilons(self) -> dict[str, complex]:
        """The six leakage amplitudes, keyed by bit pattern."""
        return {k: v for k, v in self.as_dict().items() if k not in ("000", "111")}


def evolve_repetition(
    data: StateVector, noise: NoiseSpec, t: float
) -> tuple[StateVector, EpsilonReport]:
    """Encode a0|000> + a1|111>, evolve for time t, report all amplitudes."""
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    encoded = encode(data, aux_count=2)
    evolved = evolve_exact(encoded, noise, t)
    return evolved, EpsilonReport.from_state(evolved)


def _odd_parity(num_qubits: int, i: int, j: int) -> np.ndarray:
    """True on the basis states whose qubits i and j differ."""
    idx = np.arange(1 << num_qubits)
    return ((idx & _bit_mask(num_qubits, i)) != 0) ^ ((idx & _bit_mask(num_qubits, j)) != 0)


def _project(state: StateVector, keep: np.ndarray) -> tuple[float, StateVector | None]:
    """(Born probability, renormalized state) of the basis states ``keep``
    selects; the state is None for a branch below _MIN_BRANCH_PROB."""
    prob = float(np.sum(np.abs(state.amplitudes[keep]) ** 2))
    if prob < _MIN_BRANCH_PROB:
        return prob, None
    collapsed = np.where(keep, state.amplitudes, 0.0) / np.sqrt(prob)
    return min(prob, 1.0), StateVector.unit(state.num_qubits, collapsed)


def majority_vote_round(
    state: StateVector,
    mode: str = MODE_STOCHASTIC,
    rng: np.random.Generator | None = None,
) -> tuple[StateVector, tuple[int, int], float]:
    """Measure the (0,1) and (1,2) pair parities, repair the inferred flip.

    Returns (corrected state, syndrome, joint Born probability of that
    syndrome). Stochastic mode samples the parities with ``rng``;
    post-selected mode conditions on the no-error syndrome (0, 0), raising
    ZeroProbabilityError when that branch is impossible.
    """
    if state.num_qubits != 3:
        raise ValueError(f"majority vote needs a 3-qubit register, got {state.num_qubits}")
    if mode not in MEASUREMENT_MODES:
        raise ValueError(f"mode must be one of {MEASUREMENT_MODES}, got {mode!r}")
    syndrome = []
    joint_prob = 1.0
    for (i, j) in ((0, 1), (1, 2)):
        odd = _odd_parity(state.num_qubits, i, j)
        if mode == MODE_POST_SELECTED:
            outcome = 0
        else:
            if rng is None:
                raise ValueError("stochastic mode requires an rng")
            p_odd = float(np.sum(np.abs(state.amplitudes[odd]) ** 2))
            outcome = 1 if rng.random() < p_odd else 0
        prob, state = _project(state, odd if outcome else ~odd)
        if state is None:
            raise ZeroProbabilityError(
                f"parity {outcome} on qubits ({i},{j}) has zero probability"
            )
        syndrome.append(outcome)
        joint_prob *= prob
    flip = SYNDROME_TO_FLIP[tuple(syndrome)]
    if flip is not None:
        state = apply_single(state, PAULI_X, flip)
    return state, (syndrome[0], syndrome[1]), min(joint_prob, 1.0)


def syndrome_branches(
    state: StateVector,
) -> list[tuple[tuple[int, int], float, StateVector | None]]:
    """All four syndrome branches of one round: (syndrome, probability,
    corrected state or None for an empty branch). Probabilities sum to 1."""
    if state.num_qubits != 3:
        raise ValueError(f"majority vote needs a 3-qubit register, got {state.num_qubits}")
    branches = []
    p01 = _odd_parity(state.num_qubits, 0, 1)
    p12 = _odd_parity(state.num_qubits, 1, 2)
    for s in ((0, 0), (0, 1), (1, 0), (1, 1)):
        prob, collapsed = _project(state, (p01 == s[0]) & (p12 == s[1]))
        flip = SYNDROME_TO_FLIP[s]
        if collapsed is not None and flip is not None:
            collapsed = apply_single(collapsed, PAULI_X, flip)
        branches.append((s, prob, collapsed))
    return branches
