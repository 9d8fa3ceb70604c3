"""Dense state vectors, single-qubit gates, CNOT, and projective measurement.

Kets are written with qubit 0 as the leftmost symbol, |q0 q1 ... q_{k-1}>,
so the amplitude of a basis state lives at index sum_i bit(q_i) * 2**(k-1-i).
Registers are capped at 4 qubits (dimension 16), which keeps every dense
operation here trivially fast.

All operations return new values; an existing state is never mutated.
"""
from __future__ import annotations

__all__ = [
    "HADAMARD", "IDENTITY", "MAX_QUBITS", "PAULI_X", "PAULI_Z", "Gate2x2",
    "MeasurementRecord", "NormDriftError", "StateVector", "ZeroProbabilityError",
    "append_aux", "apply_cnot", "apply_single", "fidelity", "ket_string",
    "measure_qubit", "new_state", "project_qubit",
]

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_QUBITS = 4

#: allowed norm drift of a nominally unit state before it is reported as a defect
NORM_TOL = 1e-10
#: unitarity tolerance enforced at gate construction
GATE_TOL = 1e-12

_ZERO_NORM = 1e-12
_MIN_BRANCH_PROB = 1e-14


class NormDriftError(RuntimeError):
    """A state that should have unit norm drifted beyond NORM_TOL.

    Raised instead of silently renormalizing: drift after a gate or an exact
    evolution means the supplied operator was not unitary, and repairing the
    norm would hide that bug.
    """


class ZeroProbabilityError(ValueError):
    """A measurement branch with (numerically) zero Born probability was requested."""


class StateVector:
    """Unit-norm complex amplitudes over the computational basis of 1..4 qubits.

    ``is_normalized`` is True for every value produced by the public
    operations except the explicitly marked first-order expansion output
    (see :func:`zenosim.noise.evolve_first_order`).
    """

    __slots__ = ("num_qubits", "amplitudes", "is_normalized")

    def __init__(self, num_qubits: int, amplitudes=None):
        _check_num_qubits(num_qubits)
        dim = 1 << num_qubits
        if amplitudes is None:
            amps = np.zeros(dim, dtype=complex)
            amps[0] = 1.0
        else:
            amps = _finite_amplitudes(amplitudes)
            if amps.size != dim:
                raise ValueError(
                    f"expected {dim} amplitudes for {num_qubits} qubit(s), got {amps.size}"
                )
            with np.errstate(over="ignore"):
                norm = np.linalg.norm(amps)
            if not _ZERO_NORM <= norm < np.inf:
                # the squares overflowed or underflowed: scale by the largest
                # component first, which leaves ordinary inputs' floats
                # untouched; real division, as 1/peak may overflow
                parts = amps.view(float)
                peak = np.max(np.abs(parts))
                if peak == 0.0:
                    raise ValueError("cannot normalize a zero-norm amplitude vector")
                amps = (parts / peak).view(complex)
                norm = np.linalg.norm(amps)
            amps = amps / norm
        amps.flags.writeable = False
        self.num_qubits = num_qubits
        self.amplitudes = amps
        self.is_normalized = True

    @classmethod
    def unit(cls, num_qubits: int, amplitudes) -> "StateVector":
        """Wrap amplitudes that must already have unit norm (no rescaling).

        Raises ValueError on non-finite amplitudes and NormDriftError if the
        norm is off by more than NORM_TOL.
        """
        return cls._checked(num_qubits, _finite_amplitudes(amplitudes))

    @classmethod
    def _checked(cls, num_qubits: int, amps: np.ndarray) -> "StateVector":
        # fresh array, norm verified: the path for gate and evolution outputs
        drift = abs(np.linalg.norm(amps) - 1.0)
        if not drift <= NORM_TOL:  # a NaN drift fails too
            raise NormDriftError(f"norm drifted by {drift:.3e} (tolerance {NORM_TOL})")
        return cls._wrap(num_qubits, amps)

    @classmethod
    def _wrap(cls, num_qubits: int, amps: np.ndarray, normalized: bool = True) -> "StateVector":
        # a fresh array, taken as is: with the default, one whose unit norm
        # is guaranteed by construction (permutations, explicit
        # renormalizations, tensoring with |0>)
        _check_num_qubits(num_qubits)
        if amps.size != 1 << num_qubits:
            raise ValueError(
                f"expected {1 << num_qubits} amplitudes for {num_qubits} qubit(s), got {amps.size}"
            )
        obj = object.__new__(cls)
        amps.flags.writeable = False
        obj.num_qubits = num_qubits
        obj.amplitudes = amps
        obj.is_normalized = normalized
        return obj

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self) -> str:
        return f"<StateVector {ket_string(self)}>"


class Gate2x2:
    """A single-qubit gate: a 2x2 complex matrix, unitary within GATE_TOL."""

    __slots__ = ("matrix",)

    def __init__(self, entries):
        m = np.array(entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"gate must be a 2x2 matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("gate is not unitary (non-finite entries)")
        defect = np.max(np.abs(m @ m.conj().T - np.eye(2)))
        if not defect <= GATE_TOL:  # a NaN defect fails too
            raise ValueError(f"gate is not unitary (G G+ deviates from I by {defect:.3e})")
        m.flags.writeable = False
        self.matrix = m

    def __repr__(self) -> str:
        return f"Gate2x2({self.matrix.tolist()})"


IDENTITY = Gate2x2([[1, 0], [0, 1]])
PAULI_X = Gate2x2([[0, 1], [1, 0]])
PAULI_Z = Gate2x2([[1, 0], [0, -1]])
HADAMARD = Gate2x2(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


@dataclass(frozen=True)
class MeasurementRecord:
    """One projective measurement: which qubit, which outcome, its Born probability."""

    qubit_index: int
    outcome: int
    probability: float


def _finite_amplitudes(amplitudes) -> np.ndarray:
    amps = np.array(amplitudes, dtype=complex).reshape(-1)
    if not np.isfinite(amps).all():
        raise ValueError(f"amplitudes must be finite, got {amps}")
    return amps


def _shown(value) -> str:
    """``repr(value)`` for an error message, but an int of more than 64 bits,
    alone or in a list, as its bit length: it may have more digits than an
    int converts to str."""
    if isinstance(value, list):
        return f"[{', '.join(map(_shown, value))}]"
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    return repr(value)


def _check_num_qubits(num_qubits: int) -> None:
    if not isinstance(num_qubits, (int, np.integer)) or not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be an integer in 1..{MAX_QUBITS}, "
                         f"got {_shown(num_qubits)}")


def _check_target(state: StateVector, target: int, name: str = "target") -> None:
    if not isinstance(target, (int, np.integer)) or not 0 <= target < state.num_qubits:
        raise ValueError(f"{name} qubit {_shown(target)} out of range for "
                         f"{state.num_qubits} qubit(s)")


def _bit_mask(num_qubits: int, qubit: int) -> int:
    # qubit 0 is the leftmost ket symbol, i.e. the most significant index bit
    return 1 << (num_qubits - 1 - qubit)


@lru_cache(maxsize=None)
def _cnot_permutation(num_qubits: int, control: int, target: int) -> np.ndarray:
    cmask = _bit_mask(num_qubits, control)
    tmask = _bit_mask(num_qubits, target)
    idx = np.arange(1 << num_qubits)
    perm = np.where(idx & cmask != 0, idx ^ tmask, idx)
    perm.flags.writeable = False
    return perm


@lru_cache(maxsize=None)
def _outcome_indices(num_qubits: int, target: int, outcome: int) -> np.ndarray:
    mask = _bit_mask(num_qubits, target)
    idx = np.arange(1 << num_qubits)
    sel = idx[((idx & mask) != 0) == bool(outcome)]
    sel.flags.writeable = False
    return sel


def new_state(num_qubits: int, amplitudes=None) -> StateVector:
    """Build a normalized state; |0...0> when amplitudes are omitted."""
    return StateVector(num_qubits, amplitudes)


def apply_single(state: StateVector, gate: Gate2x2, target: int) -> StateVector:
    """Apply a unitary 2x2 gate to one tensor factor."""
    _check_target(state, target)
    if not isinstance(gate, Gate2x2):
        gate = Gate2x2(gate)  # validates unitarity
    psi = state.amplitudes.reshape((2,) * state.num_qubits)
    out = np.tensordot(gate.matrix, psi, axes=([1], [target]))
    out = np.moveaxis(out, 0, target)
    return StateVector._checked(state.num_qubits, np.ascontiguousarray(out.reshape(-1)))


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip the target bit of every basis state whose control bit is 1."""
    _check_target(state, control, "control")
    _check_target(state, target)
    if control == target:
        raise ValueError("control and target must be distinct qubits")
    perm = _cnot_permutation(state.num_qubits, int(control), int(target))
    # a permutation of the amplitudes preserves the norm exactly
    return StateVector._wrap(state.num_qubits, state.amplitudes[perm])


def project_qubit(state: StateVector, target: int, outcome: int) -> tuple[float, StateVector]:
    """Project one qubit onto an outcome; return (Born probability, collapsed state).

    Raises ZeroProbabilityError when the requested branch carries no
    probability, in which case no collapsed state exists.
    """
    _check_target(state, target)
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {_shown(outcome)}")
    n = state.num_qubits
    sel = _outcome_indices(n, int(target), int(outcome))
    branch = state.amplitudes[sel]
    prob = float(np.real(np.vdot(branch, branch)))
    if prob < _MIN_BRANCH_PROB:
        raise ZeroProbabilityError(
            f"outcome {outcome} on qubit {target} has zero probability ({prob:.3e})"
        )
    collapsed = np.zeros(state.amplitudes.size, dtype=complex)
    collapsed[sel] = branch / np.sqrt(prob)
    return min(prob, 1.0), StateVector._wrap(n, collapsed)


def measure_qubit(
    state: StateVector, target: int, rng: np.random.Generator
) -> tuple[MeasurementRecord, StateVector]:
    """Sample one qubit per the Born rule and collapse.

    Consumes exactly one draw from ``rng``, so identical seeds reproduce
    identical outcome sequences.
    """
    if rng is None:
        raise ValueError("measure_qubit requires an rng, got None")
    _check_target(state, target)
    branch = state.amplitudes[_outcome_indices(state.num_qubits, int(target), 1)]
    outcome = 1 if rng.random() < float(np.real(np.vdot(branch, branch))) else 0
    prob, collapsed = project_qubit(state, target, outcome)
    return MeasurementRecord(int(target), outcome, prob), collapsed


def fidelity(a: StateVector, b: StateVector) -> float:
    """Overlap squared |<a|b>|^2; 1 iff equal up to global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"cannot compare states of {a.num_qubits} and {b.num_qubits} qubits"
        )
    return float(min(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2, 1.0))


def append_aux(state: StateVector, count: int) -> StateVector:
    """Tensor |0>^(x count) onto the register as the highest-index qubits."""
    if not isinstance(count, (int, np.integer)) or count < 0:
        raise ValueError(f"count must be a non-negative integer, got {_shown(count)}")
    total = state.num_qubits + count
    if total > MAX_QUBITS:
        raise ValueError(f"register capacity exceeded: {total} > {MAX_QUBITS} qubits")
    if count == 0:
        return StateVector._wrap(state.num_qubits, state.amplitudes.copy())
    out = np.zeros(1 << total, dtype=complex)
    out[:: 1 << count] = state.amplitudes
    return StateVector._wrap(total, out)


def ket_string(state: StateVector, precision: int = 6, tol: float = 1e-9) -> str:
    """Human-readable ket expansion, e.g. '0.6|00> + 0.8|11>'."""
    parts = []
    for index, amp in enumerate(state.amplitudes):
        if abs(amp) <= tol:
            continue
        label = format(index, f"0{state.num_qubits}b")
        parts.append(f"{_format_amplitude(complex(amp), precision)}|{label}>")
    return " + ".join(parts) if parts else "0"


def _format_amplitude(a: complex, precision: int) -> str:
    re = round(a.real, precision)
    im = round(a.imag, precision)
    if im == 0:
        return f"{re:g}"
    if re == 0:
        return f"{im:g}i"
    sign = "+" if im > 0 else "-"
    return f"({re:g}{sign}{abs(im):g}i)"
