"""Encoder, disentangle-measure-re-entangle cycle, and the n-cycle runner.

A protocol run entangles the data qubit with one or two auxiliaries, then
alternates short noise evolutions with measurement cycles. Each cycle
disentangles an auxiliary with a CNOT, measures it, and (on the no-error
outcome) re-entangles with a second CNOT. A clean encoded state passes
through a cycle untouched; a noise-perturbed state has its leakage outside
the code space removed by the auxiliary projection, and a measured 1 flags
that the protection failed.
"""
from __future__ import annotations

__all__ = [
    "ABORT_ON_DETECT", "AUX_DUAL_ALTERNATING", "AUX_SINGLE", "MODE_POST_SELECTED",
    "MODE_STOCHASTIC", "RESET_AND_CONTINUE", "CycleOutcome", "ProtocolResult",
    "ZenoSchedule", "decode", "encode", "run_protocol", "zeno_cycle",
]

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .states import (
    _MIN_BRANCH_PROB,
    PAULI_X,
    StateVector,
    ZeroProbabilityError,
    _cnot_permutation,
    _outcome_indices,
    _outcome_probability,
    append_aux,
    apply_cnot,
    apply_single,
    fidelity,
    measure_qubit,
    project_qubit,
)
from .noise import NoiseSpec, apply_propagator, build_hamiltonian, propagator

AUX_SINGLE = "single"
AUX_DUAL_ALTERNATING = "dual-alternating"
AUX_STRATEGIES = (AUX_SINGLE, AUX_DUAL_ALTERNATING)

MODE_POST_SELECTED = "post-selected"
MODE_STOCHASTIC = "stochastic"
MEASUREMENT_MODES = (MODE_POST_SELECTED, MODE_STOCHASTIC)

ABORT_ON_DETECT = "abort-on-detect"
RESET_AND_CONTINUE = "reset-and-continue"
ABORT_POLICIES = (ABORT_ON_DETECT, RESET_AND_CONTINUE)

#: residual auxiliary amplitude tolerated when decoding
DECODE_TOL = 1e-9

#: nodes an outcome tree keeps, about 1.3 KiB each for a 3-qubit register
MAX_TREE_NODES = 1 << 14
#: uniforms a stochastic trial draws at a time, so a long trial holds no
#: O(n) array of them
DRAW_BLOCK = 256


@dataclass
class ZenoSchedule:
    """How a protocol run is sliced: total time, cycle count, strategy, mode.

    The per-cycle interval total_time / cycles is always recomputed from the
    current fields, never stored.
    """

    total_time: float
    cycles: int
    aux_strategy: str = AUX_SINGLE
    measurement_mode: str = MODE_POST_SELECTED
    seed: int | None = None
    abort_policy: str = ABORT_ON_DETECT

    def __post_init__(self):
        if not isinstance(self.cycles, (int, np.integer)) or self.cycles < 1:
            raise ValueError(f"cycles must be a positive integer, got {self.cycles!r}")
        self.cycles = int(self.cycles)
        self.total_time = float(self.total_time)
        if not math.isfinite(self.total_time) or self.total_time < 0:
            raise ValueError(f"total_time must be finite and >= 0, got {self.total_time!r}")
        if self.aux_strategy not in AUX_STRATEGIES:
            raise ValueError(
                f"aux_strategy must be one of {AUX_STRATEGIES}, got {self.aux_strategy!r}"
            )
        if self.measurement_mode not in MEASUREMENT_MODES:
            raise ValueError(
                f"measurement_mode must be one of {MEASUREMENT_MODES}, got {self.measurement_mode!r}"
            )
        if self.abort_policy not in ABORT_POLICIES:
            raise ValueError(
                f"abort_policy must be one of {ABORT_POLICIES}, got {self.abort_policy!r}"
            )
        if self.measurement_mode == MODE_STOCHASTIC:
            if self.seed is None or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
                raise ValueError("stochastic mode requires a non-negative integer seed")
            self.seed = int(self.seed)

    @property
    def interval(self) -> float:
        """Duration of one noise slice, total_time / cycles."""
        return self.total_time / self.cycles

    @property
    def aux_count(self) -> int:
        return 1 if self.aux_strategy == AUX_SINGLE else 2

    @property
    def register_size(self) -> int:
        """Qubits of the encoded register: the data qubit and the auxiliaries."""
        return 1 + self.aux_count


@dataclass(frozen=True)
class CycleOutcome:
    """Result of one measurement cycle: the auxiliary bit, its Born
    probability at measurement time, and the register state afterwards."""

    aux_outcome: int
    branch_probability: float
    state_after: StateVector


@dataclass
class ProtocolResult:
    """Aggregate of a full run.

    survival_probability is the probability of the all-no-error record in
    post-selected mode, computed as 1 minus the mass the cycles leaked, and
    the 0/1 all-outcomes-zero indicator in stochastic mode.
    loss_probability is 1 - survival_probability, kept as computed: near
    survival 1 a float survival holds 1 - survival only to within 1.1e-16
    absolute, which at large n is far coarser than the leaked mass itself.
    final_fidelity compares the terminal register state against the ideal
    noiseless encoded state. cycle_log holds the per-cycle outcomes of a
    stochastic run; it is empty in post-selected mode, which does not step
    cycle by cycle.
    """

    survival_probability: float
    loss_probability: float
    final_fidelity: float
    detected: bool
    cycle_log: list[CycleOutcome] = field(default_factory=list)
    final_state: StateVector | None = None


def encode(data: StateVector, aux_count: int) -> StateVector:
    """Entangle a one-qubit state with aux_count fresh |0> auxiliaries.

    (a0, a1) becomes a0|00> + a1|11> for one auxiliary, a0|000> + a1|111>
    for two; the data qubit stays at index 0.
    """
    if data.num_qubits != 1:
        raise ValueError(f"data must be a single qubit, got {data.num_qubits}")
    if not data.is_normalized:
        raise ValueError("data state must be normalized")
    if aux_count not in (1, 2):
        raise ValueError(f"aux_count must be 1 or 2, got {aux_count!r}")
    state = append_aux(data, aux_count)
    for aux in range(1, aux_count + 1):
        state = apply_cnot(state, 0, aux)
    return state


def zeno_cycle(
    state: StateVector,
    data_q: int,
    aux_q: int,
    mode: str = MODE_POST_SELECTED,
    rng: np.random.Generator | None = None,
) -> CycleOutcome:
    """One disentangle-measure-re-entangle cycle on (data_q, aux_q).

    The circuit is CNOT(data->aux), measure aux, CNOT(data->aux). In
    post-selected mode the aux=0 branch is taken and its probability
    recorded; a zero-probability branch raises ZeroProbabilityError, which
    signals certain detection. In stochastic mode the outcome is sampled with
    ``rng``; on outcome 1 the re-entangling CNOT is skipped (the process has
    failed) and the post-measurement state is returned as-is.
    """
    if data_q == aux_q:
        raise ValueError("data_q and aux_q must differ")
    if mode not in MEASUREMENT_MODES:
        raise ValueError(f"mode must be one of {MEASUREMENT_MODES}, got {mode!r}")
    disentangled = apply_cnot(state, data_q, aux_q)
    if mode == MODE_POST_SELECTED:
        prob, collapsed = project_qubit(disentangled, aux_q, 0)
        return CycleOutcome(0, prob, apply_cnot(collapsed, data_q, aux_q))
    if rng is None:
        raise ValueError("stochastic mode requires an rng")
    record, collapsed = measure_qubit(disentangled, aux_q, rng)
    if record.outcome == 0:
        return CycleOutcome(0, record.probability, apply_cnot(collapsed, data_q, aux_q))
    return CycleOutcome(1, record.probability, collapsed)


def run_protocol(data: StateVector, noise: NoiseSpec, schedule: ZenoSchedule) -> ProtocolResult:
    """Encode, then alternate noise slices with measurement cycles.

    The register evolves under the noise Hamiltonian for total_time / cycles
    between cycles. With the dual-alternating strategy, cycles address the
    two auxiliaries in turn so the idle one stays entangled throughout.

    Post-selected runs are computed in closed form rather than cycle by
    cycle: the no-error branch of one cycle is a linear map, so the whole run
    is its n-th power, taken by repeated squaring in O(log n) matrix
    products together with the mass the cycles leak. Survival is 1 minus
    that leaked mass, which keeps 1 - survival accurate at large n, and
    cycle_log stays empty. A no-error branch below the ZeroProbabilityError
    threshold in some cycle means detection is certain: survival is 0 and
    the final state is the register just after that cycle's noise slice.

    A stochastic run is one trial of :func:`sample_trials`, seeded with
    ``schedule.seed``: each cycle's auxiliary is sampled, and a measured 1
    sets ``detected``. Abort-on-detect stops there; reset-and-continue
    re-zeros the auxiliary, re-entangles, and keeps going. cycle_log holds
    the outcome of every cycle the trial completed. A sampled branch below
    the ZeroProbabilityError threshold also detects, and ends the run with
    the register just after that cycle's noise slice.
    """
    if schedule.measurement_mode == MODE_STOCHASTIC:
        steps: list[CycleOutcome | None] = []
        # one trial never revisits a node, so the tree links none
        trial = _OutcomeTree(data, noise, schedule, capacity=0).sample(schedule.seed, steps)
        return ProtocolResult(
            survival_probability=0.0 if trial.detected else 1.0,
            loss_probability=1.0 if trial.detected else 0.0,
            final_fidelity=trial.final_fidelity,
            detected=trial.detected,
            cycle_log=[cycle for cycle in steps if cycle is not None],
            final_state=trial.state,
        )
    encoded, step = _prepare(data, noise, schedule)
    survival, loss, detected, state = _post_selected(encoded, step, schedule.cycles)
    return ProtocolResult(
        survival_probability=survival,
        loss_probability=loss,
        final_fidelity=fidelity(state, encoded),
        detected=detected,
        final_state=state,
    )


def sample_trials(
    data: StateVector, noise: NoiseSpec, schedule: ZenoSchedule, seeds: Iterable[int]
) -> Iterator[HistoryNode]:
    """Run one stochastic trial per seed; yield each trial's final node.

    Trial t draws one uniform per cycle from ``default_rng(seeds[t])``
    (``schedule.seed`` is not used) and measures 1 in a cycle when its draw
    is below that cycle's Born probability of 1, exactly as
    :func:`zeno_cycle` samples. A trial's register depends only on its
    outcome history, so all trials walk one shared tree of histories whose
    nodes are built, with the same gate calls as the per-cycle circuit, the
    first time a trial reaches them. Encoding and the propagator are built
    once. Under abort-on-detect every running trial sits on the single
    no-error path; under reset-and-continue trials share history prefixes.
    The tree holds at most MAX_TREE_NODES nodes; past that, nodes are built
    for the trial at hand and dropped after it.
    """
    if schedule.measurement_mode != MODE_STOCHASTIC:
        raise ValueError("sample_trials needs a stochastic schedule")
    tree = _OutcomeTree(data, noise, schedule)
    return map(tree.sample, seeds)


class HistoryNode:
    """A node of the outcome tree: the register after a history of cycle
    outcomes, as the per-cycle circuit leaves it.

    A trial ends on a node that has completed every cycle, that measured 1
    under abort-on-detect, or that a zero-probability branch ended (its
    ``cycle`` is None and ``state`` is the register after that cycle's noise
    slice); such a node also holds ``final_fidelity``, the fidelity of
    ``state`` with the noiseless encoded register. A running node holds what
    the next cycle needs: the register after the noise slice, the
    disentangled register, and its Born probability of measuring 1.
    """

    __slots__ = (
        "state", "cycle", "depth", "detected", "done", "final_fidelity",
        "noisy", "disentangled", "aux_q", "p_one", "children",
    )

    def __init__(self, state, cycle, depth, detected, done):
        self.state = state
        self.cycle = cycle
        self.depth = depth
        self.detected = detected
        self.done = done
        self.children = [None, None]


class _OutcomeTree:
    """The shared tree of outcome histories for one (data, noise, schedule).

    It links at most ``capacity`` nodes below the root (MAX_TREE_NODES when
    None); the others are built for the trial at hand and dropped after it.
    """

    def __init__(
        self,
        data: StateVector,
        noise: NoiseSpec,
        schedule: ZenoSchedule,
        capacity: int | None = None,
    ):
        self.encoded, self.step = _prepare(data, noise, schedule)
        self.cycles = schedule.cycles
        self.aux_count = schedule.aux_count
        self.reset = schedule.abort_policy == RESET_AND_CONTINUE
        self.capacity = MAX_TREE_NODES if capacity is None else capacity
        self.size = 0
        self.root = self._node(self.encoded, None, 0, False)

    def sample(self, seed: int, steps: list | None = None) -> HistoryNode:
        """Walk one trial's draws down the tree to the node it ends on. If
        ``steps`` is given, append the ``cycle`` of every node passed."""
        rng = np.random.default_rng(seed)
        node = self.root
        while not node.done:
            for u in rng.random(min(self.cycles - node.depth, DRAW_BLOCK)).tolist():
                outcome = 1 if u < node.p_one else 0
                node = node.children[outcome] or self._child(node, outcome)
                if steps is not None:
                    steps.append(node.cycle)
                if node.done:
                    break
        return node

    def _node(self, state, cycle, depth, detected, done=False) -> HistoryNode:
        node = HistoryNode(state, cycle, depth, detected, done or depth == self.cycles)
        if node.done:
            node.final_fidelity = fidelity(state, self.encoded)
        else:
            node.noisy = apply_propagator(state, self.step)
            node.aux_q = 1 if self.aux_count == 1 else 1 + (depth % 2)
            node.disentangled = apply_cnot(node.noisy, 0, node.aux_q)
            node.p_one = _outcome_probability(node.disentangled, node.aux_q, 1)
        return node

    def _child(self, node: HistoryNode, outcome: int) -> HistoryNode:
        """Build the node one cycle below ``node`` for ``outcome``, and keep
        it while the tree has room."""
        aux_q, depth = node.aux_q, node.depth + 1
        try:
            prob, collapsed = project_qubit(node.disentangled, aux_q, outcome)
        except ZeroProbabilityError:
            # the sampled branch carries no probability: detection is certain
            child = self._node(node.noisy, None, depth, True, done=True)
        else:
            if outcome == 0:
                cycle = CycleOutcome(0, prob, apply_cnot(collapsed, 0, aux_q))
                child = self._node(cycle.state_after, cycle, depth, node.detected)
            elif self.reset:
                # re-zero the measured auxiliary, re-entangle, keep going
                state = apply_cnot(apply_single(collapsed, PAULI_X, aux_q), 0, aux_q)
                child = self._node(state, CycleOutcome(1, prob, collapsed), depth, True)
            else:
                child = self._node(collapsed, CycleOutcome(1, prob, collapsed), depth, True, done=True)
        if self.size < self.capacity:
            node.children[outcome] = child
            self.size += 1
        return child


def _prepare(data: StateVector, noise: NoiseSpec, schedule: ZenoSchedule):
    """(encoded register, propagator of one noise slice) for a run."""
    encoded = encode(data, schedule.aux_count)
    hamiltonian = build_hamiltonian(noise, schedule.register_size)
    return encoded, propagator(hamiltonian, schedule.interval)


def _post_selected(
    encoded: StateVector, step: np.ndarray, cycles: int
) -> tuple[float, float, bool, StateVector]:
    """(survival, loss, detected, final state) of the no-error branch over
    all cycles.

    One cycle on auxiliary a is the pair (M, G): M = keep_a U maps the
    register onto the no-error branch, and G = (Q_a U)^+ (Q_a U), with
    Q_a = I - keep_a, is the Gram matrix of the mass it leaks, so a cycle
    takes ||psi||^2 to ||M psi||^2 = ||psi||^2 - psi^+ G psi.
    """
    num_qubits = encoded.num_qubits
    masks = _cycle_masks(num_qubits)
    pairs = []
    for keep, leak in masks:
        leaked = leak[:, None] * step
        pairs.append((keep[:, None] * step, leaked.conj().T @ leaked))
    if len(pairs) == 1:
        m, g = _pair_power(pairs[0], cycles)
    else:
        first, second = pairs
        if cycles == 1:
            m, g = first
        else:
            m, g = _pair_power(_compose(first, second), cycles // 2)
            if cycles % 2:
                m, g = _compose((m, g), first)

    psi = encoded.amplitudes
    kept_amps = m @ psi
    kept = float(np.vdot(kept_amps, kept_amps).real)
    if kept < _MIN_BRANCH_PROB:
        # only here can a single cycle's branch have fallen below the
        # threshold; replay the cycles to find out and to reproduce them
        return _replay(encoded, step, [keep for keep, _ in masks], cycles)
    # the leaked mass keeps its relative precision where 1 - kept would not;
    # past 1/2 the kept mass is the more precise of the two
    loss = max(float(np.vdot(psi, g @ psi).real), 0.0)
    survival = 1.0 - loss
    if loss >= 0.5:
        survival, loss = kept, 1.0 - kept
    final = StateVector._checked(num_qubits, kept_amps / math.sqrt(kept))
    return survival, loss, False, final


@lru_cache(maxsize=None)
def _cycle_masks(num_qubits: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(keep, leak) diagonals of the cycle on each auxiliary 1..num_qubits-1,
    read-only. keep is the diagonal of CNOT(0, a) P0(a) CNOT(0, a): 1 on the
    basis states whose data and auxiliary bits agree, 0 elsewhere; leak is
    1 - keep."""
    masks = []
    for aux_q in range(1, num_qubits):
        p0 = np.zeros(1 << num_qubits)
        p0[_outcome_indices(num_qubits, aux_q, 0)] = 1.0
        keep = p0[_cnot_permutation(num_qubits, 0, aux_q)]
        leak = 1.0 - keep
        keep.flags.writeable = False
        leak.flags.writeable = False
        masks.append((keep, leak))
    return tuple(masks)


def _compose(first, second):
    """The pair of ``first`` followed by ``second``: the maps multiply, and
    the second map's leak is seen through the first map."""
    m1, g1 = first
    m2, g2 = second
    return m2 @ m1, g1 + m1.conj().T @ g2 @ m1


def _pair_power(pair, power: int):
    """``pair`` composed with itself ``power`` >= 1 times, by repeated
    squaring."""
    result = None  # the first factor is taken as is, not composed with (I, 0)
    while True:
        if power & 1:
            result = pair if result is None else _compose(result, pair)
        power >>= 1
        if not power:
            return result
        pair = _compose(pair, pair)


def _replay(
    encoded: StateVector, step: np.ndarray, keeps: list[np.ndarray], cycles: int
) -> tuple[float, float, bool, StateVector]:
    """The no-error branch cycle by cycle with raw matvecs, renormalizing
    after each projection as the per-cycle circuit does."""
    psi = encoded.amplitudes
    survival = 1.0
    for k in range(cycles):
        psi = step @ psi
        kept_amps = keeps[k % len(keeps)] * psi
        prob = float(np.vdot(kept_amps, kept_amps).real)
        if prob < _MIN_BRANCH_PROB:
            return 0.0, 1.0, True, StateVector._checked(encoded.num_qubits, psi)
        survival *= min(prob, 1.0)
        psi = kept_amps / math.sqrt(prob)
    return survival, 1.0 - survival, False, StateVector._checked(encoded.num_qubits, psi)


def decode(state: StateVector, aux_count: int) -> StateVector:
    """Invert the encoder and drop the auxiliaries.

    The state must sit in the code space: after the inverse CNOTs, any
    residual amplitude on a non-zero auxiliary pattern above DECODE_TOL is an
    error.
    """
    if aux_count not in (1, 2):
        raise ValueError(f"aux_count must be 1 or 2, got {aux_count!r}")
    if state.num_qubits != 1 + aux_count:
        raise ValueError(
            f"expected a {1 + aux_count}-qubit register for {aux_count} auxiliaries, "
            f"got {state.num_qubits}"
        )
    for aux in range(1, aux_count + 1):
        state = apply_cnot(state, 0, aux)
    amps = state.amplitudes
    aux_mask = (1 << aux_count) - 1  # auxiliaries occupy the low index bits
    residual_idx = (np.arange(amps.size) & aux_mask) != 0
    residual = float(np.linalg.norm(amps[residual_idx]))
    if residual > DECODE_TOL:
        raise ValueError(
            f"residual auxiliary amplitude {residual:.3e} exceeds tolerance {DECODE_TOL}"
        )
    return StateVector(1, [amps[0], amps[1 << aux_count]])
