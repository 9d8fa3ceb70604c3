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

# apply_propagator and apply_single stay importable here: perfbench/spans.py traces them
from .states import (  # noqa: F401
    _MIN_BRANCH_PROB, NORM_TOL, NormDriftError, StateVector, _bit_mask, _cnot_permutation,
    _outcome_indices, append_aux, apply_cnot, apply_single, fidelity, measure_qubit, project_qubit,
)
from .noise import NoiseSpec, apply_propagator, build_hamiltonian, propagator  # noqa: F401

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

#: nodes an outcome tree keeps, about 0.95 KiB each for a 3-qubit register
MAX_TREE_NODES = 1 << 14
#: uniforms a stochastic trial draws at a time, so a long trial holds no
#: O(n) array of them
DRAW_BLOCK = 256
#: cycles a post-selected zero-branch replay may step, as in config.MAX_STOCHASTIC_CYCLES
MAX_REPLAY_CYCLES = 10_000_000


@dataclass(frozen=True)
class ZenoSchedule:
    """How a protocol run is sliced: total time, cycle count, strategy, mode.

    Frozen, so every schedule has passed its validation:
    ``dataclasses.replace`` builds a changed copy and validates it again.
    The per-cycle interval total_time / cycles is computed, never stored.
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
        object.__setattr__(self, "cycles", int(self.cycles))
        object.__setattr__(self, "total_time", float(self.total_time))
        if not math.isfinite(self.total_time) or self.total_time < 0:
            raise ValueError(f"total_time must be finite and >= 0, got {self.total_time!r}")
        for name, allowed in (
            ("aux_strategy", AUX_STRATEGIES),
            ("measurement_mode", MEASUREMENT_MODES),
            ("abort_policy", ABORT_POLICIES),
        ):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if self.measurement_mode == MODE_STOCHASTIC:
            if self.seed is None or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
                raise ValueError("stochastic mode requires a non-negative integer seed")
            object.__setattr__(self, "seed", int(self.seed))

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
        return _register_size(self.aux_count)


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
    post-selected mode and the 0/1 all-outcomes-zero indicator in stochastic
    mode. loss_probability is 1 - survival_probability, kept as computed:
    near survival 1 a float survival holds 1 - survival only to within
    1.1e-16 absolute, far coarser at large n than the leaked mass itself.
    final_fidelity compares the terminal register state against the ideal
    noiseless encoded state. cycle_log holds the per-cycle outcomes of a
    stochastic run; it is empty in post-selected mode, replayed rows
    included.
    """

    survival_probability: float
    loss_probability: float
    final_fidelity: float
    detected: bool
    cycle_log: list[CycleOutcome] = field(default_factory=list)
    final_state: StateVector | None = None


def _register_size(aux_count: int) -> int:
    """Qubits of a register encoded with ``aux_count`` (1 or 2) auxiliaries."""
    if aux_count not in (1, 2):
        raise ValueError(f"aux_count must be 1 or 2, got {aux_count!r}")
    return 1 + aux_count


def encode(data: StateVector, aux_count: int) -> StateVector:
    """Entangle a one-qubit state with aux_count fresh |0> auxiliaries.

    (a0, a1) becomes a0|00> + a1|11> for one auxiliary, a0|000> + a1|111>
    for two; the data qubit stays at index 0.
    """
    if data.num_qubits != 1:
        raise ValueError(f"data must be a single qubit, got {data.num_qubits}")
    if not data.is_normalized:
        raise ValueError("data state must be normalized")
    _register_size(aux_count)
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

    A post-selected run is the one-row case of :func:`run_post_selected`
    and raises what its row raised. It is computed in closed form: the
    no-error branch of one cycle is a linear map, so the whole run is its
    n-th power, taken by repeated squaring in O(log n) matrix products
    together with the mass the cycles leak. Survival is 1 minus that leaked
    mass, which keeps 1 - survival accurate at large n, and cycle_log stays
    empty. A no-error branch below the ZeroProbabilityError threshold in
    some cycle means detection is certain: survival is 0 and the final state
    is the register just after that cycle's noise slice. So a run that keeps
    less mass than that threshold is replayed: it walks the no-error path of
    the stochastic engine's outcome tree, cycle by cycle, which reproduces
    the per-cycle circuit float for float. The walk steps at most
    MAX_REPLAY_CYCLES cycles, and raises ValueError past it.

    A stochastic run is one trial of :func:`sample_trials`, seeded with
    ``schedule.seed``: each cycle's auxiliary is sampled, and a measured 1
    sets ``detected``. Abort-on-detect stops there; reset-and-continue
    re-zeros the auxiliary, re-entangles, and keeps going. A sampled branch
    below the ZeroProbabilityError threshold also detects, and ends the run
    with the register just after that cycle's noise slice. The trial's raw
    arrays are wrapped only here: cycle_log holds a CycleOutcome for every
    cycle the trial completed, and final_state its last register.
    """
    if schedule.measurement_mode == MODE_STOCHASTIC:
        steps: list[tuple[int, float, np.ndarray] | None] = []
        # one trial never revisits a node, so the tree links none
        trial = _OutcomeTree(data, noise, schedule, capacity=0).sample(schedule.seed, steps)
        size = schedule.register_size
        return ProtocolResult(
            survival_probability=0.0 if trial.detected else 1.0,
            loss_probability=1.0 if trial.detected else 0.0,
            final_fidelity=trial.final_fidelity,
            detected=trial.detected,
            cycle_log=[
                CycleOutcome(outcome, prob, StateVector._wrap(size, amps))
                for outcome, prob, amps in filter(None, steps)
            ],
            final_state=StateVector._wrap(size, trial.amps),
        )
    (result,) = run_post_selected(data, noise, [schedule])
    if isinstance(result, Exception):
        raise result
    return result


def run_post_selected(
    data: StateVector, noise: NoiseSpec, schedules: list[ZenoSchedule]
) -> list[ProtocolResult | Exception]:
    """One post-selected run per schedule, all of one aux strategy: its
    ProtocolResult, or the ValueError or NormDriftError its row raised. The
    rows share one encoding, one Hamiltonian, one propagator stack and one
    squaring ladder; each row's floats are those of its run alone.

    One cycle on auxiliary a is the pair (M, G): M = keep_a U maps the
    register onto the no-error branch, and G = (Q_a U)^+ (Q_a U), with
    Q_a = I - keep_a, is the Gram matrix of the mass it leaks, so a cycle
    takes ||psi||^2 to ||M psi||^2 = ||psi||^2 - psi^+ G psi. One stacked
    ladder raises every row's pair; each row is then finished on its own.
    """
    aux_counts = {s.aux_count for s in schedules}
    if len(aux_counts) != 1 or any(s.measurement_mode != MODE_POST_SELECTED for s in schedules):
        raise ValueError("run_post_selected needs post-selected schedules of one aux strategy")
    encoded, steps = _prepare(data, noise, aux_counts.pop(), [s.interval for s in schedules])
    cycles = [s.cycles for s in schedules]
    pairs = []
    for keep, leak in _cycle_masks(encoded.num_qubits):
        leaked = leak[:, None] * steps
        pairs.append((keep[:, None] * steps, np.swapaxes(leaked.conj(), -1, -2) @ leaked))
    if len(pairs) == 1:
        m, g = _pair_power(pairs[0], cycles)
    else:
        first, second = pairs
        m, g = _pair_power(_compose(first, second), [max(n // 2, 1) for n in cycles])
        # an odd count ends with the first pair; a single cycle is that pair as it is
        odd = [i for i, n in enumerate(cycles) if n % 2 and n > 1]
        if odd:
            m[odd], g[odd] = _compose((m[odd], g[odd]), (first[0][odd], first[1][odd]))
        one = [i for i, n in enumerate(cycles) if n == 1]
        m[one], g[one] = first[0][one], first[1][one]
    results = []
    for i, schedule in enumerate(schedules):
        try:
            results.append(_row_result(data, noise, schedule, encoded, m[i], g[i]))
        except (ValueError, NormDriftError) as exc:
            results.append(exc)
    return results


def sample_trials(
    data: StateVector, noise: NoiseSpec, schedule: ZenoSchedule, seeds: Iterable[int]
) -> Iterator[HistoryNode]:
    """Run one stochastic trial per seed; yield each trial's final node.

    Trial t draws one uniform per cycle from ``default_rng(seeds[t])``
    (``schedule.seed`` is not used) and measures 1 in a cycle when its draw
    is below that cycle's Born probability of 1, exactly as
    :func:`zeno_cycle` samples. A trial's register depends only on its
    outcome history, so all trials walk one shared tree of histories, built
    once per (data, noise, schedule), whose nodes are computed the first time
    a trial reaches them. Under abort-on-detect every running trial sits on
    the single no-error path; under reset-and-continue trials share history
    prefixes. The tree holds at most MAX_TREE_NODES nodes; past that, nodes
    are built for the trial at hand and dropped after it.
    """
    if schedule.measurement_mode != MODE_STOCHASTIC:
        raise ValueError("sample_trials needs a stochastic schedule")
    tree = _OutcomeTree(data, noise, schedule)
    return map(tree.sample, seeds)


class HistoryNode:
    """A node of the outcome tree: ``amps``, the read-only register after a
    history of cycle outcomes, and ``cycle``, the ``(outcome, Born
    probability, read-only amplitudes after)`` of its last cycle.

    A stochastic trial, or a post-selected replay walking the outcome-0
    children, ends on a node that has completed every cycle, that measured 1
    under abort-on-detect, or that a zero-probability branch ended (its
    ``cycle`` is None and ``amps`` is the register after that cycle's noise
    slice); such a node also holds ``final_fidelity``, against the noiseless
    encoded register. A running node holds the register after the next noise
    slice and the disentangling CNOT, and its Born probability of 1.
    """

    __slots__ = (
        "amps", "cycle", "depth", "detected", "done", "final_fidelity",
        "disentangled", "aux_q", "p_one", "children",
    )

    def __init__(self, amps, cycle, depth, detected, done):
        amps.flags.writeable = False
        self.amps = amps
        self.cycle = cycle
        self.depth = depth
        self.detected = detected
        self.done = done
        self.children = [None, None]


class _OutcomeTree:
    """The shared tree of outcome histories for one (data, noise, schedule).

    Stochastic trials sample their way down it; a post-selected replay walks
    its no-error path, the outcome-0 child of every node. Nodes are stepped
    on raw arrays with the numpy operations of the per-cycle gate calls, in
    their order, so every float is theirs; the reset's Pauli-X is an index
    permutation. The norm those calls checked at every node is checked once,
    as the propagator's unitarity. The tree links at most ``capacity`` nodes
    below the root (MAX_TREE_NODES when None); the others are built for the
    walk at hand and dropped after it.
    """

    def __init__(self, data: StateVector, noise: NoiseSpec, schedule: ZenoSchedule,
                 capacity: int | None = None):
        encoded, self.step = _prepare(data, noise, schedule.aux_count, schedule.interval)
        defect = np.abs(self.step.conj().T @ self.step - np.eye(len(self.step))).max()
        if not defect <= NORM_TOL:  # a NaN defect fails too
            raise NormDriftError(f"propagator is not unitary (U+U - I up to {defect:.3e})")
        self.encoded = encoded.amplitudes
        self.num_qubits = schedule.register_size
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

    def _node(self, amps, cycle, depth, detected, done=False) -> HistoryNode:
        node = HistoryNode(amps, cycle, depth, detected, done or depth == self.cycles)
        if node.done:
            node.final_fidelity = float(min(abs(np.vdot(amps, self.encoded)) ** 2, 1.0))
        else:
            node.aux_q = aux_q = 1 + depth % self.aux_count
            node.disentangled = (self.step @ amps)[_cnot_permutation(self.num_qubits, 0, aux_q)]
            branch = node.disentangled[_outcome_indices(self.num_qubits, aux_q, 1)]
            node.p_one = float(np.vdot(branch, branch).real)
        return node

    def _child(self, node: HistoryNode, outcome: int) -> HistoryNode:
        """Build the node one cycle below ``node`` for ``outcome``, and keep
        it while the tree has room."""
        num_qubits, aux_q, depth = self.num_qubits, node.aux_q, node.depth + 1
        cnot = _cnot_permutation(num_qubits, 0, aux_q)
        sel = _outcome_indices(num_qubits, aux_q, outcome)
        branch = node.disentangled[sel]
        prob = float(np.vdot(branch, branch).real)
        if prob < _MIN_BRANCH_PROB:
            # the sampled branch carries no probability: detection is certain;
            # the CNOT is its own inverse, so this is the register after the noise
            child = self._node(node.disentangled[cnot], None, depth, True, done=True)
        else:
            collapsed = np.zeros(node.disentangled.size, dtype=complex)
            collapsed[sel] = branch / np.sqrt(prob)
            if outcome == 0:
                after = collapsed[cnot]
                child = self._node(after, (0, min(prob, 1.0), after), depth, node.detected)
            else:
                collapsed.flags.writeable = False
                cycle, stop = (1, min(prob, 1.0), collapsed), not self.reset
                # a reset re-zeros the measured auxiliary (Pauli-X) and re-entangles
                state = collapsed if stop else collapsed[cnot ^ _bit_mask(num_qubits, aux_q)]
                child = self._node(state, cycle, depth, True, stop)
        if self.size < self.capacity:
            node.children[outcome] = child
            self.size += 1
        return child


def _prepare(data: StateVector, noise: NoiseSpec, aux_count: int, times: float | list[float]):
    """(encoded register, noise-slice propagators for ``times``, a number or a 1-D array)."""
    encoded = encode(data, aux_count)
    return encoded, propagator(build_hamiltonian(noise, encoded.num_qubits), times)


def _row_result(data, noise, schedule, encoded, m, g) -> ProtocolResult:
    """One row's result, from its pair (m, g) raised to ``schedule.cycles``."""
    psi = encoded.amplitudes
    kept_amps = m @ psi
    kept = float(np.vdot(kept_amps, kept_amps).real)
    if kept < _MIN_BRANCH_PROB:
        # only here can a single cycle's branch have fallen below the
        # threshold: walk the no-error path of the outcome tree, cycle by
        # cycle, to find out and to reproduce the per-cycle circuit
        if schedule.cycles > MAX_REPLAY_CYCLES:
            raise ValueError(f"{schedule.cycles} cycles need a cycle-by-cycle replay of the "
                             f"no-error branch, longer than MAX_REPLAY_CYCLES = {MAX_REPLAY_CYCLES}")
        tree = _OutcomeTree(data, noise, schedule, capacity=0)
        node, survival = tree.root, 1.0
        while not node.done:
            node = tree._child(node, 0)
            # a node that detects carries no cycle: its branch held no probability
            survival = survival * node.cycle[1] if node.cycle else 0.0
        state = StateVector._wrap(tree.num_qubits, node.amps)
        return ProtocolResult(survival, 1.0 - survival, node.final_fidelity, node.detected,
                              final_state=state)
    # the leaked mass keeps its relative precision where 1 - kept would
    # not; past 1/2 the kept mass is the more precise of the two
    loss = max(float(np.vdot(psi, g @ psi).real), 0.0)
    survival = 1.0 - loss
    if loss >= 0.5:
        survival, loss = kept, 1.0 - kept
    state = StateVector._checked(encoded.num_qubits, kept_amps / math.sqrt(kept))
    return ProtocolResult(survival, loss, fidelity(state, encoded), False, final_state=state)


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
    """The pair of ``first`` followed by ``second``, row by row: the maps
    multiply, and the second map's leak is seen through the first map."""
    m1, g1 = first
    m2, g2 = second
    return m2 @ m1, g1 + np.swapaxes(m1.conj(), -1, -2) @ g2 @ m1


def _pair_power(pair, powers: list[int]):
    """Row i of the stacked ``pair`` composed with itself ``powers[i]`` >= 1
    times by repeated squaring, with exactly a one-row ladder's products: its
    first factor is taken as it is (composing with (I, 0) makes -0.0 +0.0)."""
    m, g = (np.empty_like(a) for a in pair)
    started = [False] * len(powers)
    while True:
        again = [i for i, p in enumerate(powers) if p & 1 and started[i]]
        if again:
            m[again], g[again] = _compose((m[again], g[again]), (pair[0][again], pair[1][again]))
        for i, p in enumerate(powers):
            if p & 1 and not started[i]:
                m[i], g[i], started[i] = pair[0][i], pair[1][i], True
        powers = [p >> 1 for p in powers]
        if not any(powers):
            return m, g
        pair = _compose(pair, pair)


def decode(state: StateVector, aux_count: int) -> StateVector:
    """Invert the encoder and drop the auxiliaries.

    The state must sit in the code space: after the inverse CNOTs, any
    residual amplitude on a non-zero auxiliary pattern above DECODE_TOL is an
    error.
    """
    size = _register_size(aux_count)
    if state.num_qubits != size:
        raise ValueError(
            f"expected a {size}-qubit register for {aux_count} auxiliaries, got {state.num_qubits}"
        )
    for aux in range(1, aux_count + 1):
        state = apply_cnot(state, 0, aux)
    # one row per data bit, one column per auxiliary pattern (the low index bits)
    amps = state.amplitudes.reshape(2, -1)
    residual = float(np.linalg.norm(amps[:, 1:]))
    if residual > DECODE_TOL:
        raise ValueError(
            f"residual auxiliary amplitude {residual:.3e} exceeds tolerance {DECODE_TOL}"
        )
    return StateVector(1, amps[:, 0])
