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
import sys
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import repeat

import numpy as np

# apply_propagator, apply_single, fidelity and build_hamiltonian stay
# importable here: perfbench/spans.py traces them
from .states import (  # noqa: F401
    _MIN_BRANCH_PROB, NORM_TOL, NormDriftError, StateVector, _bit_mask, _cnot_permutation,
    _outcome_indices, _shown, append_aux, apply_cnot, apply_single, fidelity, measure_qubit,
    project_qubit,
)
from .noise import NoiseSpec, apply_propagator, build_hamiltonian, propagator  # noqa: F401
from . import streams
from .streams import MAX_SEED

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

#: uniforms a stochastic trial draws at a time, so a long trial holds no
#: O(n) array of them
DRAW_BLOCK = 256
#: cycles a post-selected zero-branch replay may step, as in config.MAX_STOCHASTIC_CYCLES
MAX_REPLAY_CYCLES = 10_000_000
#: trial seeds turned into generator states at a time, so a row of many
#: trials holds no array that grows with their count
SEED_BATCH = 4096
#: a batch of trials at most ARRAY_MAX_CYCLES cycles long draws its uniforms
#: on uint64 arrays whatever its trial count, so a process whose stochastic
#: rows are all that short never imports numpy.random (about 10 ms and
#: 5 MiB, against at most 0.5 ms more a few-trial row on arrays); longer
#: trials keep a generator each, as each drawn column costs a fixed numpy
#: overhead and each array draw more than a generator's
ARRAY_MAX_CYCLES = 32


@dataclass(frozen=True)
class ZenoSchedule:
    """How a protocol run is sliced: total time, cycle count, strategy, mode.

    Frozen, so every schedule has passed its validation:
    ``dataclasses.replace`` builds a changed copy and validates it again.
    The per-cycle interval total_time / cycles is computed, never stored.
    A seed is checked in either mode; stochastic mode requires one.
    """

    total_time: float
    cycles: int
    aux_strategy: str = AUX_SINGLE
    measurement_mode: str = MODE_POST_SELECTED
    seed: int | None = None
    abort_policy: str = ABORT_ON_DETECT

    def __post_init__(self):
        if not isinstance(self.cycles, (int, np.integer)) or self.cycles < 1:
            raise ValueError(f"cycles must be a positive integer, got {_shown(self.cycles)}")
        object.__setattr__(self, "cycles", _in_float_range(int(self.cycles)))
        object.__setattr__(self, "total_time", float(self.total_time))
        if not math.isfinite(self.total_time) or self.total_time < 0:
            raise ValueError(f"total_time must be finite and >= 0, got {self.total_time!r}")
        for name, allowed in (
            ("aux_strategy", AUX_STRATEGIES),
            ("measurement_mode", MEASUREMENT_MODES),
            ("abort_policy", ABORT_POLICIES),
        ):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, "
                                 f"got {_shown(getattr(self, name))}")
        if self.seed is not None or self.measurement_mode == MODE_STOCHASTIC:
            if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed <= MAX_SEED):
                raise ValueError(f"seed must be an integer in [0, 2**64), and stochastic mode "
                                 f"requires one, got {_shown(self.seed)}")
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


#: a row of run_post_selected: a ProtocolResult's numbers and its final read-only amplitudes
PostSelectedRow = namedtuple(
    "PostSelectedRow", "survival_probability loss_probability final_fidelity detected amplitudes")
#: where a stochastic trial or the no-error path ends: the read-only register,
#: whether it detected, and the register's fidelity with the encoded state
_End = namedtuple("_End", "amps detected final_fidelity")
#: the read-only index sets of the cycle on auxiliary a (:func:`_cycle_tables`),
#: on amplitudes x: ``x[order]`` is x disentangled, its outcome-1 then its
#: outcome-0 branch; the cycle keeps the latter at ``keep_at``, ``order[half:]``,
#: the entries whose data bit equals a's; a measured 1 puts its branch at
#: ``one_at``, and ``x[reset]`` resets a (Pauli-X) and re-entangles. In
#: :func:`_real_blocks`, ``rows`` are the kept then the leaked entries, as a
#: column, ``cols`` the kept entries of the auxiliary before (the last, before
#: the first), ``at`` the kept entries' real, then imaginary parts
_CycleTable = namedtuple("_CycleTable", "order keep_at one_at reset rows cols at")


def _register_size(aux_count: int) -> int:
    """Qubits of a register encoded with ``aux_count`` (1 or 2) auxiliaries."""
    if aux_count not in (1, 2):
        raise ValueError(f"aux_count must be 1 or 2, got {_shown(aux_count)}")
    return 1 + aux_count


def _in_float_range(cycles: int) -> int:
    """A cycle count, which total_time / cycles divides as a float: past
    float range it raises ValueError, not printing it, as it may have more
    digits than an int converts to str."""
    if cycles > sys.float_info.max:
        raise ValueError(f"cycles must be at most {sys.float_info.max:.6g}, the float range, "
                         f"got an integer of {cycles.bit_length()} bits")
    return cycles


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
    record, collapsed = measure_qubit(disentangled, aux_q, rng)
    if record.outcome == 0:
        return CycleOutcome(0, record.probability, apply_cnot(collapsed, data_q, aux_q))
    return CycleOutcome(1, record.probability, collapsed)


def run_protocol(data: StateVector, noise: NoiseSpec, schedule: ZenoSchedule) -> ProtocolResult:
    """Encode, then alternate noise slices with measurement cycles.

    The register evolves under the noise Hamiltonian for total_time / cycles
    between cycles. With the dual-alternating strategy, cycles address the
    two auxiliaries in turn so the idle one stays entangled throughout.

    A post-selected run is the one-row case of :func:`run_post_selected`,
    and raises what its row raised or wraps the row (the only ProtocolResult
    and StateVector a post-selected run builds). It is computed in closed
    form: the no-error branch of one cycle is a linear map, so the whole run
    is its n-th power, taken by repeated squaring in O(log n) matrix
    products together with the mass the cycles leak. Survival is 1 minus
    that leaked mass, which keeps 1 - survival accurate at large n, and
    cycle_log stays empty. A run that keeps less mass than the
    ZeroProbabilityError threshold may detect with certainty, so it steps
    the outcome tree's no-error path instead, as the per-cycle circuit does,
    for at most MAX_REPLAY_CYCLES cycles (ValueError past that); a certain
    detection leaves survival 0 and the register after that noise slice.

    A stochastic run steps one trial in full, in one loop on raw arrays
    (:meth:`_OutcomeTree.trial`), on a generator in the state of
    ``default_rng(schedule.seed)`` (:func:`streams.generator`): here
    ``schedule.seed`` is the trial's own seed, so trial t of a row sampled
    on master seed m is this run on ``derive_trial_seed(m, cycles, t)``.
    Each cycle's auxiliary is sampled, and a measured 1 sets ``detected``.
    Abort-on-detect stops there; reset-and-continue re-zeros the auxiliary,
    re-entangles, and keeps going. A sampled branch below the
    ZeroProbabilityError threshold also detects, and ends the run with the
    register just after that cycle's noise slice. The loop's arrays are
    wrapped only here: cycle_log holds a CycleOutcome for every cycle the
    trial completed, and final_state its last register.
    """
    if schedule.measurement_mode == MODE_STOCHASTIC:
        rng = streams.generator(schedule.seed)  # ZenoSchedule has checked the seed
        steps, end = _OutcomeTree(data, noise, schedule).trial(rng)
        size = schedule.register_size
        return ProtocolResult(
            survival_probability=0.0 if end.detected else 1.0,
            loss_probability=1.0 if end.detected else 0.0,
            final_fidelity=end.final_fidelity,
            detected=end.detected,
            cycle_log=[CycleOutcome(outcome, prob, StateVector._wrap(size, amps))
                       for outcome, prob, amps in steps],
            final_state=StateVector._wrap(size, end.amps),
        )
    (row,) = run_post_selected(data, noise, schedule, [schedule.cycles])
    if isinstance(row, Exception):
        raise row
    state = StateVector._wrap(schedule.register_size, row.amplitudes)
    return ProtocolResult(*row[:4], final_state=state)


def run_post_selected(
    data: StateVector, noise: NoiseSpec, schedule: ZenoSchedule, cycles: list[int]
) -> list[PostSelectedRow | Exception]:
    """One post-selected run of ``schedule`` per cycle count in ``cycles``
    (``schedule.cycles`` is not read): its PostSelectedRow, or the ValueError
    or NormDriftError its row raised. ``cycles`` is checked once: it must
    be a non-empty list of positive integers, and ``data`` must encode, or
    the call raises. The rows share one encoding, one stack of noise
    slices, built in closed form (:func:`noise.propagator`), and one
    squaring ladder; each row's floats are those of its run alone.

    One cycle on auxiliary a is the pair (M, G): M = keep_a U maps the
    register onto the no-error branch, and G = (Q_a U)^+ (Q_a U), with
    Q_a = I - keep_a, is the Gram matrix of the mass it leaks, so a cycle
    takes ||psi||^2 to ||M psi||^2 = ||psi||^2 - psi^+ G psi. The encoded
    register lies in every kept range, so M runs from the kept entries of
    the cycle before (:func:`_cycle_tables`) to a's, G on the same entries,
    both as real blocks [[re, -im], [im, re]], 4x4 or 8x8, whose adjoint is
    a transpose. One stacked ladder raises every row's pair, one stacked
    pass finishes the rows, each state put back at its last auxiliary's
    kept entries, and a row that keeps less than the zero-branch threshold
    is replayed (:func:`_row_result`). A row whose survival leaves [0, 1]
    fails with a ValueError: a stop-gap for the ladder's roundoff, which no
    row up to n = 2**62 + 1 was found to reach. A ValueError in building
    the shared slices, a count past float range or a noise phase that
    overflows at some row's interval, is a row's own: a one-row call
    returns it, and a call of more rows runs them one by one.
    """
    if schedule.measurement_mode != MODE_POST_SELECTED:
        raise ValueError("run_post_selected needs a post-selected schedule")
    if not cycles or not all(isinstance(n, (int, np.integer)) and n >= 1 for n in cycles):
        raise ValueError(f"cycles must be a non-empty list of positive integers, "
                         f"got {_shown(cycles)}")
    encoded = encode(data, schedule.aux_count)
    try:
        times = [schedule.total_time / _in_float_range(n) for n in cycles]
        steps = propagator(noise, encoded.num_qubits, times)
    except ValueError as exc:
        return [exc] if len(cycles) == 1 else [
            row for n in cycles for row in run_post_selected(data, noise, schedule, [n])]
    real, tables = _real_blocks(steps), _cycle_tables(encoded.num_qubits)
    pairs = []
    for table in tables:
        block = real[:, table.rows, table.cols]
        m, leaked = block[:, :len(table.cols)], block[:, len(table.cols):]
        pairs.append((m, leaked.swapaxes(-1, -2) @ leaked))
    if len(pairs) == 1:
        m, g = _pair_power(pairs[0], cycles)
    else:
        first, second = pairs
        m, g = _pair_power(_compose(first, second), [max(n // 2, 1) for n in cycles])
        # an odd count ends with the first pair; a single cycle is that pair as it is
        _put([i for i, n in enumerate(cycles) if n % 2 and n > 1], (m, g), _compose((m, g), first))
        _put([i for i, n in enumerate(cycles) if n == 1], (m, g), first)
    psi = encoded.amplitudes
    psi_kept = psi.view(np.float64)[tables[-1].at]  # in the last auxiliary's kept coordinates
    kept_amps = m @ psi_kept
    kept = _vdots(kept_amps, kept_amps)
    # the leaked mass keeps its relative precision where 1 - kept would
    # not; past 1/2 the kept mass is the more precise of the two
    loss = np.maximum(_vdots(psi_kept, g @ psi_kept), 0.0)
    high = loss >= 0.5
    survival, loss = np.where(high, kept, 1.0 - loss), np.where(high, 1.0 - kept, loss)
    replay = kept < _MIN_BRANCH_PROB  # the others are normalized by their own kept mass
    with np.errstate(invalid="ignore"):  # a NaN row fails its norm check below
        reduced = kept_amps / np.sqrt(np.where(replay, 1.0, kept))[:, None]
    drifts = np.abs(np.sqrt(_vdots(reduced, reduced)) - 1.0)
    # each row's kept amplitudes go back to the kept indices of its last auxiliary
    states = np.zeros((len(cycles), len(psi)), dtype=complex)
    at = [tables[(n - 1) % len(tables)].at for n in cycles]
    states.view(np.float64)[np.arange(len(cycles))[:, None], at] = reduced
    states.flags.writeable = False
    rows = []
    for n, replayed, drift, survived, lost, overlap, state in zip(
        cycles, replay.tolist(), drifts.tolist(), survival.tolist(), loss.tolist(),
        _vdots(states, psi).tolist(), states,
    ):
        if replayed:
            try:
                rows.append(_row_result(data, noise, schedule, n))
            except (ValueError, NormDriftError) as exc:
                rows.append(exc)
        elif not drift <= NORM_TOL:  # a NaN drift fails too
            rows.append(NormDriftError(f"norm drifted by {drift:.3e} (tolerance {NORM_TOL})"))
        elif not 0.0 <= survived <= 1.0:  # a NaN survival fails too
            rows.append(ValueError(f"survival {survived!r} at n = {n} is outside [0, 1]"))
        else:
            rows.append(PostSelectedRow(survived, lost, min(abs(overlap) ** 2, 1.0), False, state))
    return rows


def sample_trials(
    data: StateVector, noise: NoiseSpec, schedule: ZenoSchedule, trials: int
) -> tuple[int, _End | None]:
    """Run stochastic trials 0, ..., trials - 1, each to its first detection;
    return how many survive, and the no-error path's end that they all stand
    on, an ``(amps, detected, final_fidelity)`` tuple, or None if none does.

    Trial t draws one uniform per cycle from its stream (:mod:`streams`),
    on ``schedule.seed`` as the master seed of the row, and measures 1 in a
    cycle when its draw is below that cycle's Born probability of 1,
    exactly as :func:`zeno_cycle` samples. Until its first 1 a trial walks
    the row's no-error path, stepped only as deep as some trial reaches: it
    detects at its first draw below that path's Born probability of 1, or
    where the path ends in certain detection, and survives to its leaf
    otherwise. So every survivor ends on that one leaf, under either
    policy; a reset-and-continue trial's tail moves no row, and is not run
    here (:func:`run_protocol` runs it).

    Trials are seeded, drawn (:func:`_batch_trials`) and counted SEED_BATCH
    at a time, so a row holds nothing that grows with ``trials``, and no
    trial is walked on its own. A negative or non-integer ``trials`` raises
    ValueError.
    """
    if schedule.measurement_mode != MODE_STOCHASTIC:
        raise ValueError("sampling trials needs a stochastic schedule")
    if not isinstance(trials, (int, np.integer)) or trials < 0:
        raise ValueError(f"trials must be a non-negative integer, got {_shown(trials)}")
    tree = _OutcomeTree(data, noise, schedule)
    survivors = int(sum(
        np.count_nonzero(_batch_trials(tree, schedule.seed, start, min(start + SEED_BATCH, trials)))
        for start in range(0, trials, SEED_BATCH)
    ))
    return survivors, tree.end if survivors else None


def _batch_trials(tree: _OutcomeTree, master_seed: int, start: int, stop: int) -> np.ndarray:
    """Which trials t in [start, stop) survive, to ``tree.end``, as a mask,
    each on its stream (:mod:`streams`). On a path that ends detecting,
    none draws. Otherwise the batch draws by one of two routes, chosen by
    trial length alone, and narrows the mask, block by block, through
    :meth:`_OutcomeTree.survivors`:

    - trials at most ARRAY_MAX_CYCLES cycles long, of any count, draw every
      uniform on arrays, one block of at most SEED_BATCH * ARRAY_MAX_CYCLES;
    - longer trials take a generator each, as every array column costs a
      fixed numpy overhead however few trials it holds. The running trials
      fill a row each of one block, at most DRAW_BLOCK columns at a time,
      until none runs: at most SEED_BATCH * DRAW_BLOCK uniforms.
    """
    cycles, running = tree.cycles, np.ones(stop - start, dtype=bool)
    if tree.end is not None and tree.end.detected:
        return np.zeros_like(running)
    words = streams.trial_words(master_seed, cycles, start, stop)
    if cycles <= ARRAY_MAX_CYCLES:
        return tree.survivors(streams.uniforms(words, cycles), running)
    rngs = streams.generators(words)
    block = np.empty((len(rngs), min(cycles, DRAW_BLOCK)))
    for depth in range(0, cycles, DRAW_BLOCK):
        columns = block[:, :cycles - depth]
        for t in np.flatnonzero(running).tolist():
            rngs[t].random(out=columns[t])
        running = tree.survivors(columns, running, depth)
        if not running.any():
            break
    return running


class _OutcomeTree:
    """The outcome histories of one (data, noise, schedule), stepped with
    the numpy operations of the per-cycle gate calls, in their order, so
    every float is theirs; the CNOTs and the reset's Pauli-X are index
    gathers, and the norm is checked once, as the unitarity of the noise
    slice, built in closed form (:func:`noise.propagator`). ``slices`` holds
    that slice once per auxiliary, its rows in the gather order of the
    cycle on it, so one matvec steps a noise slice and disentangles: a gemv
    computes each row on its own, so the rows come out as the slice's do,
    gathered, and the register the slice leaves is scattered back only where
    detection is certain. On raw arrays, :meth:`_noisy` steps a noise slice
    and :meth:`_no_error` a cycle measuring 0 for :meth:`trial`, from the
    shared first slice ``first``; :meth:`_walk` steps the no-error path with
    the same operations in one loop, with no call a cycle, for a stochastic
    row and a replay alike. A row's trials are compared with the path by
    :meth:`survivors` alone, which walks it deeper each time a running trial
    stands past it, keeping its deepest slice, ``gathered``, and its Born
    probabilities of 1, ``p_one[:length]``; its ``end`` is None until it
    ends."""

    def __init__(self, data: StateVector, noise: NoiseSpec, schedule: ZenoSchedule):
        encoded = encode(data, schedule.aux_count)
        step = propagator(noise, encoded.num_qubits, schedule.interval)
        defect = np.abs(step.conj().T @ step - np.eye(len(step))).max()
        if not defect <= NORM_TOL:  # a NaN defect fails too
            raise NormDriftError(f"propagator is not unitary (U+U - I up to {defect:.3e})")
        self.encoded, self.tables = encoded.amplitudes, _cycle_tables(encoded.num_qubits)
        self.slices = tuple(step[table.order] for table in self.tables)
        self.cycles, self.aux_count = schedule.cycles, schedule.aux_count
        self.half, self.reset = self.encoded.size // 2, schedule.abort_policy == RESET_AND_CONTINUE
        self.first = self.gathered, p_one = self._noisy(self.encoded, 0)
        self.p_one, self.length, self.end = np.array([p_one]), 1, None

    def trial(self, rng: np.random.Generator) -> tuple[list, _End]:
        """One trial, from the encoded register, on uniforms drawn from
        ``rng``, a fresh generator of that trial, at most DRAW_BLOCK at a
        time: the ``(outcome, Born probability, amplitudes after)`` of every
        cycle it completes, and its end. A uniform below the cycle's Born
        probability of 1 measures 1; a branch below the ZeroProbabilityError
        threshold detects, and ends the trial with no step."""
        steps, detected, depth = [], False, 0
        while depth < self.cycles:
            for u in rng.random(min(self.cycles - depth, DRAW_BLOCK)).tolist():
                gathered, p_one = self._noisy(amps, depth) if depth else self.first
                if u < p_one:
                    if p_one < _MIN_BRANCH_PROB:  # the failure branch holds none
                        return steps, self._end(self._ungathered(gathered, depth), True)
                    table, detected = self.tables[depth % self.aux_count], True
                    amps = np.zeros(gathered.size, dtype=complex)
                    amps[table.one_at] = gathered[:self.half] / math.sqrt(p_one)
                    steps.append((1, min(p_one, 1.0), amps))
                    if not self.reset:
                        return steps, self._end(amps, True)
                    # a reset re-zeros the measured auxiliary (Pauli-X) and re-entangles
                    amps = amps[table.reset]
                else:
                    prob, amps = self._no_error(gathered, depth)
                    if prob < _MIN_BRANCH_PROB:
                        return steps, self._end(amps, True)
                    steps.append((0, min(prob, 1.0), amps))
                depth += 1
        return steps, self._end(amps, detected)

    def survivors(self, draws: np.ndarray, running: np.ndarray, depth: int = 0) -> np.ndarray:
        """Which trials survive, or still run, after the ``(trials, k)``
        uniforms ``draws`` of cycles depth + 1 to depth + k: row i holds
        trial i's, and counts only where ``running[i]``, which is narrowed
        in place. A draw below its depth's ``p_one`` measures 1. The running
        trials are compared with the known stretch of the path at once; past
        it, the first that still runs hands its remaining draws to
        :meth:`_walk`, which steps the path until one of them measures 1,
        and the rest are compared again. The row's last block takes the
        step that gives the path its end, which the survivors stand on."""
        known, stop = depth, depth + draws.shape[1]
        while True:
            seen, known = known, min(self.length, stop)
            running &= ~(draws[:, seen - depth:known - depth] < self.p_one[seen:known]).any(axis=1)
            if known == stop or self.end is not None or not running.any():
                break
            self._walk(draws[running.argmax(), known - depth:].tolist())
        if self.end is None and stop == self.cycles and running.any():
            self._grow()
        return running if self.end is None or not self.end.detected else np.zeros_like(running)

    def _grow(self) -> bool:
        """Step the no-error path, not yet ended, a cycle deeper; True if it still runs."""
        self._walk((math.inf,))
        return self.end is None

    def _walk(self, draws, replay=False):
        """Step the no-error path, not yet ended, a cycle deeper for each of
        the uniforms ``draws`` of cycles length + 1 on, until the path ends
        or a draw is below its cycle's Born probability of 1, which is then
        the last of ``p_one``. Each step is :meth:`_no_error` then
        :meth:`_noisy`, inline. A replay takes no Born probability of 1, so
        leaves ``p_one`` as it is, and returns the product of the cycles'
        Born probabilities of 0, each at most 1, and the sum of their logs."""
        slices, half, count, cycles = self.slices, self.half, self.aux_count, self.cycles
        keeps = [table.keep_at for table in self.tables]
        gathered, depth, p_one = self.gathered, self.length, self.p_one
        survival, log_survival, vdot, zeros, sqrt = 1.0, 0.0, np.vdot, np.zeros, math.sqrt
        for u in draws:
            branch = gathered[half:]
            prob = float(vdot(branch, branch).real)
            if prob < _MIN_BRANCH_PROB:
                self.end = self._end(self._ungathered(gathered, depth - 1), True)
                break
            if replay:
                survival *= min(prob, 1.0)
                log_survival += math.log(min(prob, 1.0))
            amps = zeros(2 * half, dtype=complex)
            amps[keeps[(depth - 1) % count]] = branch / sqrt(prob)
            if depth == cycles:
                self.end = self._end(amps, False)
                break
            gathered = slices[depth % count].dot(amps)
            depth += 1
            if not replay:
                branch = gathered[:half]
                prob = float(vdot(branch, branch).real)
                if depth > len(p_one):  # doubled; the entries past length are written before read
                    p_one = np.empty(min(2 * len(p_one), cycles))
                    p_one[:depth - 1] = self.p_one
                    self.p_one = p_one
                p_one[depth - 1] = prob
                if u < prob:
                    break
        self.gathered, self.length = gathered, depth
        return survival, log_survival

    def _noisy(self, amps, depth):
        """``amps`` after cycle depth + 1's noise slice, gathered into its
        outcome-1 then its outcome-0 branch, and the Born probability of 1."""
        gathered = self.slices[depth % self.aux_count].dot(amps)
        branch = gathered[:self.half]
        return gathered, float(np.vdot(branch, branch).real)

    def _no_error(self, gathered, depth):
        """Cycle depth + 1 measuring 0 on ``gathered``: its Born probability
        and the register after it, or before it where detection is certain."""
        branch = gathered[self.half:]
        prob = float(np.vdot(branch, branch).real)
        if prob < _MIN_BRANCH_PROB:
            return prob, self._ungathered(gathered, depth)
        amps = np.zeros(gathered.size, dtype=complex)
        amps[self.tables[depth % self.aux_count].keep_at] = branch / math.sqrt(prob)
        return prob, amps

    def _ungathered(self, gathered, depth):
        """The register cycle depth + 1's noise slice left, undisentangled
        (the CNOT is its own inverse): ``gathered`` scattered back."""
        x = np.empty_like(gathered)
        x[self.tables[depth % self.aux_count].order] = gathered
        return x

    def _end(self, amps, detected) -> _End:
        """The end at the register ``amps``, made read-only."""
        amps.flags.writeable = False
        return _End(amps, detected, float(min(abs(np.vdot(amps, self.encoded)) ** 2, 1.0)))


def _row_result(data, noise, schedule, n) -> PostSelectedRow:
    """``schedule`` run for ``n`` cycles on the outcome tree's no-error path,
    as the per-cycle circuit does, walked as a replay. Its survival is the
    product of the cycles' probabilities while that is a normal float, else
    the exp of their summed logs: 0.0 where it underflows, with
    ``detected`` False."""
    if n > MAX_REPLAY_CYCLES:
        raise ValueError(f"{n} cycles need a cycle-by-cycle replay of the no-error "
                         f"branch, longer than MAX_REPLAY_CYCLES = {MAX_REPLAY_CYCLES}")
    tree = _OutcomeTree(data, noise, replace(schedule, cycles=n))
    survival, log_survival = tree._walk(repeat(math.inf, n), replay=True)
    end = tree.end
    if end.detected or survival < sys.float_info.min:  # nothing survives a certain detection
        survival = 0.0 if end.detected else math.exp(log_survival)
    return PostSelectedRow(survival, 1.0 - survival, end.final_fidelity, end.detected, end.amps)


def _vdots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row's ``np.vdot(x, y)``, a 1-D x or y being every row's, float for float."""
    return (x.conj()[..., None, :] @ y[..., None])[..., 0, 0]


def _real_blocks(a: np.ndarray) -> np.ndarray:
    """The stacked complex matrices ``a`` as real blocks [[re, -im], [im, re]],
    which multiply as ``a`` does, on vectors [x.real, x.imag]."""
    d = a.shape[-1]
    out = np.empty(a.shape[:-2] + (2 * d, 2 * d))
    out[..., :d, :d] = out[..., d:, d:] = a.real
    out[..., d:, :d] = a.imag
    np.negative(a.imag, out=out[..., :d, d:])
    return out


@lru_cache(maxsize=None)
def _cycle_tables(num_qubits: int) -> tuple[_CycleTable, ...]:
    """The read-only :data:`_CycleTable` of the cycle on each auxiliary
    1..num_qubits-1, its entries in the bit order of :mod:`states`."""
    dim, aux = 1 << num_qubits, range(1, num_qubits)
    orders = [_cnot_permutation(num_qubits, 0, a)[np.concatenate(
        [_outcome_indices(num_qubits, a, o) for o in (1, 0)])] for a in aux]
    tables = []
    for a, order, before in zip(aux, orders, orders[-1:] + orders[:-1]):
        (leak_at, keep_at), before = np.split(order, 2), before[dim // 2:]
        tables.append(_CycleTable(
            order, keep_at, _outcome_indices(num_qubits, a, 1),
            _cnot_permutation(num_qubits, 0, a) ^ _bit_mask(num_qubits, a),
            np.concatenate([keep_at, keep_at + dim, leak_at, leak_at + dim])[:, None],
            np.concatenate([before, before + dim]), np.concatenate([2 * keep_at, 2 * keep_at + 1])))
        for array in tables[-1]:
            array.flags.writeable = False
    return tuple(tables)


def _compose(first, second):
    """The pair of ``first`` followed by ``second``, row by row, on real
    blocks: the maps multiply, and the second map's leak is seen through the
    first map, whose adjoint is its transpose."""
    m1, g1 = first
    m2, g2 = second
    return m2 @ m1, g1 + m1.swapaxes(-1, -2) @ g2 @ m1


def _put(rows: list[int], pair, new) -> None:
    """Write the pair ``new`` over the stacked ``pair``, on the listed rows."""
    for i in rows:
        pair[0][i], pair[1][i] = new[0][i], new[1][i]


def _pair_power(pair, powers: list[int]):
    """Row i of the stacked ``pair``, in real, reduced coordinates, composed
    with itself ``powers[i]`` >= 1 times by repeated squaring, with exactly
    a one-row ladder's products: its first factor is taken as it is
    (composing with (I, 0) makes -0.0 +0.0). A bit composes the whole stack,
    and keeps the products it is due on, the rows it starts and the rows
    that compose again, listed for every bit before the ladder."""
    m, g = (a.copy() for a in pair)
    ladder = [([], []) for _ in range(int(max(powers)).bit_length())]  # (start, again) rows
    for i, p in enumerate(map(int, powers)):
        started = False
        while p:  # each set bit, lowest first, which starts the row
            ladder[(p & -p).bit_length() - 1][started].append(i)
            p, started = p & (p - 1), True
    for start, again in ladder[1:]:
        pair = _compose(pair, pair)
        if again:
            # a row this bit is not due on may overflow here; it is not kept
            with np.errstate(over="ignore", invalid="ignore"):
                _put(again, (m, g), _compose((m, g), pair))
        _put(start, (m, g), pair)
    return m, g


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
