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

import numpy as np

# apply_propagator, apply_single, fidelity and build_hamiltonian stay
# importable here: perfbench/spans.py traces them
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
#: a schedule's seed, and a stochastic trial's, is an unsigned 64-bit integer;
#: mix64 wraps its arithmetic to 64 bits with this mask
MAX_SEED = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The constant of each of ``calls`` successive SeedSequence hashmix
    calls, and the one after: call k xors with entry k, multiplies by k + 1."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


# numpy.random.SeedSequence's hash and mixing constants (NEP 19), for
# _seed_words: hash A hashes the 4 pool words, then mixes each into the 3
# others; hash B hashes the 8 output words
_POOL_SIZE = 4
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE * _POOL_SIZE)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)

# numpy.random.PCG64's 128-bit LCG multiplier (O'Neill 2014; NEP 19) as its
# high and low uint64 words, and the 32-bit limbs of the low word, for _pcg64_step
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)
_PCG_LIMB_0, _PCG_LIMB_1 = _PCG_MULT_LO & np.uint64(_MASK32), _PCG_MULT_LO >> np.uint64(32)
_LOW32 = np.uint64(_MASK32)


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
        if self.seed is not None or self.measurement_mode == MODE_STOCHASTIC:
            if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed <= MAX_SEED):
                raise ValueError(f"seed must be an integer in [0, 2**64), and stochastic mode "
                                 f"requires one, got {self.seed!r}")
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
    ``default_rng(schedule.seed)``: here ``schedule.seed`` is the trial's
    own seed, so trial t of a row sampled on master seed m is this run on
    ``derive_trial_seed(m, cycles, t)``. Each cycle's auxiliary is sampled,
    and a measured 1 sets ``detected``. Abort-on-detect stops there;
    reset-and-continue re-zeros the auxiliary, re-entangles, and keeps
    going. A sampled branch below the ZeroProbabilityError threshold also
    detects, and ends the run with the register just after that cycle's
    noise slice. The loop's arrays are wrapped only here: cycle_log holds a
    CycleOutcome for every cycle the trial completed, and final_state its
    last register.
    """
    if schedule.measurement_mode == MODE_STOCHASTIC:
        rng = np.random.default_rng(schedule.seed)  # ZenoSchedule has checked the seed
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
    the cycle before (:func:`_kept_blocks`) to a's, G on the same entries,
    both as real blocks [[re, -im], [im, re]], 4x4 or 8x8, whose adjoint is
    a transpose. One stacked ladder raises every row's pair, one stacked
    pass finishes the rows, each state put back at its last auxiliary's
    kept entries, and a row that keeps less than the zero-branch threshold
    is replayed (:func:`_row_result`). A row whose survival leaves [0, 1]
    fails with a ValueError: a stop-gap for the ladder's roundoff, which no
    row up to n = 2**62 + 1 was found to reach. A ValueError in building
    the shared slices, a noise phase that overflows at some row's interval,
    is a row's own: a one-row call returns it, and a call of more rows runs
    them one by one.
    """
    if schedule.measurement_mode != MODE_POST_SELECTED:
        raise ValueError("run_post_selected needs a post-selected schedule")
    if not cycles or not all(isinstance(n, (int, np.integer)) and n >= 1 for n in cycles):
        raise ValueError(f"cycles must be a non-empty list of positive integers, got {cycles!r}")
    encoded = encode(data, schedule.aux_count)
    try:
        steps = propagator(noise, encoded.num_qubits, [schedule.total_time / n for n in cycles])
    except ValueError as exc:
        return [exc] if len(cycles) == 1 else [
            row for n in cycles for row in run_post_selected(data, noise, schedule, [n])]
    real, tables = _real_blocks(steps), _kept_blocks(encoded.num_qubits)
    pairs = []
    for kept_then_leaked, cols, _ in tables:
        block = real[:, kept_then_leaked, cols]
        m, leaked = block[:, :len(cols)], block[:, len(cols):]
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
    psi_kept = psi.view(np.float64)[tables[-1][2]]  # in the last auxiliary's kept coordinates
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
    at = [tables[(n - 1) % len(tables)][2] for n in cycles]
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

    Trial t draws one uniform per cycle, the uniforms
    ``default_rng(derive_trial_seed(schedule.seed, schedule.cycles, t)).random``
    gives, so ``schedule.seed`` is the master seed of the row, and measures
    1 in a cycle when its draw is below that cycle's Born probability of 1,
    exactly as :func:`zeno_cycle` samples. Until its first 1 a trial walks
    the row's no-error path, stepped only as deep as some trial reaches: it
    detects at its first draw below that path's Born probability of 1, or
    where the path ends in certain detection, and survives to its leaf
    otherwise. So every survivor ends on that one leaf, under either
    policy; a reset-and-continue trial's tail moves no row, and is not run
    here (:func:`run_protocol` runs it).

    Seeds are derived lazily, SEED_BATCH trials at a time, and each batch is
    seeded, drawn by one of two routes (:func:`_batch_trials`) and counted
    before the next, so a row holds nothing that grows with ``trials``;
    every draw is the same on either route, and both compare their draws
    with the path in one way, :meth:`_OutcomeTree.survivors`, with no trial
    walked on its own. A negative or non-integer ``trials`` raises ValueError.
    """
    if schedule.measurement_mode != MODE_STOCHASTIC:
        raise ValueError("sampling trials needs a stochastic schedule")
    if not isinstance(trials, (int, np.integer)) or trials < 0:
        raise ValueError(f"trials must be a non-negative integer, got {trials!r}")
    tree = _OutcomeTree(data, noise, schedule)
    survivors = int(sum(
        np.count_nonzero(_batch_trials(tree, schedule.seed, start, min(start + SEED_BATCH, trials)))
        for start in range(0, trials, SEED_BATCH)
    ))
    return survivors, tree.end if survivors else None


def mix64(x):
    """splitmix64 finalizer: one-round avalanche of a 64-bit value, an int or
    a uint64 array (whose arithmetic wraps mod 2**64 as the masks do)."""
    x = (x + 0x9E3779B97F4A7C15) & MAX_SEED
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MAX_SEED
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MAX_SEED
    return x ^ (x >> 31)


def derive_trial_seed(master_seed: int, n: int, trial):
    """Order-independent per-trial seed: mix64 chained over (seed, n, trial).
    ``trial`` may be a uint64 array of trial indices, for one seed each."""
    s = mix64(master_seed & MAX_SEED)
    s = mix64(s ^ (n & MAX_SEED))
    return mix64(s ^ (trial & MAX_SEED))


def _batch_trials(tree: _OutcomeTree, master_seed: int, start: int, stop: int) -> np.ndarray:
    """Which trials t in [start, stop) survive, to ``tree.end``, as a mask,
    trial t drawn on the uniforms of
    ``default_rng(derive_trial_seed(master_seed, tree.cycles, t))``. On a
    path that ends detecting, none draws. Otherwise the batch's seeds are
    derived in one call on a uint64 array of indices and hashed through
    :func:`_seed_words` in one pass, and the batch draws by one of two
    routes, chosen by trial length alone; either route narrows the
    mask, block by block, through :meth:`_OutcomeTree.survivors`:

    - a batch of trials at most ARRAY_MAX_CYCLES cycles long, of any
      trial count, draws every uniform on uint64 arrays in one pass
      (:func:`_pcg64_random`), with no generator built and numpy.random
      not imported, one block of at most SEED_BATCH * ARRAY_MAX_CYCLES
      uniforms;
    - a batch of longer trials hands each trial a PCG64 generator in the
      state of its seed's words: every array column costs a fixed numpy
      overhead however few trials it holds. The running trials fill a row
      each of one block, at most DRAW_BLOCK columns at a time, until none
      runs: at most SEED_BATCH * DRAW_BLOCK uniforms.
    """
    cycles, running = tree.cycles, np.ones(stop - start, dtype=bool)
    if tree.end is not None and tree.end.detected:
        return np.zeros_like(running)
    words = _seed_words(derive_trial_seed(master_seed, cycles,
                                          np.arange(start, stop, dtype=np.uint64)))
    if cycles <= ARRAY_MAX_CYCLES:
        running = tree.survivors(_pcg64_random(_pcg64_state(words), cycles), running)
    else:
        seed_words = _seed_words_class()
        rngs = [np.random.Generator(np.random.PCG64(seed_words(row))) for row in words]
        block = np.empty((len(rngs), min(cycles, DRAW_BLOCK)))
        for depth in range(0, cycles, DRAW_BLOCK):
            columns = block[:, :cycles - depth]
            for t in np.flatnonzero(running).tolist():
                rngs[t].random(out=columns[t])
            running = tree.survivors(columns, running, depth)
            if not running.any():
                break
    return running


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """Row i is ``SeedSequence(seeds[i]).generate_state(4, np.uint64)``.

    SeedSequence's entropy pool and output hash, on uint32 arrays of one
    entry per seed; its hash constants do not depend on the seed, so every
    seed steps in lockstep, and the hashmix calls that hash the same word
    run as one call on a vector of their constants. A seed's entropy is its
    32-bit words, low word first, and the pool pads them with hashed zeros:
    a seed below 2**32 has one word and the pool of [s, 0], so every seed
    takes the same path.
    """

    def hashmix(values, consts):
        # one hashmix call per entry of consts but the last, on the rows of
        # values: xor with the entry, multiply by the next
        value = (values ^ consts[:-1, None]) * consts[1:, None]
        return value ^ (value >> 16)

    pool = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = (seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)
    pool = hashmix(pool, _HASH_A[:_POOL_SIZE + 1])
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        k = _POOL_SIZE + len(dst) * src
        hashed = hashmix(pool[src], _HASH_A[k:k + len(dst) + 1])
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> 16)
    state = hashmix(pool[[i % _POOL_SIZE for i in range(2 * _POOL_SIZE)]], _HASH_B)
    # uint32 state words 2i and 2i + 1 read as one little-endian uint64,
    # whatever the host's order
    words = state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << 32
    return np.ascontiguousarray(words.T)


def _pcg64_state(words: np.ndarray) -> np.ndarray:
    """The (4, len(words)) uint64 rows state high, state low, increment
    high, increment low of ``PCG64`` seeded with each row of
    :func:`_seed_words`, as numpy seeds it: the state is words 0 and 1, the
    increment source words 2 and 3, ``inc = (initseq << 1) | 1`` and
    ``state = MULT (inc + initstate) + inc`` mod 2**128."""
    init_hi, init_lo, seq_hi, seq_lo = words.T
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    low = init_lo + inc_lo
    with np.errstate(over="ignore"):
        hi, lo = _pcg64_step(init_hi + inc_hi + (low < inc_lo), low, inc_hi, inc_lo)
    return np.stack([hi, lo, inc_hi, inc_lo])


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, ``state MULT + inc`` mod 2**128, of each state
    (hi, lo) on uint64 arrays, which wrap mod 2**64. The high word of
    ``lo * MULT_LO`` is summed from 32-bit limbs, none of whose partial
    sums reaches 2**64."""
    lo_0, lo_1 = lo & _LOW32, lo >> 32
    cross = lo_1 * _PCG_LIMB_0 + (lo_0 * _PCG_LIMB_0 >> 32)
    mid = (cross & _LOW32) + lo_0 * _PCG_LIMB_1
    carry = lo_1 * _PCG_LIMB_1 + (cross >> 32) + (mid >> 32)
    low = lo * _PCG_MULT_LO + inc_lo
    high = carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi + (low < inc_lo)
    return high, low


def _pcg64_random(state: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` uniforms of each PCG64 state column of
    :func:`_pcg64_state`, as a (columns, k) float array; ``state`` is left
    as it is. A draw steps the state, outputs the 64-bit
    ``rotr(hi ^ lo, hi >> 58)`` (PCG XSL-RR) and returns its top 53 bits
    times 2**-53, as ``Generator.random`` does, formed in place on the
    stepped words, so the draw holds three (k, columns) arrays at most."""
    his = np.empty((k, state.shape[1]), dtype=np.uint64)
    los = np.empty_like(his)
    hi, lo, inc_hi, inc_lo = state
    with np.errstate(over="ignore"):
        for j in range(k):
            hi, lo = his[j], los[j] = _pcg64_step(hi, lo, inc_hi, inc_lo)
    rot = his >> 58  # read before the xor overwrites his
    out = np.bitwise_xor(his, los, out=his)
    rotated = np.right_shift(out, rot, out=los)
    np.bitwise_and(np.subtract(64, rot, out=rot), 63, out=rot)
    rotated |= np.left_shift(out, rot, out=out)
    rotated >>= 11
    # the floats take the buffer of out, which is no longer read
    return np.multiply(rotated, 2.0**-53, out=out.view(np.float64)).T


@lru_cache(maxsize=None)
def _seed_words_class() -> type:
    """The seed sequence that hands ``np.random.PCG64`` a row of
    :func:`_seed_words`. Built on first use, by a row of trials longer than
    ARRAY_MAX_CYCLES: it subclasses a numpy.random class, and importing
    numpy.random adds about 5 MiB to the peak RSS of a post-selected run,
    which never draws, and of a stochastic run whose rows are all at most
    ARRAY_MAX_CYCLES cycles long, which draws on arrays. That saving holds
    on NumPy 2, which loads numpy.random lazily; NumPy 1 imports it with
    numpy."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """PCG64 asks its seed sequence for 4 uint64 words, and these are the
        words ``SeedSequence(seed)`` would give, so
        ``Generator(PCG64(SeedWords(row)))`` is in the state of
        ``default_rng(seed)``. It can give nothing else."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"only 4 uint64 words are held, not {n_words} of {np.dtype(dtype)}"
                )
            return self.words

    return SeedWords


class _OutcomeTree:
    """The outcome histories of one (data, noise, schedule), stepped with
    the numpy operations of the per-cycle gate calls, in their order, so
    every float is theirs; the CNOTs and the reset's Pauli-X are index
    gathers, and the norm is checked once, as the unitarity of the noise
    slice, built in closed form (:func:`noise.propagator`).
    On raw arrays, :meth:`_noisy` alone steps a noise slice, one matvec and
    one gather, and :meth:`_no_error` a cycle measuring 0, for every trial
    (:meth:`trial`, from the shared first slice ``first``), a stochastic row
    and a replay alike. A row's trials are compared with the no-error path
    by :meth:`survivors` alone, which steps the path a cycle deeper each
    time a running trial stands past it, keeping its deepest slice, ``x``
    and ``gathered``, and its Born probabilities of 1, ``p_one[:length]``;
    its ``end`` is None until it ends."""

    def __init__(self, data: StateVector, noise: NoiseSpec, schedule: ZenoSchedule):
        encoded = encode(data, schedule.aux_count)
        self.step = propagator(noise, encoded.num_qubits, schedule.interval)
        defect = np.abs(self.step.conj().T @ self.step - np.eye(len(self.step))).max()
        if not defect <= NORM_TOL:  # a NaN defect fails too
            raise NormDriftError(f"propagator is not unitary (U+U - I up to {defect:.3e})")
        self.encoded, self.num_qubits = encoded.amplitudes, encoded.num_qubits
        self.cycles, self.aux_count = schedule.cycles, schedule.aux_count
        self.reset = schedule.abort_policy == RESET_AND_CONTINUE
        self.masks, self.half = _cycle_masks(self.num_qubits), self.encoded.size // 2
        self.first = self.x, self.gathered, p_one = self._noisy(self.encoded, 0)
        self.p_one, self.length, self.end = np.array([p_one]), 1, None

    def trial(self, rng: np.random.Generator) -> tuple[list, _End]:
        """One trial, from the encoded register, on uniforms drawn from
        ``rng``, a fresh generator of that trial, at most DRAW_BLOCK at a
        time: the ``(outcome, Born probability, amplitudes after)`` of every
        cycle it completes, and its end. A uniform below the cycle's Born
        probability of 1 measures 1; a branch below the ZeroProbabilityError
        threshold detects, and ends the trial with no step."""
        steps, detected, depth, n = [], False, 0, self.num_qubits
        while depth < self.cycles:
            for u in rng.random(min(self.cycles - depth, DRAW_BLOCK)).tolist():
                x, gathered, p_one = self._noisy(amps, depth) if depth else self.first
                if u < p_one:
                    if p_one < _MIN_BRANCH_PROB:  # the failure branch holds none
                        return steps, self._end(x, True)
                    aux_q, detected = 1 + depth % self.aux_count, True
                    amps = np.zeros(x.size, dtype=complex)
                    amps[_outcome_indices(n, aux_q, 1)] = gathered[:self.half] / math.sqrt(p_one)
                    steps.append((1, min(p_one, 1.0), amps))
                    if not self.reset:
                        return steps, self._end(amps, True)
                    # a reset re-zeros the measured auxiliary (Pauli-X) and re-entangles
                    amps = amps[_cnot_permutation(n, 0, aux_q) ^ _bit_mask(n, aux_q)]
                else:
                    prob, amps = self._no_error(x, gathered, depth)
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
        it, the first that still runs steps the path a cycle a draw until its
        first 1, and the rest are compared again. The row's last block takes
        the step that gives the path its end, which the survivors stand on."""
        known, stop = depth, depth + draws.shape[1]
        while True:
            seen, known = known, min(self.length, stop)
            running &= ~(draws[:, seen - depth:known - depth] < self.p_one[seen:known]).any(axis=1)
            if known == stop or self.end is not None or not running.any():
                break
            for u in draws[running.argmax(), known - depth:].tolist():
                if not self._grow() or u < self.p_one[self.length - 1]:
                    break
        if self.end is None and stop == self.cycles and running.any():
            self._grow()
        return running if self.end is None or not self.end.detected else np.zeros_like(running)

    def _grow(self) -> bool:
        """Step the no-error path, not yet ended, a cycle deeper; True if it still runs."""
        depth = self.length
        prob, amps = self._no_error(self.x, self.gathered, depth - 1)
        if prob < _MIN_BRANCH_PROB or depth == self.cycles:
            self.end = self._end(amps, prob < _MIN_BRANCH_PROB)
            return False
        if depth == len(self.p_one):  # the entries past length are written before read
            self.p_one = np.resize(self.p_one, min(2 * depth, self.cycles))
        self.x, self.gathered, self.p_one[depth] = self._noisy(amps, depth)
        self.length = depth + 1
        return True

    def _noisy(self, amps, depth):
        """``x``, ``amps`` after cycle depth + 1's noise slice; ``x`` gathered
        into its outcome-1 then its outcome-0 branch; the Born probability of 1."""
        x = self.step.dot(amps)
        gathered = x[self.masks[depth % self.aux_count][0]]  # order
        branch = gathered[:self.half]
        return x, gathered, float(np.vdot(branch, branch).real)

    def _no_error(self, x, gathered, depth):
        """Cycle depth + 1 measuring 0 on ``x`` and its ``gathered``: its Born
        probability and the register after it, or ``x`` where detection is certain."""
        branch = gathered[self.half:]
        prob = float(np.vdot(branch, branch).real)
        if prob < _MIN_BRANCH_PROB:
            return prob, x  # undisentangled: the CNOT is its own inverse
        amps = np.zeros(x.size, dtype=complex)
        amps[self.masks[depth % self.aux_count][1]] = branch / math.sqrt(prob)  # keep_at
        return prob, amps

    def _end(self, amps, detected) -> _End:
        """The end at the register ``amps``, made read-only."""
        amps.flags.writeable = False
        return _End(amps, detected, float(min(abs(np.vdot(amps, self.encoded)) ** 2, 1.0)))


def _row_result(data, noise, schedule, n) -> PostSelectedRow:
    """``schedule`` run for ``n`` cycles on the outcome tree's no-error path,
    as the per-cycle circuit does. Its survival is the product of the
    cycles' probabilities while that is a normal float, else the exp of
    their summed logs: 0.0 where it underflows, with ``detected`` False."""
    if n > MAX_REPLAY_CYCLES:
        raise ValueError(f"{n} cycles need a cycle-by-cycle replay of the no-error "
                         f"branch, longer than MAX_REPLAY_CYCLES = {MAX_REPLAY_CYCLES}")
    tree = _OutcomeTree(data, noise, replace(schedule, cycles=n))
    survival, log_survival = 1.0, 0.0
    for depth in range(n):
        x, gathered, _ = tree._noisy(amps, depth) if depth else tree.first
        prob, amps = tree._no_error(x, gathered, depth)
        if prob < _MIN_BRANCH_PROB:
            break
        survival *= min(prob, 1.0)
        log_survival += math.log(min(prob, 1.0))
    end = tree._end(amps, prob < _MIN_BRANCH_PROB)
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
def _cycle_masks(num_qubits: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """(order, keep_at) of the cycle on each auxiliary 1..num_qubits-1,
    read-only: x disentangled by CNOT(0, a) holds its outcome-0 branch at
    ``x[cnot][sel0]``, which is ``x[keep_at]``, the entries whose data bit
    equals auxiliary a's, and its outcome-1 branch at the others, leak_at.
    order is leak_at then keep_at, one gather of both branches."""
    masks = []
    for aux_q in range(1, num_qubits):
        cnot = _cnot_permutation(num_qubits, 0, aux_q)
        order = cnot[np.concatenate([_outcome_indices(num_qubits, aux_q, o) for o in (1, 0)])]
        masks.append((order, order[len(order) // 2:]))
        for table in masks[-1]:
            table.flags.writeable = False
    return tuple(masks)


@lru_cache(maxsize=None)
def _kept_blocks(num_qubits: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """(rows, cols, at) of the cycle on each auxiliary 1..num_qubits-1 in
    :func:`_real_blocks`, read-only: rows its kept, then its leaked entries,
    as a column; cols the kept entries of the auxiliary before it (the last
    one, before the first); at its kept entries' real, then imaginary parts
    in the float view of complex amplitudes."""
    dim, masks = 1 << num_qubits, _cycle_masks(num_qubits)
    tables = []
    for (order, keep_at), (_, before) in zip(masks, masks[-1:] + masks[:-1]):
        leak_at = order[:len(order) // 2]
        rows = np.concatenate([keep_at, keep_at + dim, leak_at, leak_at + dim])[:, None]
        cols = np.concatenate([before, before + dim])
        tables.append((rows, cols, np.concatenate([2 * keep_at, 2 * keep_at + 1])))
        for table in tables[-1]:
            table.flags.writeable = False
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
