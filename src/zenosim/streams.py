"""The uniforms each stochastic trial draws, NumPy's streams bit for bit.

Trial t of a row on master seed m and n cycles draws the uniforms of
``default_rng(derive_trial_seed(m, n, t)).random``. A batch of trials
[start, stop) is seeded in one pass (:func:`trial_words`): its seeds are
derived on a uint64 array of indices and hashed as ``SeedSequence`` hashes
them, into the 4 words ``PCG64`` is seeded with. From those words a batch
draws its uniforms on uint64 arrays (:func:`uniforms`), with no generator
built and numpy.random not imported, or hands each trial a generator in the
state of ``default_rng(seed)`` (:func:`generators`), the generator a trial
run on its own seed draws from (:func:`generator`). Importing numpy.random
adds about 5 MiB to the peak RSS on NumPy 2, which loads it lazily, so only
:func:`generators` and :func:`generator` do; NumPy 1 imports it with numpy.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

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


def trial_words(master_seed: int, n: int, start: int, stop: int) -> np.ndarray:
    """Row t - start is ``SeedSequence(derive_trial_seed(master_seed, n,
    t)).generate_state(4, np.uint64)``, for t in [start, stop)."""
    return _seed_words(derive_trial_seed(master_seed, n, np.arange(start, stop, dtype=np.uint64)))


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
    high, increment low of ``PCG64`` seeded with each row of seed words, as
    numpy seeds it: the state is words 0 and 1, the increment source words
    2 and 3, ``inc = (initseq << 1) | 1`` and
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


def uniforms(words: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` uniforms of ``PCG64`` seeded with each row of seed
    ``words``, as a (rows, k) float array. A draw steps the state, outputs
    the 64-bit ``rotr(hi ^ lo, hi >> 58)`` (PCG XSL-RR) and returns its top
    53 bits times 2**-53, as ``Generator.random`` does, formed in place on
    the stepped words, so the draw holds three (k, rows) arrays at most."""
    hi, lo, inc_hi, inc_lo = _pcg64_state(words)
    his = np.empty((k, len(words)), dtype=np.uint64)
    los = np.empty_like(his)
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


def generator(seed: int):
    """``default_rng(seed)``: the stream of the trial whose own seed is
    ``seed``, which a batch's uniforms and generators reproduce."""
    return np.random.default_rng(seed)


def generators(words: np.ndarray) -> list:
    """A ``np.random.Generator`` for each row of seed ``words``, in the state
    ``default_rng`` gives it on the seed the row was hashed from."""
    seed_words = _seed_words_class()
    return [np.random.Generator(np.random.PCG64(seed_words(row))) for row in words]


@lru_cache(maxsize=None)
def _seed_words_class() -> type:
    """The seed sequence that hands ``np.random.PCG64`` a row of seed
    words, built on first use: it subclasses a numpy.random class."""
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
