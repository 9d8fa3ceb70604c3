"""The trials' streams (zenosim.streams) against NumPy's own generators:
seed words, generator states and uniforms, bit for bit."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim import streams
from zenosim.protocol import DRAW_BLOCK, SEED_BATCH

#: master seeds at the edges of the 32- and 64-bit words, and any other
SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1))


class TestSeedWords:
    """Batched generator seeding reproduces numpy's SeedSequence word for
    word."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_edge_seeds(self, seed):
        (words,) = streams._seed_words(np.array([seed], dtype=np.uint64))
        assert words.dtype == np.uint64
        assert np.array_equal(words, np.random.SeedSequence(seed).generate_state(4, np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_random_seeds(self, seeds):
        words = streams._seed_words(np.array(seeds, dtype=np.uint64))
        want = [np.random.SeedSequence(seed).generate_state(4, np.uint64) for seed in seeds]
        assert np.array_equal(words, want)

    def test_generators_are_in_the_default_rng_state(self):
        seeds = [0, 2**32, 2**64 - 1]
        for seed, words in zip(seeds, streams._seed_words(np.array(seeds, dtype=np.uint64))):
            bit_generator = np.random.PCG64(streams._seed_words_class()(words))
            assert bit_generator.state == np.random.PCG64(seed).state
            rng = np.random.Generator(bit_generator)
            assert rng.random(9).tolist() == np.random.default_rng(seed).random(9).tolist()

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64)])
    def test_seed_words_give_nothing_else(self, n_words, dtype):
        (words,) = streams._seed_words(np.array([7], dtype=np.uint64))
        with pytest.raises(ValueError, match="4 uint64"):
            streams._seed_words_class()(words).generate_state(n_words, dtype)


def array_draws(seeds, k):
    """The first ``k`` uniforms :func:`streams.uniforms` draws for each of
    ``seeds``, in one call; the seed words it draws from are left as they
    were."""
    words = streams._seed_words(np.array(seeds, dtype=np.uint64))
    before = words.copy()
    drawn = streams.uniforms(words, k)
    assert np.array_equal(words, before)
    return drawn


class TestArrayDraws:
    """Uniforms drawn on uint64 arrays equal default_rng(seed).random bit for
    bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_edge_seeds(self, seed):
        # past the walk's DRAW_BLOCK, in one call
        (drawn,) = array_draws([seed], DRAW_BLOCK + 44)
        assert drawn.tolist() == np.random.default_rng(seed).random(DRAW_BLOCK + 44).tolist()

    @settings(max_examples=100, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
           k=st.integers(1, 2 * DRAW_BLOCK))
    def test_random_seeds(self, seeds, k):
        drawn = array_draws(seeds, k)
        want = [np.random.default_rng(seed).random(k) for seed in seeds]
        assert drawn.dtype == np.float64 and drawn.shape == (len(seeds), k)
        assert np.array_equal(drawn.view(np.uint64), np.array(want).view(np.uint64))

    def test_no_shift_reaches_the_word_width(self, monkeypatch):
        # an output rotated by 0 shifts left by (64 - 0) & 63 = 0: a shift by
        # 64 is undefined in C, and the draws must not rest on how NumPy
        # defines it. 200 seeds x 64 draws rotate by 0 about 200 times
        real = np.left_shift

        def checked(x, shift, **kwargs):
            assert int(np.max(shift)) < 64
            return real(x, shift, **kwargs)

        monkeypatch.setattr(np, "left_shift", checked)
        seeds = list(range(200))
        drawn = array_draws(seeds, 64)
        want = [np.random.default_rng(seed).random(64) for seed in seeds]
        assert np.array_equal(drawn.view(np.uint64), np.array(want).view(np.uint64))

    def test_state_is_pcg64s(self):
        seeds = [0, 2**32, 2**64 - 1]
        state = streams._pcg64_state(
            streams._seed_words(np.array(seeds, dtype=np.uint64)))
        for seed, (hi, lo, inc_hi, inc_lo) in zip(seeds, state.T.tolist()):
            want = np.random.PCG64(seed).state["state"]
            assert (hi << 64 | lo, inc_hi << 64 | inc_lo) == (want["state"], want["inc"])


class TestTrialStreams:
    """A batch's seed words, uniforms and generators are those of
    ``default_rng(derive_trial_seed(m, n, t))``, trial by trial."""

    @settings(max_examples=60, deadline=None)
    @given(master=SEEDS, n=SEEDS, edge=st.integers(1, 3), before=st.integers(1, 20),
           after=st.integers(1, 20))
    def test_trial_words_across_a_batch_edge(self, master, n, edge, before, after):
        start, stop = edge * SEED_BATCH - before, edge * SEED_BATCH + after
        words = streams.trial_words(master, n, start, stop)
        want = [np.random.SeedSequence(streams.derive_trial_seed(master, n, t))
                .generate_state(4, np.uint64) for t in range(start, stop)]
        assert words.dtype == np.uint64 and np.array_equal(words, want)

    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(SEEDS, min_size=1, max_size=8), k=st.integers(1, 3 * DRAW_BLOCK))
    def test_generators_draw_in_blocks_as_default_rng(self, seeds, k):
        # DRAW_BLOCK columns at a time, then the rest, into one block's rows
        rngs = streams.generators(streams._seed_words(np.array(seeds, dtype=np.uint64)))
        block, drawn = np.empty((len(seeds), min(k, DRAW_BLOCK))), []
        for depth in range(0, k, DRAW_BLOCK):
            columns = block[:, :k - depth]
            for rng, row in zip(rngs, columns, strict=True):
                rng.random(out=row)
            drawn.append(columns.copy())
        want = [np.random.default_rng(seed).random(k) for seed in seeds]
        assert np.array_equal(np.hstack(drawn).view(np.uint64), np.array(want).view(np.uint64))
