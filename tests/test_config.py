"""Configuration document parsing and validation."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenosim import ConfigError, parse_config
from zenosim.config import MAX_STOCHASTIC_CYCLES

MINIMAL = """
lambda = 0.1, 0.1
total_time = 1.0
n_values = 8, 16
"""

FULL = """
# full sweep configuration
alpha0_re = 0.6
alpha0_im = 0.0
alpha1_re = 0.8
alpha1_im = 0.0
lambda = 0.1, 0.2
mu = 0.05, 0.0
total_time = 2.0
n_values = [4, 8, 16]
aux_strategy = single
mode = stochastic
abort_policy = reset-and-continue
trials = 50
seed = 12345
output = out.csv
"""


class TestDefaults:
    def test_minimal_document(self):
        config = parse_config(MINIMAL)
        assert config.schedule.aux_strategy == "single"
        assert config.schedule.measurement_mode == "post-selected"
        assert config.schedule.abort_policy == "abort-on-detect"
        assert tuple(config.data.amplitudes) == (1.0, 0.0)
        assert config.noise.mu == (0.0, 0.0)
        assert config.trials == 1 and config.schedule.seed == 0
        assert config.output == "sweep.csv"

    def test_full_document(self):
        config = parse_config(FULL)
        assert tuple(config.data.amplitudes) == (0.6, 0.8)
        assert config.noise.lam == (0.1, 0.2) and config.noise.mu == (0.05, 0.0)
        assert config.n_values == (4, 8, 16)
        assert config.schedule.measurement_mode == "stochastic"
        assert config.trials == 50 and config.schedule.seed == 12345
        assert config.output == "out.csv"

    def test_helpers(self):
        config = parse_config(FULL)
        assert config.noise.num_qubits == 2
        assert config.noise.lam == (0.1, 0.2)
        assert abs(config.data.amplitudes[1] - 0.8) < 1e-12


class TestRejections:
    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'lamda'"):
            parse_config(MINIMAL + "lamda = 0.3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'total_time'"):
            parse_config(MINIMAL + "total_time = 2.0\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'n_values'"):
            parse_config("lambda = 0.1, 0.1\ntotal_time = 1.0\n")

    def test_decreasing_n_values(self):
        bad = MINIMAL.replace("n_values = 8, 16", "n_values = 8, 4")
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_config(bad)

    def test_repeated_n_values(self):
        bad = MINIMAL.replace("n_values = 8, 16", "n_values = 8, 8")
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_config(bad)

    def test_zero_amplitudes(self):
        with pytest.raises(ConfigError, match="alpha0_re"):
            parse_config(MINIMAL + "alpha0_re = 0\nalpha1_re = 0\n")

    def test_lambda_length_vs_strategy(self):
        with pytest.raises(ConfigError, match="'lambda' must list 3"):
            parse_config(MINIMAL + "aux_strategy = dual-alternating\n")

    def test_mu_length(self):
        with pytest.raises(ConfigError, match="'mu' must match"):
            parse_config(MINIMAL + "mu = 0.1\n")

    def test_bad_float(self):
        bad = MINIMAL.replace("total_time = 1.0", "total_time = soon")
        with pytest.raises(ConfigError, match="total_time"):
            parse_config(bad)

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="'mode'"):
            parse_config(MINIMAL + "mode = sometimes\n")

    def test_negative_total_time(self):
        bad = MINIMAL.replace("total_time = 1.0", "total_time = -1.0")
        with pytest.raises(ConfigError, match="total_time"):
            parse_config(bad)

    def test_zero_trials(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config(MINIMAL + "trials = 0\n")

    def test_stochastic_cycles_bounded(self):
        # sum(n_values) * trials = (8 + 16) * 416667 is one trial over the bound
        assert 24 * 416_666 <= MAX_STOCHASTIC_CYCLES < 24 * 416_667
        parse_config(MINIMAL + "mode = stochastic\ntrials = 416666\n")
        with pytest.raises(ConfigError, match="'n_values' and 'trials'"):
            parse_config(MINIMAL + "mode = stochastic\ntrials = 416667\n")
        # a product of more than 4300 digits, which no int converts to str
        with pytest.raises(ConfigError, match="'n_values' and 'trials'"):
            parse_config(MINIMAL + f"mode = stochastic\ntrials = {'9' * 4300}\n")

    def test_post_selected_cycles_unbounded(self):
        big = MINIMAL.replace("n_values = 8, 16", "n_values = 1000000000")
        assert parse_config(big).n_values == (1_000_000_000,)

    def test_seed_range(self):
        # ZenoSchedule checks the seed in either mode, and the error names the key
        for mode in ("post-selected", "stochastic"):
            for seed in (-1, 2**64):
                with pytest.raises(ConfigError, match=r"'seed'.*\[0, 2\*\*64\)"):
                    parse_config(MINIMAL + f"mode = {mode}\nseed = {seed}\n")
            config = parse_config(MINIMAL + f"mode = {mode}\nseed = {2**64 - 1}\n")
            assert config.schedule.seed == 2**64 - 1

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config(MINIMAL + "just words\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config(MINIMAL + "mu =\n")

    @pytest.mark.parametrize("key", ["lambda", "mu", "n_values"])
    def test_empty_list(self, key):
        lines = {"lambda": "0.1, 0.1", "total_time": "1.0", "n_values": "8", key: ","}
        with pytest.raises(ConfigError, match=f"key '{key}' .*: the list must not be empty"):
            parse_config("".join(f"{k} = {v}\n" for k, v in lines.items()))

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config("# comment\n\n" + MINIMAL + "seed = 3  # inline\n")
        assert config.schedule.seed == 3


# value text for the property test: mostly well-formed values, so documents
# get past the early checks, else extreme or non-finite floats, integers too
# long for int(), or junk
_EDGE_TEXT = st.sampled_from(
    ["nan", "-inf", "1e999", "-1e308", "5e-324", "-1", "0", "18446744073709551616"]
) | st.integers(4000, 5000).map(lambda digits: "9" * digits) | st.text(max_size=12)


def _mostly(valid):
    # hypothesis draws 0 far more often than 1/16, so 0 must not pick the edge
    return st.integers(0, 15).flatmap(lambda k: _EDGE_TEXT if k == 15 else valid)


_FLOAT_TEXT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_FLOATS_TEXT = st.lists(_FLOAT_TEXT, min_size=2, max_size=3).map(", ".join)
_VALUE_TEXT = {
    "lambda": _mostly(_FLOATS_TEXT),
    "mu": _mostly(_FLOATS_TEXT),
    "n_values": _mostly(
        st.lists(st.integers(1, 10**6), min_size=1, max_size=4, unique=True)
        .map(lambda ns: ", ".join(map(str, sorted(ns))))
    ),
    "total_time": _mostly(st.floats(min_value=0.0, allow_infinity=False).map(repr)),
    "aux_strategy": _mostly(st.sampled_from(["single", "dual-alternating"])),
    "mode": _mostly(st.sampled_from(["post-selected", "stochastic"])),
    "abort_policy": _mostly(st.sampled_from(["abort-on-detect", "reset-and-continue"])),
    "trials": _mostly(st.integers(1, 100).map(str)),
    "seed": _mostly(st.integers(0, 2**64 - 1).map(str)),
    "output": _mostly(st.text("ab/._-", min_size=1, max_size=12)),
    **{key: _mostly(_FLOAT_TEXT) for key in ("alpha0_re", "alpha0_im", "alpha1_re", "alpha1_im")},
}
_REQUIRED = ("lambda", "total_time", "n_values")
_DOCUMENTS = st.builds(
    lambda values, last_line: "\n".join([f"{k} = {v}" for k, v in values.items()] + [last_line]),
    st.fixed_dictionaries(
        {key: _VALUE_TEXT[key] for key in _REQUIRED},
        optional={key: text for key, text in _VALUE_TEXT.items() if key not in _REQUIRED},
    ),
    _mostly(st.just("")),
)


class TestArbitraryDocuments:
    @settings(max_examples=200, deadline=None)
    @given(_DOCUMENTS)
    @example("lambda = 0.1, 0.1\ntotal_time = 1\nn_values = 10001\nmode = stochastic\n"
             f"trials = {'9' * 4300}\n")
    def test_only_config_errors(self, text):
        try:
            parse_config(text)
        except ConfigError:
            pass
