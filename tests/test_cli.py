"""Command-line surface: subcommands, exit codes, output artifacts."""
import os
import time

import pytest

from zenosim.cli import build_parser, main

GOOD_CONFIG = """
alpha0_re = 0.6
alpha1_re = 0.8
lambda = 0.1, 0.1
total_time = 1.0
n_values = 4, 8
seed = 7
output = {output}
"""


def config_error(capsys) -> str:
    """The one ``config error:`` line a configuration fault leaves on
    stderr, which must hold nothing else; stdout must stay empty."""
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("config error: ")
    return line


def write_config(tmp_path, text=GOOD_CONFIG, name="sweep.cfg"):
    output = tmp_path / "result.csv"
    path = tmp_path / name
    path.write_text(text.format(output=output))
    return path, output


class TestSweepCommand:
    def test_success(self, tmp_path, capsys):
        config_path, output = write_config(tmp_path)
        assert main(["sweep", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "n=8" in out
        lines = output.read_text().splitlines()
        assert lines[0].startswith("n,survival_probability")
        assert len(lines) == 3

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("lambda = 0.1, 0.1\ntotal_time = 1.0\nn_values = 8, 4\n")
        assert main(["sweep", str(path)]) == 1
        assert "strictly increasing" in config_error(capsys)
        # non-finite values are configuration errors, named by their key
        for key, lines in (
            ("lambda", "lambda = nan, 0.1\n"),
            ("alpha0_re", "lambda = 0.1, 0.1\nalpha0_re = nan\n"),
        ):
            path.write_text("total_time = 1.0\nn_values = 8\n" + lines)
            assert main(["sweep", str(path)]) == 1
            assert f"key '{key}'" in config_error(capsys)

    def test_unbounded_stochastic_sweep_exits_at_once(self, tmp_path, capsys, monkeypatch):
        import zenosim.cli as cli_module

        def never(config):
            raise AssertionError("the sweep must not start")

        # were the bound missing, the sweep would run for hours
        monkeypatch.setattr(cli_module, "run_sweep", never)
        path = tmp_path / "huge.cfg"
        path.write_text(
            "lambda = 0.1, 0.1\ntotal_time = 1.0\nn_values = 1000000000\nmode = stochastic\n"
            f"output = {tmp_path / 'huge.csv'}\n"
        )
        start = time.perf_counter()
        assert main(["sweep", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        err = config_error(capsys)
        assert "'n_values'" in err and "'trials'" in err
        assert not (tmp_path / "huge.csv").exists()

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("lambda = 0.1, 0.1\ntotal_time = 1.0\nn_values = 8\nfoo = 1\n")
        assert main(["sweep", str(path)]) == 1
        assert "unknown key 'foo'" in config_error(capsys)

    @pytest.mark.parametrize("key, value, reason", [
        ("total_time", "-1.0", "must be finite and >= 0, got -1.0"),
        ("n_values", "0", "must be a positive integer, got 0"),
        ("aux_strategy", "triple", "must be one of ('single', 'dual-alternating'), got 'triple'"),
        ("mode", "sometimes", "must be one of ('post-selected', 'stochastic'), got 'sometimes'"),
        ("abort_policy", "never",
         "must be one of ('abort-on-detect', 'reset-and-continue'), got 'never'"),
        ("seed", "-1", "must be an integer in [0, 2**64), and stochastic mode requires one, "
                       "got -1"),
    ])
    def test_schedule_fault_names_its_key_alone(self, tmp_path, capsys, key, value, reason):
        # the schedule checks six keys at once; its message names the one at fault
        lines = {"lambda": "0.1, 0.1", "total_time": "1.0", "n_values": "8", key: value}
        path = tmp_path / "bad.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert main(["sweep", str(path)]) == 1
        assert config_error(capsys) == f"config error: key '{key}': {reason}"

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["sweep", str(tmp_path / "nope.cfg")]) == 1
        assert config_error(capsys).startswith(f"config error: cannot read '{tmp_path / 'nope.cfg'}': ")

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        config_path = tmp_path / "sweep.cfg"
        config_path.write_text(
            "lambda = 0.1, 0.1\ntotal_time = 1.0\nn_values = 4\n"
            f"output = {tmp_path}/no/such/dir/out.csv\n"
        )
        assert main(["sweep", str(config_path)]) == 2

    def test_directory_output_exit_code(self, tmp_path, capsys):
        config_path = tmp_path / "sweep.cfg"
        config_path.write_text(
            f"lambda = 0.1, 0.1\ntotal_time = 1.0\nn_values = 4\noutput = {tmp_path}\n"
        )
        assert main(["sweep", str(config_path)]) == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_null_device_output(self, tmp_path, capsys):
        # a non-regular target is written but never cut to length
        config_path = tmp_path / "sweep.cfg"
        config_path.write_text(GOOD_CONFIG.format(output=os.devnull))
        assert main(["sweep", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "n=4: survival=" in out and "n=8: survival=" in out

    def test_failed_row_reason_on_stderr(self, tmp_path, capsys, monkeypatch):
        import zenosim.sweep as sweep_module

        def failing(data, noise, schedule, cycles):
            raise RuntimeError("synthetic protocol failure")

        monkeypatch.setattr(sweep_module, "run_post_selected", failing)
        config_path, _ = write_config(tmp_path)
        assert main(["sweep", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert "n=4: FAILED" in captured.out
        assert "synthetic" not in captured.out
        assert "n=4: RuntimeError: synthetic protocol failure" in captured.err

    @pytest.mark.parametrize("mode", ["post-selected", "stochastic"])
    def test_overflowing_reference_fails_its_rows_not_the_sweep(self, tmp_path, capsys, mode):
        # used to print "error: math domain error" and write no CSV
        text = ("alpha0_re = 0.6\nalpha1_re = 0.8\nlambda = 1e160, 0.0\ntotal_time = 1e160\n"
                f"n_values = 1, 2\nmode = {mode}\ntrials = 20\nseed = 3\noutput = {{output}}\n")
        config_path, output = write_config(tmp_path, text)
        assert main(["sweep", str(config_path)]) == 2
        captured = capsys.readouterr()
        for n in (1, 2):
            assert f"n={n}: FAILED" in captured.out
            assert f"n={n}: ValueError: lam*total_time/n must be finite, got inf" in captured.err
        assert output.read_text().splitlines()[1:] == ["1,nan,nan,nan,nan,0", "2,nan,nan,nan,nan,0"]

    def test_keep_timings_flag(self, tmp_path):
        config_path, output = write_config(tmp_path)
        assert main(["sweep", str(config_path), "--keep-timings"]) == 0
        last_field = output.read_text().splitlines()[1].split(",")[-1]
        assert float(last_field) > 0.0

    def test_calls_carry_no_state(self, tmp_path):
        config_path, output = write_config(tmp_path)
        assert main(["sweep", str(config_path), "--keep-timings"]) == 0
        assert main(["sweep", str(config_path)]) == 0
        rows = output.read_text().splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith(",0") for row in rows)

    def test_changing_a_built_parser_does_not_reach_main(self, tmp_path, capsys):
        parser = build_parser()
        assert parser is not build_parser()
        parser.add_argument("--extra", required=True)
        parser.set_defaults(func=lambda args: 99)
        config_path, _ = write_config(tmp_path)
        assert main(["sweep", str(config_path)]) == 0
        assert "wrote" in capsys.readouterr().out

    def test_huge_amplitudes_are_normalised(self, tmp_path):
        csv = []
        for value in ("1", "1e308", "1e-7"):
            text = GOOD_CONFIG.replace("0.6", value).replace("0.8", value)
            config_path, output = write_config(tmp_path, text, name=f"{value}.cfg")
            assert main(["sweep", str(config_path)]) == 0
            csv.append(output.read_bytes())
        assert csv[0] == csv[1] == csv[2]


class TestDemos:
    def test_zeno_demo(self, capsys):
        assert main(["zeno-demo"]) == 0
        out = capsys.readouterr().out
        assert "0.6|00> + 0.8|11>" in out
        assert "probability 1.000000000000" in out

    def test_repetition_demo(self, capsys):
        assert main(["repetition-demo", "--lambda", "0.1", "--t", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "|001>" in out and "|110>" in out
        assert "sum of squared magnitudes = 1.0000000" in out

    def test_expansion_check(self, capsys):
        assert main(["expansion-check"]) == 0
        out = capsys.readouterr().out
        assert "defect/t^2" in out

    def test_limit(self, capsys):
        assert main(["limit", "--c", "1", "--n", "10,100,1000"]) == 0
        out = capsys.readouterr().out
        values = [float(line.split()[1]) for line in out.splitlines()[1:]]
        assert values == sorted(values)
        assert values[-1] > 0.99

    def test_limit_out_of_regime(self, capsys):
        assert main(["limit", "--c", "4", "--n", "1"]) == 0
        assert "clamped" in capsys.readouterr().out

    def test_limit_bad_list(self, capsys):
        assert main(["limit", "--c", "1", "--n", "ten"]) == 1
        assert config_error(capsys) == "config error: --n expects comma-separated integers, got 'ten'"

    def test_input_faults_are_config_errors(self, capsys):
        for argv, message in (
            (["limit", "--c", "nan", "--n", "8"], "c must be >= 0"),
            (["limit", "--c", "-1", "--n", "8"], "c must be >= 0"),
            (["limit", "--c", "inf", "--n", "4"], "c must be >= 0"),
            (["limit", "--c", "1", "--n", ","], "--n expects comma-separated integers, got ','"),
            (["repetition-demo", "--lambda", "nan", "--t", "0.5"], "--lambda:"),
            (["repetition-demo", "--lambda", "0.1", "--t", "nan"], "--t:"),
            (["repetition-demo", "--lambda", "0.1", "--t", "-1"], "--t:"),
            (["expansion-check", "--seed", "-1"], "--seed:"),
        ):
            assert main(argv) == 1, argv
            assert config_error(capsys).startswith(f"config error: {message}")
