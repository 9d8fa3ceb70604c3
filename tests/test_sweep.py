"""Sweep execution, seed derivation, and CSV determinism."""
import csv
import dataclasses
import io
import math
import os
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenosim.protocol as protocol_module
from zenosim import (
    CSV_COLUMNS,
    ProtocolResult,
    StateVector,
    SweepResult,
    SweepRow,
    ZenoSchedule,
    derive_trial_seed,
    mix64,
    parse_config,
    run_protocol,
    run_sweep,
    single_qubit_survival,
    write_csv,
)


def make_config(**overrides):
    base = {
        "alpha0_re": 0.6,
        "alpha1_re": 0.8,
        "lambda": "0.1, 0.1",
        "total_time": 1.0,
        "n_values": "8, 16, 32",
        "seed": 42,
    }
    base.update(overrides)
    return parse_config("\n".join(f"{k} = {v}" for k, v in base.items()))


class TestSeedDerivation:
    def test_mix64_vectors(self):
        # frozen splitmix64 outputs; mix64(0) is the canonical first value
        assert mix64(0) == 16294208416658607535
        assert mix64(1) == 10451216379200822465
        assert mix64(42) == 13679457532755275413
        assert mix64(2**64 - 1) == 16490336266968443936

    def test_trial_seed_vectors(self):
        assert derive_trial_seed(0, 1, 0) == 4964578127960768432
        assert derive_trial_seed(0, 1, 1) == 5067554077270220563
        assert derive_trial_seed(42, 8, 0) == 12511398772831011655
        assert derive_trial_seed(42, 8, 1) == 13895902861327221692
        assert derive_trial_seed(123456789, 64, 19999) == 210409020115696613

    @pytest.mark.parametrize("master", [0, 42, 2**64 - 1])
    def test_array_trials_equal_scalar_calls(self, master):
        trials = np.array([*range(300), 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
        seeds = derive_trial_seed(master, 8, trials)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_trial_seed(master, 8, int(t)) for t in trials]

    def test_trial_seeds_distinct(self):
        seeds = {
            derive_trial_seed(7, n, trial) for n in (1, 2, 4) for trial in range(200)
        }
        assert len(seeds) == 600


class TestRunSweep:
    def test_zero_noise_everything_is_one(self):
        config = make_config(**{"lambda": "0.0, 0.0"})
        result = run_sweep(config)
        assert [row.n for row in result.rows] == [8, 16, 32]
        for row in result.rows:
            assert row.survival_probability == pytest.approx(1.0, abs=1e-9)
            assert row.mean_post_selected_fidelity == pytest.approx(1.0, abs=1e-9)
            assert row.detection_rate == 0.0
            assert not row.failed

    def test_data_only_noise_matches_reference_column(self):
        # flip drift on the data qubit alone: the protocol reproduces the
        # single-qubit closed form exactly
        config = make_config(**{"lambda": "0.1, 0.0", "n_values": "8, 16, 32, 64"})
        result = run_sweep(config)
        for row in result.rows:
            assert row.analytic_reference == single_qubit_survival(0.1, 1.0, row.n)
            assert abs(row.survival_probability - row.analytic_reference) < 1e-9
            assert row.mean_post_selected_fidelity == pytest.approx(1.0, abs=1e-9)
        survivals = [row.survival_probability for row in result.rows]
        assert all(b > a for a, b in zip(survivals, survivals[1:]))

    def test_survival_column_increases(self):
        result = run_sweep(make_config())
        survivals = [row.survival_probability for row in result.rows]
        assert survivals[0] < survivals[1] < survivals[2]

    def test_stochastic_consistent_with_post_selected(self):
        post = run_sweep(make_config(n_values="8")).rows[0].survival_probability
        config = make_config(n_values="8", mode="stochastic", trials=3000)
        row = run_sweep(config).rows[0]
        sigma = np.sqrt(post * (1 - post) / 3000)
        assert abs(row.survival_probability - post) < 4 * sigma
        assert 0.0 <= row.detection_rate <= 1.0
        assert row.detection_rate == pytest.approx(1 - row.survival_probability, abs=1e-12)

    def test_stochastic_reproducible(self):
        config = make_config(n_values="4, 8", mode="stochastic", trials=200)
        first = run_sweep(config)
        second = run_sweep(config)
        for a, b in zip(first.rows, second.rows):
            assert a.survival_probability == b.survival_probability
            assert a.mean_post_selected_fidelity == b.mean_post_selected_fidelity
            assert a.detection_rate == b.detection_rate

    def test_default_single_trial_rows_are_run_protocol(self):
        # trials left at its default of 1: each row is trial 0 of its n, and
        # at this noise 8 of the 24 rows detect, so a wrong seed shows
        outcomes = []
        for master in range(8):
            config = make_config(n_values="1, 2, 8", mode="stochastic", seed=master,
                                 **{"lambda": "1.0, 0.2"})
            assert config.trials == 1
            for row, n in zip(run_sweep(config).rows, (1, 2, 8), strict=True):
                schedule = dataclasses.replace(config.schedule, cycles=n,
                                               seed=derive_trial_seed(master, n, 0))
                result = run_protocol(config.data, config.noise, schedule)
                outcomes.append(result.detected)
                want = (result.survival_probability,
                        math.nan if result.detected else result.final_fidelity,
                        float(result.detected))
                got = (row.survival_probability, row.mean_post_selected_fidelity,
                       row.detection_rate)
                assert np.array_equal(got, want, equal_nan=True)
        assert sum(outcomes) == 8

    def test_one_slice_build_per_sweep_and_no_eigendecomposition(self, monkeypatch):
        import zenosim.noise as noise_module
        import zenosim.protocol as protocol_module

        eighs, builds = [], []
        real_eigh, real_build = noise_module.np.linalg.eigh, protocol_module.propagator
        monkeypatch.setattr(
            noise_module.np.linalg, "eigh", lambda m: eighs.append(m) or real_eigh(m)
        )
        monkeypatch.setattr(
            protocol_module, "propagator", lambda *a: builds.append(a) or real_build(*a)
        )
        # the index caches the pass reads are filled afresh, with no eigh either
        protocol_module._cycle_masks.cache_clear()
        protocol_module._kept_blocks.cache_clear()
        config = make_config(
            **{"lambda": "0.3, 0.2, 0.1", "mu": "0.1, 0.0, 0.2",
               "aux_strategy": "dual-alternating", "n_values": "1, 2, 3, 4, 5, 6, 7, 8"}
        )
        for _ in range(2):
            rows = run_sweep(config).rows
            assert len(rows) == 8 and not any(row.failed for row in rows)
        # one stacked build of the eight rows' slices a sweep, in closed form
        assert len(builds) == 2 and [len(times) for *_, times in builds] == [8, 8]
        assert eighs == []

    @pytest.mark.parametrize("mode, rows_validated", [("post-selected", []), ("stochastic", [8, 16, 32])])
    def test_schedule_is_validated_at_the_boundary(self, monkeypatch, mode, rows_validated):
        # parse_config checks one schedule for the first n; a post-selected
        # sweep runs on it, a stochastic sweep copies it once for each row
        calls = []
        real = ZenoSchedule.__post_init__
        monkeypatch.setattr(ZenoSchedule, "__post_init__", lambda s: calls.append(s.cycles) or real(s))
        config = make_config(mode=mode, trials=20)
        assert calls == [8] and config.schedule.cycles == 8
        assert not any(row.failed for row in run_sweep(config).rows)
        assert calls[1:] == rows_validated

    def test_post_selected_rows_build_no_objects(self, monkeypatch):
        # the stacked pass finishes its rows on arrays: a sweep of eight rows
        # builds the states a sweep of one row builds, and no ProtocolResult
        built, replayed = [], []
        wrap, init = StateVector._wrap.__func__, StateVector.__init__
        result_init = ProtocolResult.__init__
        monkeypatch.setattr(StateVector, "_wrap", classmethod(
            lambda cls, *a, **k: built.append("state") or wrap(cls, *a, **k)))
        monkeypatch.setattr(StateVector, "__init__",
                            lambda self, *a: built.append("state") or init(self, *a))
        monkeypatch.setattr(ProtocolResult, "__init__", lambda self, *a, **k: (
            built.append("result") or result_init(self, *a, **k)))
        real_row = protocol_module._row_result
        monkeypatch.setattr(protocol_module, "_row_result",
                            lambda *a: replayed.append(a[-1]) or real_row(*a))
        counts = []
        for n_values in ("8", "1, 2, 3, 4, 5, 6, 7, 8"):
            config = make_config(**{"lambda": "0.3, 0.2, 0.1", "aux_strategy": "dual-alternating",
                                    "n_values": n_values})
            built.clear()
            assert not any(row.failed for row in run_sweep(config).rows)
            counts.append(len(built))
        assert "result" not in built and counts[0] == counts[1]
        # lambda T = 30: n = 20 keeps less than the zero-branch threshold, and
        # only its row is replayed
        assert replayed == []
        rows = run_sweep(make_config(**{"lambda": "30.0, 0.4", "n_values": "20, 60, 3000"})).rows
        assert replayed == [20] and not any(row.failed for row in rows)

    def test_protocol_failure_marks_row_but_keeps_the_rest(self, monkeypatch):
        import zenosim.sweep as sweep_module

        real_run = sweep_module.run_post_selected

        def flaky(data, noise, schedule, cycles):
            results = real_run(data, noise, schedule, cycles)
            return [RuntimeError("synthetic protocol failure") if n == 16 else result
                    for n, result in zip(cycles, results)]

        monkeypatch.setattr(sweep_module, "run_post_selected", flaky)
        result = run_sweep(make_config())
        assert [row.n for row in result.rows] == [8, 16, 32]
        assert [row.failed for row in result.rows] == [False, True, False]
        assert result.rows[1].error == "RuntimeError: synthetic protocol failure"
        assert np.isnan(result.rows[1].survival_probability)
        # the reference column is independent of the protocol and survives
        assert result.rows[1].analytic_reference == single_qubit_survival(0.1, 1.0, 16)

    @pytest.mark.parametrize("mode", ["post-selected", "stochastic"])
    def test_overflowing_reference_fails_only_its_rows(self, mode):
        # lambda T overflows, so neither row has a reference value
        config = make_config(**{"lambda": "1e160, 0.0", "total_time": 1e160,
                                "n_values": "1, 2", "mode": mode, "trials": 20})
        rows = run_sweep(config).rows
        assert [row.failed for row in rows] == [True, True]
        for row in rows:
            assert row.error == "ValueError: lam*total_time/n must be finite, got inf"
            assert np.isnan(row.analytic_reference) and np.isnan(row.survival_probability)

    def test_survivor_fidelities_sum_as_a_loop_across_seed_batches(self):
        # 4 904 of 5 000 trials survive, more than one SEED_BATCH: the mean
        # is the loop's sum of the leaf's fidelity, once a survivor, carried
        # from batch to batch, and differs from the leaf's fidelity itself
        config = make_config(**{"n_values": "2", "mode": "stochastic", "trials": 5000,
                                "seed": 7})
        schedule = config.schedule
        survivors, leaf = protocol_module.sample_trials(config.data, config.noise, schedule,
                                                        config.trials)
        assert survivors > protocol_module.SEED_BATCH
        total = 0.0
        for _ in range(survivors):
            total += leaf.final_fidelity
        assert total / survivors != leaf.final_fidelity
        (row,) = run_sweep(config).rows
        assert row.mean_post_selected_fidelity == total / survivors
        assert row.survival_probability == survivors / config.trials

    @pytest.mark.parametrize("mode", ["post-selected", "stochastic"])
    def test_overflowing_noise_phase_fails_its_row_by_name(self, mode):
        # only the auxiliary is noisy, so the reference is 1; its phase
        # r T / n overflows at n = 1 alone
        config = make_config(**{"lambda": "0.0, 1e154", "total_time": 2.5e154,
                                "n_values": "1, 2", "mode": mode, "trials": 20})
        first, second = run_sweep(config).rows
        assert first.failed and first.analytic_reference == 1.0
        assert first.error == ("ValueError: noise phase r*t must be finite, got inf "
                               "(qubit 1, r = 1e+154, t = 2.5e+154)")
        assert not second.failed, second.error


def reference_csv(result, keep_timings):
    """The bytes a stdlib ``csv.writer`` writes for the sweep, each float
    with 12 significant digits: the CSV contract ``write_csv`` keeps."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in result.rows:
        values = (row.survival_probability, row.mean_post_selected_fidelity, row.detection_rate,
                  row.analytic_reference, row.wall_time_ms if keep_timings else 0.0)
        writer.writerow([row.n, *(format(value, ".12g") for value in values)])
    return buffer.getvalue().encode()


EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, -1e308])
CSV_FLOATS = st.floats() | EDGE_FLOATS
CSV_ROWS = st.builds(SweepRow, st.integers(1, 2**64), CSV_FLOATS, CSV_FLOATS, CSV_FLOATS,
                     CSV_FLOATS, CSV_FLOATS)


class TestWriteCsv:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(CSV_ROWS, max_size=12), keep_timings=st.booleans(),
           tail=st.integers(1, 5000))
    def test_bytes_equal_the_csv_writer(self, rows, keep_timings, tail):
        # on a fresh path, and over a longer existing file
        result = SweepResult(rows=rows)
        want = reference_csv(result, keep_timings)
        with tempfile.TemporaryDirectory() as tmp:
            fresh, reused = Path(tmp) / "fresh.csv", Path(tmp) / "reused.csv"
            reused.write_bytes(b"x" * (len(want) + tail))
            for path in (fresh, reused):
                write_csv(result, path, keep_timings=keep_timings)
                assert path.read_bytes() == want

    def test_header_only_for_empty_result(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(SweepResult(rows=[]), path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_single_row_shape(self, tmp_path):
        row = SweepRow(8, 0.9975, 0.99999, 0.0, 0.9975, 12.5)
        path = tmp_path / "one.csv"
        write_csv(SweepResult(rows=[row]), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 6
        assert lines[1].split(",")[0] == "8"
        # wall time is normalized out of the reproducible artifact
        assert lines[1].split(",")[-1] == "0"

    def test_keep_timings_writes_measured_value(self, tmp_path):
        row = SweepRow(8, 1.0, 1.0, 0.0, 1.0, 12.5)
        path = tmp_path / "timed.csv"
        write_csv(SweepResult(rows=[row]), path, keep_timings=True)
        assert path.read_text().splitlines()[1].split(",")[-1] == "12.5"

    def test_rerun_with_same_seed_is_byte_identical(self, tmp_path):
        config = make_config(n_values="4, 8", mode="stochastic", trials=100)
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(config), path_a)
        write_csv(run_sweep(config), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_twelve_significant_digits(self, tmp_path):
        row = SweepRow(8, 0.123456789012345, 1.0, 0.0, 1.0, 0.0)
        path = tmp_path / "digits.csv"
        write_csv(SweepResult(rows=[row]), path)
        assert "0.123456789012" in path.read_text()

    def test_failed_row_written_with_markers(self, tmp_path):
        row = SweepRow(8, float("nan"), float("nan"), float("nan"), 0.9987, 3.0, failed=True)
        path = tmp_path / "failed.csv"
        write_csv(SweepResult(rows=[row]), path)
        assert path.read_text().splitlines()[1] == "8,nan,nan,nan,0.9987,0"

    @pytest.mark.parametrize("old", ["junk", "longer_csv"])
    def test_overwrite_leaves_no_old_tail(self, tmp_path, old):
        rows = [SweepRow(n, 0.9, 0.99, 0.1, 0.9, 1.0) for n in (4, 8, 16)]
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        if old == "junk":
            reused.write_bytes(b"x" * 5000)
        else:
            write_csv(SweepResult(rows=rows), reused)
        before = reused.stat()
        write_csv(SweepResult(rows=rows[:1]), fresh)
        write_csv(SweepResult(rows=rows[:1]), reused)
        assert fresh.read_text() == ",".join(CSV_COLUMNS) + "\n4,0.9,0.99,0.1,0.9,0\n"
        assert fresh.stat().st_size < before.st_size
        assert reused.read_bytes() == fresh.read_bytes()
        # written over in place, as open(path, "w") does: the same file
        assert reused.stat().st_ino == before.st_ino

    @pytest.mark.parametrize("fault_row", [1, 400])
    def test_failed_overwrite_leaves_no_old_tail(self, tmp_path, monkeypatch, fault_row):
        import zenosim.sweep as sweep_module

        # formatting fails at row 1 or at row 400 of 500; either way the
        # rows formatted before it are written in one os.write, and the old
        # file is cut at their end, so rows 1 and 400 take one path
        result = SweepResult(rows=[SweepRow(n, 0.9, 0.99, 0.1, 0.9, 1.0) for n in range(500)])
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        write_csv(result, fresh)
        reused.write_bytes(b"x" * 100_000)
        calls, real_fmt = [], sweep_module._fmt

        def failing_fmt(value):
            calls.append(value)
            if len(calls) > 5 * fault_row:
                raise RuntimeError("synthetic write failure")
            return real_fmt(value)

        monkeypatch.setattr(sweep_module, "_fmt", failing_fmt)
        with pytest.raises(RuntimeError):
            write_csv(result, reused)
        written = reused.read_bytes()
        assert b"x" not in written
        assert fresh.read_bytes().startswith(written)
        assert written.count(b"\n") == 1 + fault_row

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit")
    def test_write_error_leaves_no_old_tail(self, tmp_path):
        import resource

        # a file size limit makes os.write fail with OSError (EFBIG) part way
        # through the buffer, as a full disk would
        result = SweepResult(rows=[SweepRow(n, 0.9, 0.99, 0.1, 0.9, 1.0) for n in range(500)])
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        write_csv(result, fresh)
        reused.write_bytes(b"x" * 100_000)
        limits = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (10_000, limits[1]))
        try:
            with pytest.raises(OSError):
                write_csv(result, reused)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, limits)
            signal.signal(signal.SIGXFSZ, handler)
        written = reused.read_bytes()
        assert 0 < len(written) <= 10_000
        assert fresh.read_bytes().startswith(written)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_target_is_written_not_cut(self, tmp_path):
        # a pipe can neither be cut nor asked for its position
        result = SweepResult(rows=[SweepRow(4, 0.9, 0.99, 0.1, 0.9, 1.0)])
        fresh, fifo = tmp_path / "fresh.csv", tmp_path / "pipe"
        write_csv(result, fresh)
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_csv(result, fifo)
            assert os.read(reader, 65536) == fresh.read_bytes()
        finally:
            os.close(reader)

    def test_new_file_mode_matches_open_for_writing(self, tmp_path):
        reference = tmp_path / "reference.csv"
        with open(reference, "w"):
            pass
        path = tmp_path / "new.csv"
        write_csv(SweepResult(rows=[]), path)
        assert path.stat().st_mode == reference.stat().st_mode
