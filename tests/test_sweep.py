"""Sweep execution, seed derivation, and CSV determinism."""
import numpy as np
import pytest

from zenosim import (
    CSV_COLUMNS,
    SweepResult,
    SweepRow,
    derive_trial_seed,
    mix64,
    parse_config,
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

    def test_one_eigendecomposition_per_config(self, monkeypatch):
        import zenosim.noise as noise_module

        calls = []
        real = noise_module.np.linalg.eigh
        monkeypatch.setattr(
            noise_module.np.linalg, "eigh", lambda m: calls.append(m) or real(m)
        )
        noise_module.build_hamiltonian.cache_clear()
        config = make_config(
            **{"lambda": "0.3, 0.2, 0.1", "mu": "0.1, 0.0, 0.2",
               "aux_strategy": "dual-alternating", "n_values": "1, 2, 3, 4, 5, 6, 7, 8"}
        )
        for _ in range(2):
            rows = run_sweep(config).rows
            assert len(rows) == 8 and not any(row.failed for row in rows)
        assert len(calls) == 1

    def test_protocol_failure_marks_row_but_keeps_the_rest(self, monkeypatch):
        import zenosim.sweep as sweep_module

        real_run = sweep_module.run_post_selected

        def flaky(data, noise, schedules):
            results = real_run(data, noise, schedules)
            return [RuntimeError("synthetic protocol failure") if schedule.cycles == 16 else result
                    for schedule, result in zip(schedules, results)]

        monkeypatch.setattr(sweep_module, "run_post_selected", flaky)
        result = run_sweep(make_config())
        assert [row.n for row in result.rows] == [8, 16, 32]
        assert [row.failed for row in result.rows] == [False, True, False]
        assert result.rows[1].error == "RuntimeError: synthetic protocol failure"
        assert np.isnan(result.rows[1].survival_probability)
        # the reference column is independent of the protocol and survives
        assert result.rows[1].analytic_reference == single_qubit_survival(0.1, 1.0, 16)


class TestWriteCsv:
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
