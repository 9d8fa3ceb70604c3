"""The frozen CSVs, byte for byte: the stochastic ones and the post-selected n-sweep.

A speedup counts only if these files do not move. Each case takes a
configuration from perfbench's workloads (``build(workload, 0)[0]``, read
only, so each configuration has one copy), applies its overrides, renders
it and runs ``zenosim sweep`` on it. The post-selected n-sweep has two
frozen files: ``perfbench/frozen/postsel-large-n.csv`` holds the seed
commit's per-cycle values, which today's engine matches only within
perfbench's 1e-9 check, so ``perfbench/run.py`` checks it; and
``tests/frozen/postsel-large-n.csv`` holds the stacked pass's own bytes,
which this file checks, so no change to the squaring ladder or to how a
row is finished may move a printed digit. One more test runs
``python -m zenosim sweep`` in its own process, from a temporary working
directory, on the post-selected configuration, and reruns it over a longer
file; two more run it on a stochastic configuration of three trials of at
most 32 cycles, which must write ``tests/frozen/few-trials.csv`` and, on
NumPy 2, never import ``numpy.random``.

The bytes hold only while NumPy's SeedSequence, PCG64, integer promotion
(NEP 50), BLAS gemv and batched matmul, and Python's float sums, give the
bits they give today; so CI runs this on the oldest NumPy pyproject.toml
allows and the latest, on a Python on each side of 3.12, and under forced
OpenBLAS kernels.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zenosim
from zenosim.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload, overrides, frozen", [
    # acceptance criterion 7's configuration, cut to 2 000 trials
    pytest.param("stochastic-abort", {}, "perfbench/frozen/stochastic-abort.csv",
                 id="stochastic-abort"),
    # dual-alternating reset-and-continue
    pytest.param("stochastic-reset", {}, "perfbench/frozen/stochastic-reset.csv",
                 id="stochastic-reset"),
    # a stochastic row reads only each trial's detection and the one
    # no-error leaf, so the reset-and-continue configuration run under
    # abort-on-detect writes the same bytes: the policy does not move a row
    pytest.param("stochastic-reset", {"abort_policy": "abort-on-detect"},
                 "perfbench/frozen/stochastic-reset.csv", id="reset-as-abort"),
    # acceptance criterion 7's row at its full 20 000 trials: the array
    # route across five SEED_BATCH batches, 19 900 survivors. So no change
    # to how a row counts its survivors may move a byte; 12 digits cannot
    # show the fidelity sum's last bits, which
    # test_a_row_sums_its_survivors_fidelities checks
    pytest.param("stochastic-abort", {"trials": 20000}, "tests/frozen/criterion-7.csv",
                 id="criterion-7"),
    # the seed batches' boundaries: n = 8 and n = 32 take the array route in
    # both of their SEED_BATCH batches, the second of 104 trials, and
    # n = 300 the generator route across DRAW_BLOCK and SEED_BATCH. So no
    # change to how a row's trials are split into batches, routed or
    # compared may move a byte
    pytest.param("stochastic-reset",
                 {"total_time": 16.0, "n_values": (8, 32, 300), "trials": 4200},
                 "tests/frozen/seed-batches.csv", id="seed-batches"),
    # the post-selected n-sweep, n = 2**4 ... 2**16 in one stacked pass: its
    # survivals to 12 digits, written by the engine itself
    pytest.param("postsel-large-n", {}, "tests/frozen/postsel-large-n.csv",
                 id="postsel-large-n"),
])
def test_a_frozen_configuration_writes_its_csv_byte_for_byte(
        tmp_path, capsys, workload, overrides, frozen):
    config = dict(workloads.build(workload, 0)[0], **overrides)
    path, output = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
    path.write_text(workloads.render(config, str(output)))
    assert main(["sweep", str(path)]) == 0, capsys.readouterr().err
    assert output.read_bytes() == (ROOT / frozen).read_bytes()


def test_the_module_entry_point_writes_the_frozen_csv_from_any_cwd(tmp_path):
    # python -m zenosim in its own process, config and CSV named relative
    # to a temporary cwd; the rerun writes over a longer junk file in place
    frozen = (ROOT / "tests/frozen/postsel-large-n.csv").read_bytes()
    (tmp_path / "sweep.cfg").write_text(
        workloads.render(workloads.build("postsel-large-n", 0)[0], "sweep.csv"))
    output = tmp_path / "sweep.csv"
    paths = (str(Path(zenosim.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))

    def sweep():
        return subprocess.run([sys.executable, "-m", "zenosim", "sweep", "sweep.cfg"],
                              cwd=tmp_path, env=env, capture_output=True, text=True)

    run = sweep()
    assert run.returncode == 0, run.stderr
    assert output.read_bytes() == frozen
    output.write_bytes(b"x" * 100_000)
    inode = output.stat().st_ino
    run = sweep()
    assert run.returncode == 0, run.stderr
    assert output.read_bytes() == frozen
    assert output.stat().st_ino == inode


@pytest.fixture(scope="module")
def few_trial_sweep(tmp_path_factory):
    """``python -m zenosim sweep`` in its own process, under ``-X importtime``,
    on stochastic-reset's physics cut to 3 trials at n = 1, 2, 8 and 32: a
    row that survives, one that detects in every trial and one of each.
    Returns the finished process and the CSV it wrote."""
    cwd = tmp_path_factory.mktemp("few-trials")
    config = dict(workloads.build("stochastic-reset", 0)[0], n_values=(1, 2, 8, 32), trials=3)
    (cwd / "sweep.cfg").write_text(workloads.render(config, "sweep.csv"))
    paths = (str(Path(zenosim.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "zenosim", "sweep", "sweep.cfg"],
        cwd=cwd, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run, (cwd / "sweep.csv").read_bytes()


def test_a_few_trial_sweep_writes_its_csv_in_a_fresh_process(few_trial_sweep):
    _, written = few_trial_sweep
    assert written == (ROOT / "tests/frozen/few-trials.csv").read_bytes()


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="NumPy 1 imports numpy.random with numpy")
def test_a_few_trial_sweep_never_imports_numpy_random(few_trial_sweep):
    # every row is at most ARRAY_MAX_CYCLES cycles long, so every batch
    # draws on arrays and no generator is built; -X importtime names each
    # module the process imports, in the last field of its stderr lines
    run, _ = few_trial_sweep
    imported = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert "numpy" in imported and "zenosim.protocol" in imported
    assert "numpy.random" not in imported
