"""Correctness checks on the CSVs a workload wrote, and the references they
use. Each check returns a list of failure messages; an empty list passes.

The references are built here from plain numpy, independently of zenosim:
one post-selected cycle is the parity projector ``(I + Z_data Z_aux) / 2``
(CNOT, keep aux = 0, CNOT) after the drift step ``exp(-i H T/n)``.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

FROZEN = Path(__file__).resolve().parent / "frozen"

#: post-selected values may move by this much (absolute) from the frozen
#: ones: a fused engine may change the 12th digit, while the per-cycle
#: engine's accumulated loss error at n = 65536 is about 3e-11
POSTSEL_TOL = 1e-9

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def exact_loss(lam: float, total_time: float, n: int) -> float:
    """1 - cos(lam T / n)^(2n), without cancellation: the no-error loss of a
    register whose data qubit alone is driven by a pure flip generator."""
    return -math.expm1(n * math.log1p(-math.sin(lam * total_time / n) ** 2))


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _on_qubit(op: np.ndarray, qubit: int, count: int) -> np.ndarray:
    # qubit 0 is the most significant index bit, as in zenosim.states
    out = np.eye(1)
    for q in range(count):
        out = np.kron(out, op if q == qubit else np.eye(2))
    return out


def postselected_reference(config: dict, n: int) -> tuple[float, float]:
    """(survival, fidelity) of the post-selected protocol at n cycles."""
    count = len(config["lam"])
    dim = 1 << count
    h = sum(
        lam * _on_qubit(_X, q, count) + mu * _on_qubit(_P0, q, count)
        for q, (lam, mu) in enumerate(zip(config["lam"], config["mu"]))
    )
    w, v = np.linalg.eigh(h)
    step = (v * np.exp(-1j * w * config["total_time"] / n)) @ v.conj().T
    z_data = _on_qubit(_Z, 0, count)
    keep = [(np.eye(dim) + z_data @ _on_qubit(_Z, aux, count)) / 2 for aux in range(1, count)]
    a0, a1 = config["alpha"]
    encoded = np.zeros(dim, dtype=complex)
    encoded[0], encoded[-1] = a0, a1
    encoded /= np.linalg.norm(encoded)
    cycle_a = keep[0] @ step
    if count == 2:
        final = np.linalg.matrix_power(cycle_a, n) @ encoded
    else:  # dual-alternating: aux 1 on even cycles, aux 2 on odd ones
        pair = keep[1] @ step @ cycle_a
        final = np.linalg.matrix_power(pair, n // 2) @ encoded
        if n % 2:
            final = cycle_a @ final
    survival = float(np.vdot(final, final).real)
    fidelity = float(abs(np.vdot(encoded, final)) ** 2) / survival
    return survival, fidelity


#: the CSV columns a post-selected row is compared on, in expected-tuple order
_VALUE_COLUMNS = ("survival_probability", "mean_post_selected_fidelity", "detection_rate",
                  "analytic_reference")


def _rows_match(config: dict, rows: list[dict], expected) -> list[str]:
    """Compare CSV rows with expected (n, *values in _VALUE_COLUMNS order)."""
    if [int(r["n"]) for r in rows] != list(config["n_values"]):
        return [f"{config['name']}: rows for n = {[r['n'] for r in rows]}"]
    errors = []
    for row, (n, *values) in zip(rows, expected):
        for column, want in zip(_VALUE_COLUMNS, values):
            got = float(row[column])
            if not abs(got - want) <= POSTSEL_TOL:
                errors.append(f"{config['name']} n={n}: {column} {got!r}, expected {want!r}")
        if row["wall_time_ms"] != "0":
            errors.append(f"{config['name']} n={n}: wall_time_ms {row['wall_time_ms']!r}, expected 0")
    return errors


def check_against_frozen_values(workload: str, config: dict, csv_path) -> list[str]:
    """Post-selected CSV values within POSTSEL_TOL of the frozen CSV."""
    frozen = read_csv(FROZEN / f"{workload}.csv")
    expected = [(int(r["n"]), *(float(r[c]) for c in _VALUE_COLUMNS)) for r in frozen]
    return _rows_match(config, read_csv(csv_path), expected)


def check_against_reference(config: dict, csv_path) -> list[str]:
    """Post-selected CSV values within POSTSEL_TOL of the numpy reference."""
    expected = []
    for n in config["n_values"]:
        survival, fid = postselected_reference(config, n)
        reference = math.cos(config["lam"][0] * config["total_time"] / n) ** (2 * n)
        expected.append((n, survival, fid, 0.0, reference))
    return _rows_match(config, read_csv(csv_path), expected)


def check_frozen_bytes(workload: str, csv_path) -> list[str]:
    """Stochastic outcomes are a pure function of the seeds: same bytes."""
    if Path(csv_path).read_bytes() != (FROZEN / f"{workload}.csv").read_bytes():
        return [f"{workload}: CSV differs from frozen/{workload}.csv"]
    return []


def check_binomial(config: dict, csv_path) -> list[str]:
    """Abort-on-detect survival frequency within 3 binomial sigma of the
    post-selected survival, at every n."""
    errors = []
    for row in read_csv(csv_path):
        n = int(row["n"])
        post, _ = postselected_reference(config, n)
        frequency = float(row["survival_probability"])
        sigma = math.sqrt(post * (1 - post) / config["trials"])
        if not abs(frequency - post) < 3 * sigma:
            errors.append(f"n={n}: survival frequency {frequency} vs post-selected {post:.6f} "
                          f"is {abs(frequency - post) / sigma:.2f} sigma apart")
    return errors


def failed_rows(csv_path) -> int:
    """Rows the sweep marked failed: it writes NaN in place of the values."""
    return sum(math.isnan(float(r["survival_probability"])) for r in read_csv(csv_path))


def loss_rel_err_max(config: dict, rows) -> float:
    """max over rows of |(1 - S) - L| / L, with L the exact loss; rows are
    (n, survival) pairs at full precision."""
    lam, total_time = config["lam"][0], config["total_time"]
    return max(
        abs((1.0 - survival) - exact_loss(lam, total_time, n)) / exact_loss(lam, total_time, n)
        for n, survival in rows
    )
