"""Command-line harness.

Subcommands: ``sweep`` runs a configured n-sweep and writes the CSV;
``zeno-demo`` walks the noiseless measurement cycle; ``repetition-demo``
prints the leakage amplitudes of a noisy repetition register;
``expansion-check`` tabulates the first-order truncation defect; ``limit``
evaluates the (1 - c/n^2)^n law.

Exit codes: 0 success, 1 configuration error, 2 runtime/protocol error.
A subcommand raises ConfigError for a bad input; ``main`` alone prints it
and maps it to 1.
"""
from __future__ import annotations

import argparse
import sys
import warnings
from functools import cache
from pathlib import Path

import numpy as np

from .analysis import OutOfRegimeWarning, zeno_limit_formula
from .config import ConfigError, parse_config
from .noise import NoiseSpec, build_hamiltonian, expansion_defect
from .protocol import MODE_POST_SELECTED, zeno_cycle, encode
from .repetition import evolve_repetition
from .states import StateVector, apply_cnot, ket_string
from .sweep import run_sweep, write_csv


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for every subcommand; ``main`` keeps its own."""
    parser = argparse.ArgumentParser(
        prog="zenosim",
        description="Measurement-based qubit error avoidance: simulator and experiment harness.",
        epilog="Units are natural (hbar = 1); all rates are radians per unit time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the configured n-sweep and write CSV")
    p_sweep.add_argument("config", help="path to a key = value configuration file")
    p_sweep.add_argument(
        "--keep-timings",
        action="store_true",
        help="write measured wall times instead of the reproducible 0 placeholder",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_demo = sub.add_parser("zeno-demo", help="print the noiseless measurement-cycle walkthrough")
    p_demo.set_defaults(func=_cmd_zeno_demo)

    p_rep = sub.add_parser("repetition-demo", help="print the leakage amplitudes of a noisy repetition register")
    p_rep.add_argument("--lambda", dest="lam", type=float, required=True, help="flip coupling on every qubit")
    p_rep.add_argument("--t", dest="t", type=float, required=True, help="evolution time")
    p_rep.set_defaults(func=_cmd_repetition_demo)

    p_exp = sub.add_parser("expansion-check", help="tabulate the first-order truncation defect against t^2")
    p_exp.add_argument("--seed", type=int, default=7, help="seed for the sampled generator")
    p_exp.set_defaults(func=_cmd_expansion_check)

    p_lim = sub.add_parser("limit", help="evaluate (1 - c/n^2)^n")
    p_lim.add_argument("--c", type=float, required=True, help="short-interval loss constant, >= 0")
    p_lim.add_argument("--n", required=True, help="comma-separated list of measurement counts")
    p_lim.set_defaults(func=_cmd_limit)

    return parser


def _cmd_sweep(args) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read '{args.config}': {exc}") from None
    config = parse_config(text)
    result = run_sweep(config)
    try:
        write_csv(result, config.output, keep_timings=args.keep_timings)
    except OSError as exc:
        print(f"cannot write '{config.output}': {exc}", file=sys.stderr)
        return 2
    for row in result.rows:
        if row.failed:
            print(f"n={row.n}: FAILED")
            print(f"n={row.n}: {row.error}", file=sys.stderr)
        else:
            print(
                f"n={row.n}: survival={row.survival_probability:.9f} "
                f"fidelity={row.mean_post_selected_fidelity:.9f} "
                f"detection_rate={row.detection_rate:.6f} "
                f"reference={row.analytic_reference:.9f}"
            )
    print(f"wrote {config.output} ({len(result.rows)} rows)")
    if any(row.failed for row in result.rows):
        print("one or more rows failed; see markers in the CSV", file=sys.stderr)
        return 2
    return 0


def _cmd_zeno_demo(args) -> int:
    data = StateVector(1, [0.6, 0.8])
    encoded = encode(data, aux_count=1)
    disentangled = apply_cnot(encoded, 0, 1)
    outcome = zeno_cycle(encoded, 0, 1, MODE_POST_SELECTED)
    print("data qubit:              ", ket_string(data))
    print("encoded (CNOT with |0>): ", ket_string(encoded))
    print("after disentangling CNOT:", ket_string(disentangled), " (auxiliary factored into |0>)")
    print(f"auxiliary measured:       0 with probability {outcome.branch_probability:.12f}")
    print("after re-entangling CNOT:", ket_string(outcome.state_after))
    print("the auxiliary measurement left the encoded state untouched")
    return 0


def _cmd_repetition_demo(args) -> int:
    try:
        noise = NoiseSpec.flip(args.lam, 3)
    except ValueError as exc:
        raise ConfigError(f"--lambda: {exc}") from None
    try:
        _, report = evolve_repetition(StateVector(1), noise, args.t)  # data |0>
    except ValueError as exc:
        raise ConfigError(f"--t: {exc}") from None
    print(f"repetition register after flip drift lambda={args.lam:g}, t={args.t:g}:")
    for pattern, amplitude in report.as_dict().items():
        kind = "code word" if pattern in ("000", "111") else "leakage  "
        print(f"  |{pattern}>  {kind}  amplitude={amplitude:.6g}  |amp|={abs(amplitude):.6g}")
    total = sum(abs(a) ** 2 for a in report.as_dict().values())
    print(f"  sum of squared magnitudes = {total:.12f}")
    return 0


def _cmd_expansion_check(args) -> int:
    try:
        rng = np.random.default_rng(args.seed)
    except ValueError as exc:
        raise ConfigError(f"--seed: {exc}") from None
    spec = NoiseSpec(lam=tuple(rng.uniform(0.3, 1.5, 2)), mu=tuple(rng.uniform(0.3, 1.5, 2)))
    h = build_hamiltonian(spec, 2)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = StateVector(2, amps)
    print(f"sampled drift: lam={spec.lam}, mu={spec.mu}")
    print(f"{'t':>10}  {'defect':>14}  {'defect/t^2':>14}")
    for t in (1e-2, 1e-3, 1e-4):
        defect = expansion_defect(state, h, t)
        print(f"{t:>10.0e}  {defect:>14.6e}  {defect / t**2:>14.6f}")
    print("defect/t^2 approaching a constant confirms the O(t^2) truncation")
    return 0


def _cmd_limit(args) -> int:
    try:
        ns = [int(part.strip()) for part in args.n.split(",") if part.strip()]
        if not ns:
            raise ValueError("empty list")
    except ValueError:
        raise ConfigError(f"--n expects comma-separated integers, got '{args.n}'") from None
    lines = [f"{'n':>8}  {'(1 - c/n^2)^n':>16}"]
    for n in ns:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", OutOfRegimeWarning)
            try:
                value = zeno_limit_formula(args.c, n)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            flag = "  (out of regime, clamped)" if caught else ""
        lines.append(f"{n:>8}  {value:>16.12f}{flag}")
    print("\n".join(lines))
    return 0


@cache
def _main_parser() -> argparse.ArgumentParser:
    # building the parser costs about as much as a sweep of eight small
    # rows; parse_args leaves it unchanged, and no caller can reach this copy
    return build_parser()


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # protocol/runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
