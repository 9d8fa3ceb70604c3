"""The package's public names."""
import zenosim

PUBLIC_NAMES = {
    "HADAMARD", "IDENTITY", "MAX_QUBITS", "PAULI_X", "PAULI_Z", "Gate2x2",
    "MeasurementRecord", "NormDriftError", "StateVector", "ZeroProbabilityError",
    "append_aux", "apply_cnot", "apply_single", "fidelity", "ket_string",
    "measure_qubit", "new_state", "project_qubit",
    "HermitianOperator", "NoiseSpec", "apply_propagator", "build_hamiltonian",
    "evolve_exact", "evolve_first_order", "expansion_defect", "propagator",
    "slice_propagator",
    "ABORT_ON_DETECT", "AUX_DUAL_ALTERNATING", "AUX_SINGLE", "MODE_POST_SELECTED",
    "MODE_STOCHASTIC", "RESET_AND_CONTINUE", "CycleOutcome", "ProtocolResult",
    "ZenoSchedule", "decode", "encode", "run_protocol", "zeno_cycle",
    "ConvergencePoint", "OutOfRegimeWarning", "fit_inverse_n", "single_qubit_survival",
    "zeno_limit_formula",
    "EpsilonReport", "evolve_repetition", "majority_vote_round", "syndrome_branches",
    "ConfigError", "ExperimentConfig", "parse_config",
    "CSV_COLUMNS", "SweepResult", "SweepRow", "derive_trial_seed", "mix64", "run_sweep",
    "write_csv",
}


def test_all_lists_the_public_names_once():
    assert len(PUBLIC_NAMES) == 59
    assert len(zenosim.__all__) == len(set(zenosim.__all__))
    assert set(zenosim.__all__) == PUBLIC_NAMES | {"__version__"}


def test_every_listed_name_resolves():
    for name in zenosim.__all__:
        assert getattr(zenosim, name) is not None
