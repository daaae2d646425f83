import types

import msdiff

# every name msdiff/__init__.py exports; a change to this list drops or
# adds API on purpose, and CHANGES.md says which
PUBLIC_NAMES = [
    "CaseClass", "ComparisonSeries", "EULER_GAMMA", "ExperimentConfig",
    "Mesh1D", "RateRow", "RateTable", "SolutionHistory", "SolverConfig",
    "SolverError", "TriDiagonalMatrix", "ValidationError", "ValidationReport",
    "VariableExponent", "assemble_weights", "constant_subdiffusion_solve",
    "cq_weights", "digamma", "discrete_l2_norm", "emit_table",
    "example_exponent_1", "example_exponent_2", "exponent_by_name",
    "figure_transition_exponent", "figure_transition_profiles", "format_sig5",
    "gamma", "heat_solve", "kernel_prefactor", "kernel_value",
    "log_derivative_factor", "parse_rate_table", "ritz_projection",
    "run_convergence_space", "run_convergence_time", "run_figure_comparison",
    "run_single_solve", "sample_series", "sample_solution", "smooth_factor",
    "solve", "tabulated_exponent", "validate_assumption_a", "zero_exponent",
]


def test_public_names_match_the_recorded_list():
    # submodules are attributes of the package once imported; they are
    # not names __init__.py exports
    names = sorted(name for name, value in vars(msdiff).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == sorted(PUBLIC_NAMES)
