"""Finite-element solver for diffusion with a time-varying fractional
exponent vanishing at the initial time.

The model interpolates between classical (Fickian) diffusion near t = 0
and constant-order subdiffusion at later times.  It is solved through
its memory-kernel form: a heat equation plus a convolution of the
Laplacian with the kernel g = d/dt [t^(-alpha(t)) / Gamma(1-alpha(t))],
discretized by P1 finite elements and backward Euler with closed-form
memory weights.
"""

from .errors import SolverError, ValidationError
from .exponents import (CaseClass, ValidationReport, VariableExponent,
                        example_exponent_1, example_exponent_2,
                        exponent_by_name, figure_transition_exponent,
                        tabulated_exponent, validate_assumption_a,
                        zero_exponent)
from .fem import (Mesh1D, TriDiagonalMatrix, assemble_mass,
                  assemble_stiffness, discrete_l2_diff, discrete_l2_norm,
                  load_vector, ritz_projection, tridiag_solve)
from .harness import (ExperimentConfig, RateRow, RateTable, emit_table,
                      format_sig5, parse_rate_table, run_convergence_space,
                      run_convergence_time, run_figure_comparison,
                      run_single_solve)
from .kernel import (KernelEvaluation, evaluate_kernel, kernel_prefactor,
                     kernel_value, log_derivative_factor, smooth_factor)
from .reference import (ComparisonSeries, cq_weights,
                        constant_subdiffusion_solve, figure_transition_profiles,
                        heat_solve)
from .special import EULER_GAMMA, digamma, gamma
from .stepper import (SolutionHistory, SolverConfig, sample_series,
                      sample_solution, solve)
from .weights import (assemble_weights, memory_weight, weight_log_moment,
                      weight_power_moment, weight_smooth_factor)

__version__ = "0.1.0"
