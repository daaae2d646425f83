"""Comparison models: classical heat flow and constant-order subdiffusion.

Both are thin callers of the shared backward-Euler marcher in
`stepper` and take the multiscale model's `SolverConfig`, ignoring its
exponent.  Heat flow is the marcher without memory.  The
constant-order model treats the fractional term with first-order
convolution quadrature, matching the backward-Euler backbone; the
quadrature weights are the binomial coefficients of (1 - z)^a and the
history sum includes the initial state (no separate initial
correction).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .exponents import figure_transition_exponent
from .fem import Mesh1D
# solve and sample_solution are not called here, but perfbench/spans.py
# traces them under this module's name
from .stepper import (SolverConfig, SolutionHistory,  # noqa: F401
                      _march_meshes, _midpoint_series, _multiscale_terms,
                      sample_solution, solve)


def heat_solve(config: SolverConfig) -> SolutionHistory:
    """Backward-Euler P1 solve of u_t - u_xx = f.

    Ignores config.exponent; with a zero exponent the multiscale
    stepper must reproduce this history to roundoff.
    """
    return _march_meshes([config], *_heat_terms(config))[0]


def _heat_terms(config: SolverConfig) -> tuple:
    """(implicit, memory, first) of heat flow for stepper._march."""
    return 1.0, None, 1


def cq_weights(alpha_bar: float, count: int) -> np.ndarray:
    """First count+1 coefficients of (1 - z)^alpha_bar.

    w_0 = 1 and w_j = w_{j-1} (j - 1 - alpha_bar) / j; all weights with
    j >= 1 are negative and their partial sums tend to 0.
    """
    if not 0.0 < alpha_bar < 1.0:
        raise ValidationError(
            f"constant exponent must lie in (0, 1), got {alpha_bar}")
    j = np.arange(1.0, count + 1.0)
    return np.concatenate(([1.0], np.cumprod((j - 1.0 - alpha_bar) / j)))


def constant_subdiffusion_solve(config: SolverConfig,
                                alpha_bar: float) -> SolutionHistory:
    """Backward Euler with convolution quadrature for the fractional term:

    [M/tau + tau^(-a) A] U_n
        = (M/tau) U_{n-1} + F_n - tau^(-a) A sum_{j=1..n} w_j U_{n-j},

    with a = alpha_bar in (0, 1).  Ignores config.exponent.
    """
    return _march_meshes([config], *_cq_terms(config, alpha_bar))[0]


def _cq_terms(config: SolverConfig, alpha_bar: float) -> tuple:
    """(implicit, memory, first) of constant-order subdiffusion for
    stepper._march: tau^-a, tau^-a times the CQ weights, and 0."""
    weights = cq_weights(alpha_bar, config.n_steps)
    scale = config.tau ** (-alpha_bar)
    return scale, scale * weights, 0


@dataclass(frozen=True)
class ComparisonSeries:
    """u(0.5, t_n) for the three models on identical meshes."""

    times: np.ndarray
    heat: np.ndarray
    multiscale: np.ndarray
    subdiffusion: np.ndarray


def sin_pi(x):
    """Initial data sin(pi x), the msd default and the figure's."""
    return np.sin(math.pi * np.asarray(x, float))


def figure_transition_profiles(T: float = 8.0, alpha_end: float = 0.4,
                               n_steps: int = 1024, m_cells: int = 32,
                               initial=sin_pi) -> ComparisonSeries:
    """Solve heat, multiscale (ramp exponent) and constant-order models.

    alpha_end is both the terminal value of the ramp and the constant
    order of the comparison model.  Returns the centre-point series of
    all three runs, each equal to sample_series(run, 0.5) of the full
    run to rounding; each run is sampled and dropped before the next.
    Every run marches only the odd sine modes k = 1, 3, 5, ...: an even
    mode sin(k pi x) is odd about x = 1/2, so its P1 interpolant is 0
    there and cannot reach the series.  That halves the solves, the
    history product and the history memory; a run fails (SolverError)
    only if its odd modes do.
    """
    config = SolverConfig(T=T, n_steps=n_steps, mesh=Mesh1D(m_cells),
                          exponent=figure_transition_exponent(T, alpha_end),
                          initial=initial)
    models = (_multiscale_terms, _heat_terms,
              lambda c: _cq_terms(c, alpha_end))
    multi, heat, sub = (_midpoint_series(config, *terms(config))
                        for terms in models)
    return ComparisonSeries(config.tau * np.arange(n_steps + 1), heat, multi,
                            sub)
