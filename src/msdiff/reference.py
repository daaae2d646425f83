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

from .errors import ValidationError, require_integer
from .exponents import figure_transition_exponent
from .fem import Mesh1D
# sample_solution is not called here, but perfbench/spans.py traces it
# under this module's name
from .stepper import (SolverConfig, SolutionHistory,  # noqa: F401
                      _march_bytes, _march_meshes, _require_memory,
                      sample_series, sample_solution, solve)


def heat_solve(config: SolverConfig) -> SolutionHistory:
    """Backward-Euler P1 solve of u_t - u_xx = 0.

    Ignores config.exponent; with a zero exponent the multiscale
    stepper must reproduce this history to roundoff.  Not sized against
    physical memory: it builds no lag strip and no inverses, so
    stepper._march_bytes would count too high for it.
    """
    return _march_meshes([config], 1.0)[0]


def cq_weights(alpha_bar: float, count: int) -> np.ndarray:
    """First count+1 coefficients of (1 - z)^alpha_bar.

    w_0 = 1 and w_j = w_{j-1} (j - 1 - alpha_bar) / j; all weights with
    j >= 1 are negative and their partial sums tend to 0.
    """
    if not 0.0 < alpha_bar < 1.0:
        raise ValidationError(
            f"constant exponent must lie in (0, 1), got {alpha_bar}")
    require_integer(count, "count", 0)
    j = np.arange(1.0, count + 1.0)
    return np.concatenate(([1.0], np.cumprod((j - 1.0 - alpha_bar) / j)))


def constant_subdiffusion_solve(config: SolverConfig,
                                alpha_bar: float) -> SolutionHistory:
    """Backward Euler with convolution quadrature for the fractional term:

    [M/tau + tau^(-a) A] U_n
        = (M/tau) U_{n-1} - tau^(-a) A sum_{j=1..n} w_j U_{n-j},

    with a = alpha_bar in (0, 1).  Ignores config.exponent.

    U_0 enters every sum, but no step is imposed at n = 0: rows 1..N of
    mode k are c_k = 1 + lam_k tau^(1-a) times the first-order CQ of
    v + lam_k I^(1-a) v = v(0) from U_0 / c_k (lam_k = lam^A_k / lam^M_k),
    so the error falls like tau^(1-a); 54% in figure1 at N = 1024.
    A march larger than physical memory (stepper._require_memory) raises
    SolverError before the weights are built, counted with one mode, or
    before it marches, counted with the modes it chose.
    """
    _require_memory(_march_bytes(config.n_steps, [config.mesh]), "the march")
    weights = cq_weights(alpha_bar, config.n_steps)
    scale = config.tau ** (-alpha_bar)
    return _march_meshes([config], scale, scale * weights, 0)[0]


@dataclass(frozen=True)
class ComparisonSeries:
    """u(0.5, t_n) for the three models on identical meshes."""

    times: np.ndarray
    heat: np.ndarray
    multiscale: np.ndarray
    subdiffusion: np.ndarray


def sin_pi(x):
    """Initial data sin(pi x), the msd default and the figure's.

    Evaluated as sin(pi min(x, 1 - x)), which is within 1 ulp of the
    correctly rounded value at the nodes of M = 1024: 1 - x is exact for
    x in [1/2, 1], while np.sin(pi x) there loses the small distance of
    pi x to pi (up to 373 ulp).  On the mesh nodes, where 1 - x_j is the
    node x_{M-j}, the nodal data is exactly symmetric about 1/2.
    """
    x = np.asarray(x, float)
    return np.sin(math.pi * np.minimum(x, 1.0 - x))


def figure_transition_profiles(T: float = 8.0, alpha_end: float = 0.4,
                               n_steps: int = 1024, m_cells: int = 32,
                               initial=sin_pi) -> ComparisonSeries:
    """Solve heat, multiscale (ramp exponent) and constant-order models.

    alpha_end is both the terminal value of the ramp and the constant
    order of the comparison model.  Returns sample_series(run, 0.5) of
    solve, heat_solve and constant_subdiffusion_solve on one config;
    each run is sampled and dropped before the next.  Each run marches
    the modes of the config alone (stepper module doc): the odd sine
    modes if its nodal data is exactly symmetric about 1/2 (the built-in
    data on every M), else every mode, and of those, where the run cannot
    amplify, only those that start above eps times the largest.  Heat
    flow and the constant-order model never amplify, nor does the
    multiscale run of the default ramp (margin 0.22-0.29 for N = 2..4096
    at T = 8, alpha_end = 0.4), so each run of sin-pi, the first sine
    mode exactly, marches one mode.  CSV tables and callables whose
    nodal values are not mirrored and excite every mode cost 1.55-1.75x
    the time of the odd-mode march at N = 1024, M = 100..128, and twice
    the history memory.
    """
    config = SolverConfig(T=T, n_steps=n_steps, mesh=Mesh1D(m_cells),
                          exponent=figure_transition_exponent(T, alpha_end),
                          initial=initial)
    runs = (solve, heat_solve,
            lambda c: constant_subdiffusion_solve(c, alpha_end))
    multi, heat, sub = (sample_series(run(config), 0.5) for run in runs)
    return ComparisonSeries(config.tau * np.arange(n_steps + 1), heat, multi,
                            sub)
