"""Comparison models: classical heat flow and constant-order subdiffusion.

Both are thin callers of the shared backward-Euler marcher in
`stepper`.  Heat flow is the marcher without memory.  The
constant-order model treats the fractional term with first-order
convolution quadrature, matching the backward-Euler backbone; the
quadrature weights are the binomial coefficients of (1 - z)^a and the
history sum includes the initial state (no separate initial
correction).
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError
from .exponents import figure_transition_exponent
from .fem import Mesh1D
# sample_solution is not called here, but perfbench/spans.py traces it
# under this module's name
from .stepper import (SolverConfig, SolutionHistory, _march,  # noqa: F401
                      sample_series, sample_solution, solve)


def heat_solve(config: SolverConfig) -> SolutionHistory:
    """Backward-Euler P1 solve of u_t - u_xx = f.

    Ignores config.exponent; with a zero exponent the multiscale
    stepper must reproduce this history to roundoff.
    """
    return _march(config, 1.0)


def cq_weights(alpha_bar: float, count: int) -> np.ndarray:
    """First count+1 coefficients of (1 - z)^alpha_bar.

    w_0 = 1 and w_j = w_{j-1} (j - 1 - alpha_bar) / j; all weights with
    j >= 1 are negative and their partial sums tend to 0.
    """
    if not 0.0 < alpha_bar < 1.0:
        raise ValidationError(
            f"constant exponent must lie in (0, 1), got {alpha_bar}")
    w = np.empty(count + 1)
    w[0] = 1.0
    for j in range(1, count + 1):
        w[j] = w[j - 1] * (j - 1.0 - alpha_bar) / j
    return w


@dataclass
class ConstantExponentConfig:
    """Run description for the constant-order comparison model."""

    alpha_bar: float
    T: float
    n_steps: int
    mesh: Mesh1D
    initial: Callable[[np.ndarray], np.ndarray]
    source: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self):
        if not 0.0 < self.alpha_bar < 1.0:
            raise ValidationError(
                f"constant exponent must lie in (0, 1), got {self.alpha_bar}")
        if not self.T > 0.0:
            raise ValidationError(f"final time must be positive, got {self.T}")
        if self.n_steps < 1:
            raise ValidationError(
                f"need at least one time step, got {self.n_steps}")

    @property
    def tau(self) -> float:
        return self.T / self.n_steps


def constant_subdiffusion_solve(config: ConstantExponentConfig) -> SolutionHistory:
    """Backward Euler with convolution quadrature for the fractional term:

    [M/tau + tau^(-a) A] U_n
        = (M/tau) U_{n-1} + F_n - tau^(-a) A sum_{j=1..n} w_j U_{n-j}.
    """
    scale = config.tau ** (-config.alpha_bar)
    return _march(config, scale,
                  scale * cq_weights(config.alpha_bar, config.n_steps),
                  first=0)


@dataclass(frozen=True)
class ComparisonSeries:
    """u(0.5, t_n) for the three models on identical meshes."""

    times: np.ndarray
    heat: np.ndarray
    multiscale: np.ndarray
    subdiffusion: np.ndarray


def _default_initial(x):
    return np.sin(math.pi * np.asarray(x, float))


def figure_transition_profiles(T: float = 8.0, alpha_end: float = 0.4,
                               n_steps: int = 1024, m_cells: int = 32,
                               initial=None) -> ComparisonSeries:
    """Solve heat, multiscale (ramp exponent) and constant-order models.

    alpha_end is both the terminal value of the ramp and the constant
    order of the comparison model.  Returns the centre-point series of
    all three runs.
    """
    if not 0.0 < alpha_end < 1.0:
        raise ValidationError(
            f"terminal exponent must lie in (0, 1), got {alpha_end}")
    if initial is None:
        initial = _default_initial
    mesh = Mesh1D(m_cells)

    multi_cfg = SolverConfig(T=T, n_steps=n_steps, mesh=mesh,
                             exponent=figure_transition_exponent(T, alpha_end),
                             initial=initial)
    multi = solve(multi_cfg)
    heat = heat_solve(multi_cfg)
    sub = constant_subdiffusion_solve(ConstantExponentConfig(
        alpha_bar=alpha_end, T=T, n_steps=n_steps, mesh=mesh,
        initial=initial))

    return ComparisonSeries(
        times=multi.times(),
        heat=sample_series(heat, 0.5),
        multiscale=sample_series(multi, 0.5),
        subdiffusion=sample_series(sub, 0.5),
    )
