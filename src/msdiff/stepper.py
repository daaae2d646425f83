"""Backward-Euler time marching shared by the three models.

Every model here steps the P1 system

    [M/tau + c A] U_n
        = (M/tau) U_{n-1} + F_n - A sum_{k=first..n-1} w[n-k] U_k,

where M and A are the P1 mass and stiffness matrices, F_n the load at
t_n, c the implicit coefficient and w a lag-indexed memory vector.  The
models differ only in c, w and whether U_0 enters the sum (`first`):

- multiscale (`solve`): c = 1 + lag[0], w = lag, the closed-form memory
  weights b(n, k) = lag[n - k], first = 1;
- heat flow (`reference.heat_solve`): c = 1, no memory;
- constant-order subdiffusion (`reference.constant_subdiffusion_solve`):
  c = tau^-a, w = tau^-a times the convolution-quadrature weights,
  first = 0.

All three take the same `SolverConfig`; only `solve` reads its exponent.

On the uniform mesh M and A share the sine eigenvectors, so the
marcher steps the sine coefficients u_n = dst1(U_n) instead of nodal
values.  Mode k then obeys the scalar recurrence

    d_k u_n[k] = (lam^M_k/tau) u_{n-1}[k] + dst1(F_n)[k]
                 - lam^A_k sum_k w[n-k] u_k[k],
    d_k = lam^M_k/tau + c lam^A_k > 0 for c > 0,

so a step costs a few vector operations plus the memory sum, with no
linear solve.  The memory sum runs over the stored coefficient history
(cost O(N^2 M) overall, the history kept fully in memory because the
memory term needs it anyway), and the snapshots are transformed back to
nodal values once, in blocks, at the end.  The independent checks of
this loop are the dense oracles of the test suite.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SolverError, ValidationError
from .exponents import VariableExponent, validate_assumption_a
from .fem import (Mesh1D, dst1, load_vector, ritz_projection,
                  sine_eigenvalues)
from .weights import assemble_weights


@dataclass
class SolverConfig:
    """One fully specified run: grid, horizon, exponent, data.

    source(x, t) may be None for a homogeneous equation; initial(x)
    must vanish at the boundary.  Both must accept numpy arrays in x.
    """

    T: float
    n_steps: int
    mesh: Mesh1D
    exponent: VariableExponent
    initial: Callable[[np.ndarray], np.ndarray]
    source: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self):
        if not 0.0 < self.T < np.inf:
            raise ValidationError(f"T = {self.T} is not in (0, inf)")
        if self.n_steps < 1:
            raise ValidationError(
                f"need at least one time step, got {self.n_steps}")
        if not self.tau >= np.finfo(float).tiny:  # else M/tau overflows
            raise ValidationError(f"time step T/N = {self.tau} underflows")
        size = (int(self.n_steps) + 1) * int(self.mesh.n_unknowns)
        if 8 * size > np.iinfo(np.intp).max:  # numpy cannot size it
            raise ValidationError(
                f"history (N+1) x (M-1) = {size} values is too large")

    @property
    def tau(self) -> float:
        return self.T / self.n_steps


@dataclass
class SolutionHistory:
    """All nodal snapshots U_0..U_N of a run (rows of `snapshots`)."""

    config: SolverConfig
    snapshots: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.snapshots.shape[0] - 1

    def times(self) -> np.ndarray:
        return self.config.tau * np.arange(self.snapshots.shape[0])

    def final(self) -> np.ndarray:
        return self.snapshots[-1]


def solve(config: SolverConfig) -> SolutionHistory:
    """Run the scheme over n = 1..N starting from the projected data.

    Validates the exponent, assembles the lag vector of memory weights
    and marches with implicit coefficient 1 + lag[0].  Raises
    SolverError on a non-finite snapshot or a non-positive 1 + lag[0],
    the only step check: coarse steps can amplify (a random spline run
    grew 6.3x at N = 2).  1 + lag[0] >= sum_{j>=1} |lag[j]| suffices
    for bounded modes but is not enforced: Table 2's runs (exp-example2,
    T = 1, N = 32, 64) miss it (1.090 < 1.123, 1.056 < 1.159) and keep
    max_n ||U_n|| / ||U_0|| at 1.0 with 63 modes at M = 64.
    """
    validate_assumption_a(config.exponent, config.T)
    lag = assemble_weights(config.n_steps, config.tau, config.exponent)
    implicit = 1.0 + lag[0]
    if not implicit > 0.0:
        raise SolverError(
            f"implicit memory coefficient 1 + {lag[0]} <= 0 at "
            f"tau = {config.tau}; refine the time step")
    return _march(config, implicit, lag, first=1)


# rows per block when the coefficient history is turned back into nodal
# values: bounds the FFT temporaries to a few blocks' worth of memory
_BLOCK_ROWS = 64


def _march(config: SolverConfig, implicit: float,
           memory: Optional[np.ndarray] = None,
           first: int = 1) -> SolutionHistory:
    """Step n = 1..N from the projected initial data (see module doc).

    config supplies the grid, horizon, initial data and source; its
    exponent is not read here.  implicit must be positive.  memory[j]
    multiplies U_{n-j}; it needs entries 0..N-first, and entry 0 is
    never read (its share sits in `implicit`).  Raises SolverError on a
    non-finite snapshot.
    """
    mesh, tau, N = config.mesh, config.tau, config.n_steps
    source = config.source
    lam_mass, lam_stiff = sine_eigenvalues(mesh)
    denom = lam_mass / tau + implicit * lam_stiff
    decay = lam_mass / (tau * denom)
    inv_denom = 1.0 / denom
    memory_gain = lam_stiff * inv_denom

    if memory is not None:
        # contiguous reversed copy: rev[N - n + (k - first)] = memory[n - k]
        rev = np.ascontiguousarray(memory[N - first::-1])
    u0 = ritz_projection(mesh, config.initial)
    history = np.empty((N + 1, mesh.n_unknowns))
    history[0] = dst1(u0)

    for n in range(1, N + 1):
        u = history[n]
        np.multiply(decay, history[n - 1], out=u)
        if source is not None:
            t_n = n * tau
            u += inv_denom * dst1(
                load_vector(mesh, lambda x: source(x, t_n)))
        if memory is not None and n > first:
            u -= memory_gain * (rev[N - n:N - first] @ history[first:n])
        if not np.all(np.isfinite(u)):
            raise SolverError(f"non-finite solution values at step {n}")

    scale = 2.0 / mesh.m_cells
    for lo in range(1, N + 1, _BLOCK_ROWS):
        block = history[lo:lo + _BLOCK_ROWS]
        block[:] = dst1(block)
        block *= scale
    history[0] = u0
    return SolutionHistory(config=config, snapshots=history)


def sample_series(history: SolutionHistory, x: float) -> np.ndarray:
    """Piecewise-linear values u(x, t_n) of every snapshot, n = 0..N.

    x must lie in [0, 1]; each value interpolates between the two
    nodes bracketing x (boundary nodes count as zero).
    """
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"sample position {x} outside [0, 1]")
    mesh = history.config.mesh
    snaps = history.snapshots
    cell = min(int(x * mesh.m_cells), mesh.m_cells - 1)
    left_x, right_x = cell * mesh.h, (cell + 1) * mesh.h
    theta = (x - left_x) / (right_x - left_x)

    def node(j):
        if 0 < j < mesh.m_cells:
            return snaps[:, j - 1]
        return np.zeros(snaps.shape[0])

    return (1.0 - theta) * node(cell) + theta * node(cell + 1)


def sample_solution(history: SolutionHistory, x: float, n: int) -> float:
    """Piecewise-linear value of snapshot n at position x in [0, 1]."""
    if not 0 <= n <= history.n_steps:
        raise ValidationError(
            f"snapshot index {n} outside 0..{history.n_steps}")
    return float(sample_series(history, x)[n])
