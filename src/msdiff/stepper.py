"""Backward-Euler time marching shared by the three models.

Every model here steps the P1 system

    [M/tau + c A] U_n
        = (M/tau) U_{n-1} + F_n - A sum_{k=first..n-1} w[n-k] U_k,

where M and A are the P1 mass and stiffness matrices, F_n the load at
t_n, c the implicit coefficient and w a lag-indexed memory vector.  The
models differ only in c, w and whether U_0 enters the sum (`first`):

- multiscale (`solve`): c = 1 + b(n, n), w the closed-form memory
  weights, first = 1;
- heat flow (`reference.heat_solve`): c = 1, no memory;
- constant-order subdiffusion (`reference.constant_subdiffusion_solve`):
  c = tau^-a, w = tau^-a times the convolution-quadrature weights,
  first = 0.

On the uniform grid c is step-independent, so the matrix is factored
once per run.  The memory sum is accumulated over the stored history
first and hit by A once; cost O(N^2 M) overall, with the history kept
fully in memory because the memory term needs it anyway.  The
independent checks of this loop are the dense oracles of the test
suite.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SolverError, ValidationError
from .exponents import VariableExponent, validate_assumption_a
from .fem import (Mesh1D, TriDiagonalMatrix, assemble_mass,
                  assemble_stiffness, load_vector, ritz_projection)
from .weights import WeightTable, assemble_weights


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
        if not self.T > 0.0:
            raise ValidationError(f"final time must be positive, got {self.T}")
        if self.n_steps < 1:
            raise ValidationError(
                f"need at least one time step, got {self.n_steps}")

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


def solve(config: SolverConfig,
          weights: Optional[WeightTable] = None) -> SolutionHistory:
    """Run the scheme over n = 1..N starting from the projected data.

    The exponent is re-validated (cheap) unless a prebuilt weight table
    is supplied by a caller that already did so.  Raises SolverError on
    pivot breakdown, on a non-positive implicit coefficient
    1 + w_diag, or on a non-finite snapshot.
    """
    tau, N = config.tau, config.n_steps
    if weights is None:
        validate_assumption_a(config.exponent, config.T)
        weights = assemble_weights(N, tau, config.exponent)
    elif weights.n_steps < N:
        raise ValidationError(
            f"weight table covers {weights.n_steps} steps, need {N}")

    implicit = 1.0 + weights.diagonal
    if not implicit > 0.0:
        raise SolverError(
            f"implicit memory coefficient 1 + {weights.diagonal} <= 0 at "
            f"tau = {tau}; refine the time step")
    return _march(config, implicit, weights.lag, first=1)


def _march(config, implicit: float, memory: Optional[np.ndarray] = None,
           first: int = 1) -> SolutionHistory:
    """Step n = 1..N from the projected initial data (see module doc).

    memory[j] multiplies U_{n-j}; it needs entries 0..N-first, and
    entry 0 is never read (its share sits in `implicit`).  config is a
    SolverConfig or any run description with the same grid and data
    fields.  Raises SolverError on a non-finite snapshot.
    """
    mesh, tau, N = config.mesh, config.tau, config.n_steps
    source = config.source
    mass = assemble_mass(mesh)
    stiff = assemble_stiffness(mesh)
    system = TriDiagonalMatrix(
        sub=mass.sub / tau + implicit * stiff.sub,
        diag=mass.diag / tau + implicit * stiff.diag,
        sup=mass.sup / tau + implicit * stiff.sup,
    ).factor()

    if memory is not None:
        # contiguous reversed copy: rev[N - n + (k - first)] = memory[n - k]
        rev = np.ascontiguousarray(memory[N - first::-1])
    history = np.zeros((N + 1, mesh.n_unknowns))
    history[0] = ritz_projection(mesh, config.initial)

    for n in range(1, N + 1):
        rhs = mass.matvec(history[n - 1]) / tau
        if source is not None:
            t_n = n * tau
            rhs += load_vector(mesh, lambda x: source(x, t_n))
        if memory is not None and n > first:
            rhs -= stiff.matvec(rev[N - n:N - first] @ history[first:n])
        u = system.solve(rhs)
        if not np.all(np.isfinite(u)):
            raise SolverError(f"non-finite solution values at step {n}")
        history[n] = u
    return SolutionHistory(config=config, snapshots=history)


def sample_solution(history: SolutionHistory, x: float, n: int) -> float:
    """Piecewise-linear value of snapshot n at position x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"sample position {x} outside [0, 1]")
    if not 0 <= n <= history.n_steps:
        raise ValidationError(
            f"snapshot index {n} outside 0..{history.n_steps}")
    mesh = history.config.mesh
    grid = np.concatenate(([0.0], mesh.interior_nodes(), [1.0]))
    vals = np.concatenate(([0.0], history.snapshots[n], [0.0]))
    return float(np.interp(x, grid, vals))
