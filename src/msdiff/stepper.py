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
                 - lam^A_k sum_{j=first..n-1} w[n-j] u_j[k],
    d_k = lam^M_k/tau + c lam^A_k > 0 for c > 0,

with no linear solve in space.  In time, steps u_1..u_N of one mode
form a lower-triangular Toeplitz system with coefficients t[0] = 1,
t[1] = -decay_k + gain_k w[1] and t[j] = gain_k w[j] (decay_k =
lam^M_k / (tau d_k), gain_k = lam^A_k / d_k); U_0 only enters the
right-hand side.  The marcher cuts time into blocks of B = _BLOCK_ROWS
steps and, per block lo..hi-1:

1. adds the history before the block, U_first..U_{lo-1}, as one matrix
   product of a B-row Toeplitz strip of w with the stored coefficients;
2. solves the block's own triangle in two halves of H = B/2 rows, each
   by one batched product with every mode's dense H x H inverse, whose
   first column an H-step recurrence gives once a run.  Before its
   solve the bottom half takes away the top half's share: gain_k times
   C times the top rows, with one lag Toeplitz matrix
   C[i, j] = w[H + i - j] for all modes, and it adds decay_k times the
   top's last row to its first row.  Row i depends only on rows up to
   i, so each row is as accurate as the step-by-step march.

A run takes N/B + B/2 interpreter steps instead of N, and the memory sum
is a BLAS-3 product (O(N^2 M) flops, the history kept fully in memory
because the memory term needs it anyway).  Modes never mix, so the
marcher takes a `ModeSet`, the modes of one or more meshes on one time
grid; `solve_ladder` marches the meshes of a ladder that share N as
one set.  A mesh is judged once, by row N, which any non-finite value
reaches (decay > 0 carries it on, and so do the half-block products): it
drops out alone, and SolverError, naming a block of steps, comes once
none is left.  A run stays in the sine basis; `SolutionHistory` and the
samplers transform back only what is read.  A run read only at x = 1/2,
as each run of the transition figure is (`_midpoint_series`), marches
only the odd modes k = 1, 3, 5, ...: an even mode sin(k pi x) is odd
about 1/2, so its P1 interpolant is 0 there on every uniform mesh, and
marching it would double the solves, the history product and the
history memory without changing the series.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

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
        size = (int(self.n_steps) + 1) * int(self.mesh.n_unknowns)
        if 8 * size > np.iinfo(np.intp).max:  # numpy cannot size it
            raise ValidationError(
                f"history (N+1) x (M-1) = {size} values is too large")
        if not self.tau >= np.finfo(float).tiny:  # else M/tau overflows
            raise ValidationError(f"time step T/N = {self.tau} underflows")

    @property
    def tau(self) -> float:
        return self.T / self.n_steps


@dataclass
class SolutionHistory:
    """Snapshots U_0..U_N of a run: rows dst1(U_n) of `coefficients`.

    `initial` is U_0, the exact Ritz projection.  `final` transforms one
    row back to nodal values; the first read of `snapshots` allocates a
    second (N+1) x (M-1) array and keeps it.
    """

    config: SolverConfig
    coefficients: np.ndarray
    initial: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.coefficients.shape[0] - 1

    def final(self) -> np.ndarray:
        return self._nodal(self.coefficients[-1:])[0]

    @cached_property
    def snapshots(self) -> np.ndarray:
        """Nodal U_0..U_N as rows, transformed B rows at a time."""
        nodal = np.empty_like(self.coefficients)
        nodal[0] = self.initial
        for lo in range(1, nodal.shape[0], _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            nodal[rows] = self._nodal(self.coefficients[rows])
        return nodal

    def _nodal(self, coefficients: np.ndarray) -> np.ndarray:
        return dst1(coefficients) * (2.0 / self.config.mesh.m_cells)


class ModeSet(NamedTuple):
    """Sine modes marched together on one time grid (see _march): mode
    k has eigenvalues lam_mass[k], lam_stiff[k], start value dst1(U_0)[k];
    forcing(lo, hi), if given, returns rows dst1(F_n), n = lo..hi-1."""

    tau: float
    n_steps: int
    lam_mass: np.ndarray
    lam_stiff: np.ndarray
    start: np.ndarray
    forcing: Optional[Callable[[int, int], np.ndarray]] = None


def solve(config: SolverConfig) -> SolutionHistory:
    """Run the scheme over n = 1..N starting from the projected data.

    Validates the exponent, assembles the lag vector of memory weights
    and marches with implicit coefficient 1 + lag[0] (see _march).
    Raises SolverError on a non-finite snapshot, naming its block of
    steps (or dst1(U_0)), or on a non-positive 1 + lag[0], the only
    step check; the README says why the sufficient
    1 + lag[0] >= sum_{j>=1} |lag[j]| is not enforced.
    """
    return _march_meshes([config], *_multiscale_terms(config))[0]


def _multiscale_terms(config: SolverConfig, validate: bool = True) -> tuple:
    """(implicit, memory, first) of the multiscale model for _march:
    1 + lag[0], the lag vector of memory weights and 1.  Validates the
    exponent first unless the caller has already done so."""
    if validate:
        validate_assumption_a(config.exponent, config.T)
    lag = assemble_weights(config.n_steps, config.tau, config.exponent)
    return 1.0 + lag[0], lag, 1


def solve_ladder(configs: list) -> list:
    """Final nodal values of each config of a ladder; None where it failed.

    The configs share T, exponent and source (else ValidationError).
    The exponent is validated once; the configs of one N march as one
    mode set and match solve(config).final() to rounding, or give None,
    each alone, where solve raises SolverError.
    """
    for i, c in enumerate(configs):
        differ = [key for key in ("T", "exponent", "source")
                  if getattr(c, key) != getattr(configs[0], key)]
        if differ:
            raise ValidationError(f"ladder config {i} differs from config 0 "
                                  f"in {', '.join(differ)}")
    validate_assumption_a(configs[0].exponent, configs[0].T)
    finals = [None] * len(configs)
    for n_steps in sorted({c.n_steps for c in configs}):
        picked = [i for i, c in enumerate(configs) if c.n_steps == n_steps]
        group = [configs[i] for i in picked]
        try:
            runs = _march_meshes(
                group, *_multiscale_terms(group[0], validate=False))
        except SolverError:
            continue
        for i, run in zip(picked, runs):
            finals[i] = None if run is None else run.final()
        del runs, run  # one history at a time: free it before the next
    return finals


# steps per block, B in the module doc; it also bounds the temporaries
# of `SolutionHistory.snapshots`.  The dense half-block inverses hold
# modes x (B/2)^2 floats: 0.26 MB at figure1's 127 modes, 1 MiB at Table
# 2's 498.  In an in-process sweep (best of 25 marches), B = 16 ran
# 7-40% slower than 32 on N = 128..2048 at M = 32 and 128; B = 64 ran
# 14% faster to 6% slower there and 35-42% slower on Table 2's 498-mode
# ladder, whose traced peak it raised from 1.5 to 4.8 MB (figure1: 1.7
# to 2.8 MB), past the bounds of the tests.  One causal solve per 16-row
# block, or np.linalg.inv for the inverses, ran slower (ROADMAP item 7).
_BLOCK_ROWS = 32


def _march_meshes(configs: list, implicit: float,
                  memory: Optional[np.ndarray] = None, first: int = 1,
                  modes: slice = slice(None)):
    """SolutionHistory of each config, None where its run failed: the
    configs share tau, N and source and march as one ModeSet (see
    _march for the other arguments), each judged by row N (module doc);
    SolverError names where the last failed: a block, or dst1(U_0).
    `modes` picks the dst1 columns of each mesh that march; a history
    then holds only those, for _series to read."""
    tau, source, N = configs[0].tau, configs[0].source, configs[0].n_steps
    initial = [ritz_projection(c.mesh, c.initial) for c in configs]
    lam_mass, lam_stiff = map(np.concatenate, zip(
        *(np.stack(sine_eigenvalues(c.mesh))[:, modes] for c in configs)))
    forcing = None if source is None else lambda lo, hi: np.hstack([dst1([
        load_vector(c.mesh, lambda x, t=n * tau: source(x, t))
        for n in range(lo, hi)])[:, modes] for c in configs])
    with np.errstate(over="ignore", invalid="ignore"):
        starts = [dst1(u0)[modes] for u0 in initial]
    edges = np.cumsum([0] + [u.size for u in starts])
    start = np.concatenate(starts)
    history = _march(ModeSet(tau, N, lam_mass, lam_stiff, start, forcing),
                     implicit, memory, first)
    alive = np.logical_and.reduceat(np.isfinite(history[-1]), edges[:-1])
    if not alive.any():  # the first row where every config is non-finite
        n = np.logical_or.reduceat(~np.isfinite(history), edges[:-1],
                                   axis=1).all(axis=1).argmax()
        if n == 0 and np.isfinite(np.concatenate(initial)).all():
            raise SolverError("sine coefficients of the initial data "
                              f"overflow at M = {configs[0].mesh.m_cells}")
        lo = 1 + max(n - 1, 0) // _BLOCK_ROWS * _BLOCK_ROWS
        raise SolverError("non-finite solution values in steps "
                          f"{lo}..{min(lo + _BLOCK_ROWS - 1, N)}")
    return [SolutionHistory(c, history[:, lo:hi], u) if ok else None
            for c, u, lo, hi, ok in zip(configs, initial, edges, edges[1:],
                                        alive)]


def _march(modes: ModeSet, implicit: float,
           memory: Optional[np.ndarray] = None,
           first: int = 1) -> np.ndarray:
    """Step n = 1..N from modes.start, B steps per block.

    memory[j] multiplies U_{n-j}; it needs entries 0..N-first, and
    entry 0 is never read (its share sits in `implicit`, which must be
    positive, else SolverError).  A block of steps lo..hi-1 costs one
    GEMM with the earlier history and two half-block solves, each one
    batched product with the dense inverses, joined by one H x H GEMM
    with the lag matrix C (module doc).
    Returns the (N+1) x modes history, for the caller to judge.
    """
    tau, N = modes.tau, modes.n_steps
    if not implicit > 0.0:
        raise SolverError(f"implicit memory coefficient {implicit} <= 0 at "
                          f"tau = {tau}; refine the time step")
    denom = modes.lam_mass / tau + implicit * modes.lam_stiff
    decay = modes.lam_mass / (tau * denom)
    inv_denom = 1.0 / denom
    gain = modes.lam_stiff * inv_denom
    size, half = min(_BLOCK_ROWS, N), min(_BLOCK_ROWS // 2, N)
    history = np.empty((N + 1, modes.start.size))
    history[0] = modes.start

    lags = np.zeros(N + 2 * size)  # memory[1..N-first], zero padded
    if memory is not None:
        lags[1:N - first + 1] = memory[1:N - first + 1]
        # strip[i, c] = lags[i + N + size - c]: row i of the block at lo
        # takes strip[i, first - lo:], the weights of U_first..U_{lo-1};
        # its last `half` columns are the top half's weights in the
        # bottom half, coupling[i, j] = lags[half + i - j]
        windows = np.lib.stride_tricks.sliding_window_view(lags[::-1],
                                                           N + size)
        strip = np.ascontiguousarray(windows[size - 1::-1])
        coupling = strip[:half, N + size - half:]

    with np.errstate(over="ignore", invalid="ignore"):
        inverse = _inverse_toeplitz(decay, gain, lags[:half])
        for lo in range(1, N + 1, size):
            hi = min(lo + size, N + 1)
            block = history[lo:hi]
            if memory is not None and lo > first:
                np.matmul(strip[:hi - lo, first - lo:], history[first:lo],
                          out=block)
                block *= -gain
            else:
                block.fill(0.0)
            block[0] += decay * history[lo - 1]
            if modes.forcing is not None:
                block += inv_denom * modes.forcing(lo, hi)
            top, bottom = block[:half], block[half:]
            _causal_solve(inverse, top)
            if len(bottom):
                if memory is not None:
                    bottom -= gain * (coupling[:len(bottom)] @ top)
                bottom[0] += decay * top[-1]
                _causal_solve(inverse, bottom)
    return history


def _causal_solve(inverse: np.ndarray, rows: np.ndarray) -> None:
    """Solve the n x modes `rows` in place, n <= H: one batched product
    of each mode's column with the leading n x n corner of its inverse."""
    n = len(rows)
    rows[:] = np.matmul(inverse[:, :n, :n], rows.T[:, :, None])[..., 0].T


def _inverse_toeplitz(decay: np.ndarray, gain: np.ndarray,
                      lags: np.ndarray) -> np.ndarray:
    """Dense modes x H x H inverse of each mode's H-step matrix, H =
    lags.size (B/2 in _march): entry (k, i, j) is v_k[i - j], zero for
    j > i.

    Mode k's H x H step matrix is lower-triangular Toeplitz with first
    column t = (1, gain_k lags[1] - decay_k, gain_k lags[2], ..); so is
    its inverse, whose first column v obeys v[0] = 1 and
    v[n] = -sum_{j=1..n} t[j] v[n-j], run for all modes at once.  v
    sits below H - 1 zero rows, whose length-H windows are the rows of
    the inverse, copied once into a contiguous array.  lags[0] is not
    read.
    """
    size = lags.size
    coef = np.outer(lags, gain)
    coef[1:2] -= decay
    padded = np.zeros((2 * size - 1, gain.size))
    column = padded[size - 1:]
    column[0] = 1.0
    for n in range(1, size):
        column[n] = -np.einsum("jk,jk->k", coef[1:n + 1],
                               column[n - 1::-1])
    windows = np.lib.stride_tricks.sliding_window_view(padded, size, axis=0)
    return np.ascontiguousarray(windows[..., ::-1].transpose(1, 0, 2))


def sample_series(history: SolutionHistory, x: float) -> np.ndarray:
    """Piecewise-linear values u(x, t_n) of every snapshot, n = 0..N.

    x must lie in [0, 1]; each value interpolates between the two
    nodes bracketing x (boundary nodes count as zero).  The P1 weights
    at x act on the nodal U_0 and, back-transformed (DST-I is
    symmetric), on the rows dst1(U_n).
    """
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"sample position {x} outside [0, 1]")
    return _series(history, x)


def _series(history: SolutionHistory, x: float,
            modes: slice = slice(None)) -> np.ndarray:
    """sample_series of a history that holds the dst1 columns `modes`."""
    m = history.config.mesh.m_cells
    cell = min(int(x * m), m - 1)
    theta = x * m - cell
    nodal = np.zeros(m + 1)  # boundary nodes included
    nodal[cell:cell + 2] = 1.0 - theta, theta
    series = history.coefficients @ history._nodal(nodal[1:-1])[modes]
    series[0] = nodal[1:-1] @ history.initial
    return series


# dst1 columns of the odd sine modes k = 1, 3, 5, ... (column k - 1)
_ODD_MODES = slice(None, None, 2)


def _midpoint_series(config: SolverConfig, implicit: float,
                     memory: Optional[np.ndarray] = None,
                     first: int = 1) -> np.ndarray:
    """sample_series(run, 0.5) of the run that _march_meshes([config],
    implicit, memory, first) makes, marching only the odd modes (module
    doc).  The P1 weight of an even mode at 1/2 (node M/2 for even M,
    the mean of the two centre nodes for odd M) is exactly 0, so the
    modes are picked by parity: dst1 leaves the computed weights at
    rounding level, not 0 (2.2e-18 at M = 100).  The run is judged on
    its odd modes alone.
    """
    run = _march_meshes([config], implicit, memory, first, _ODD_MODES)[0]
    return _series(run, 0.5, _ODD_MODES)


def sample_solution(history: SolutionHistory, x: float, n: int) -> float:
    """Piecewise-linear value of snapshot n at position x in [0, 1]:
    entry n of sample_series(history, x)."""
    if not 0 <= n <= history.n_steps:
        raise ValidationError(
            f"snapshot index {n} outside 0..{history.n_steps}")
    return float(sample_series(history, x)[n])
