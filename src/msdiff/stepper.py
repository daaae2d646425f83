"""Backward-Euler time marching shared by the three models.

Every model here steps the P1 system

    [M/tau + c A] U_n = (M/tau) U_{n-1} - A sum_{k=first..n-1} w[n-k] U_k,

where M and A are the P1 mass and stiffness matrices, c the implicit
coefficient and w a lag-indexed memory vector.  The models differ only
in c, w and whether U_0 enters the sum (`first`):

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

    d_k u_n[k] = (lam^M_k/tau) u_{n-1}[k]
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
marcher takes the eigenvalues and start values of the modes of one or
more meshes on one time grid; `solve_ladder` marches the meshes of a
ladder that share N as one set.  Neither those arrays (`_mesh_modes`)
nor the exponent at the lags (`weights.exponent_factors`) depend on
tau, so a ladder computes each once and only the weights' closed form
in tau is per level.  A mesh is judged once, by row N,
which any non-finite value reaches (decay > 0 carries it on, and so do
the half-block products): it drops out alone, and SolverError, naming
a block of steps, comes once none is left.  A run stays in the sine
basis; `SolutionHistory` and the samplers transform back only what is
read.

One rule marches only the odd modes k = 1, 3, 5, ..., halving the
solves, the history product and the history memory: a march does so
when the nodal U_0 of every config is exactly symmetric about x = 1/2.
An even mode sin(k pi x) is odd about x = 1/2 on every uniform mesh, so
symmetric data starts it at zero, and modes never mix, so it stays
zero.  sin-pi and poly-x2-1mx2 data, which Tables 1-2 and the
transition figure use, is symmetric bit for bit on M = 2^k cells.  Its
history holds the odd columns only, and `SolutionHistory` fills in the
zeros when it transforms back.  Data that is not symmetric bit for bit
(the built-in data on most other M, most CSV tables) marches every mode.

The modes are picked by parity, never by testing coefficients for
zero: dst1 leaves an even coefficient of symmetric data at rounding
level.  A run that marched only its odd modes is judged on them alone.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import SolverError, ValidationError, require_integer
from .exponents import VariableExponent, validate_assumption_a
from .fem import Mesh1D, dst1, ritz_projection, sine_eigenvalues
from .weights import assemble_weights, closed_form_lags, exponent_factors


@dataclass
class SolverConfig:
    """One run of the homogeneous model: grid, horizon, exponent, data;
    initial(x) must vanish at the boundary and accept numpy arrays."""

    T: float
    n_steps: int
    mesh: Mesh1D
    exponent: VariableExponent
    initial: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        require_integer(self.n_steps, "n_steps")
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

    `coefficients` holds the dst1 columns `modes` of each row (column
    k - 1 is mode k); a mode that did not march, as no even mode of a
    symmetric run does (module doc), is zero and is not stored.
    `initial` is U_0, the exact Ritz projection.  `final` transforms one
    row back to nodal values; the first read of `snapshots` allocates an
    (N+1) x (M-1) array and keeps it.
    """

    config: SolverConfig
    coefficients: np.ndarray
    initial: np.ndarray
    modes: slice = field(default_factory=lambda: slice(None))

    @property
    def n_steps(self) -> int:
        return self.coefficients.shape[0] - 1

    def final(self) -> np.ndarray:
        return self._nodal(self.coefficients[-1:])[0]

    @cached_property
    def snapshots(self) -> np.ndarray:
        """Nodal U_0..U_N as rows, transformed B rows at a time."""
        nodal = np.empty((self.n_steps + 1, self.initial.size))
        nodal[0] = self.initial
        for lo in range(1, nodal.shape[0], _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            nodal[rows] = self._nodal(self.coefficients[rows])
        return nodal

    def _nodal(self, coefficients: np.ndarray) -> np.ndarray:
        """Nodal values of rows that hold the columns `modes`."""
        full = np.zeros((len(coefficients), self.initial.size))
        full[:, self.modes] = coefficients
        return dst1(full) * (2.0 / self.config.mesh.m_cells)


def solve(config: SolverConfig) -> SolutionHistory:
    """Run the scheme over n = 1..N starting from the projected data.

    Validates the exponent, assembles the lag vector of memory weights
    and marches with implicit coefficient 1 + lag[0] (see _march).
    Raises SolverError on a non-finite snapshot, naming its block of
    steps (or dst1(U_0)), or on a non-positive 1 + lag[0], the only
    step check; the README says why the sufficient
    1 + lag[0] >= sum_{j>=1} |lag[j]| is not enforced.
    """
    validate_assumption_a(config.exponent, config.T)
    lag = assemble_weights(config.n_steps, config.tau, config.exponent)
    return _march_meshes([config], 1.0 + lag[0], lag, 1)[0]


def solve_ladder(configs: list) -> list:
    """Final nodal values of each config of a ladder; None where it failed.

    The configs share T and exponent (else ValidationError).  What does
    not depend on the step count is done once per ladder: the exponent
    is validated once; its factors (weights.exponent_factors) are
    evaluated once per chain of step counts N = o 2^k that share the odd
    part o, on the lags of the chain's largest N, of which level N reads
    every (N_top / N)-th entry, exactly its own; and the modes of each
    distinct list of (mesh, initial) are set up once.  Each level's
    weights are checked as assemble_weights checks them alone.  The
    configs of one N march as one mode set and match
    solve(config).final() to rounding (bit for bit when N has one
    config), or give None, each alone, where solve raises SolverError.
    """
    for i, c in enumerate(configs):
        differ = [key for key in ("T", "exponent")
                  if getattr(c, key) != getattr(configs[0], key)]
        if differ:
            raise ValidationError(f"ladder config {i} differs from config 0 "
                                  f"in {', '.join(differ)}")
    T, exp = configs[0].T, configs[0].exponent
    validate_assumption_a(exp, T)
    steps = sorted({c.n_steps for c in configs})
    top = {n // (n & -n): n for n in steps}  # odd part -> largest N
    factors = {n: exponent_factors(T / n * np.arange(n), exp)
               for n in top.values()}
    setups, finals = {}, [None] * len(configs)
    for n_steps in steps:
        picked = [i for i, c in enumerate(configs) if c.n_steps == n_steps]
        group = [configs[i] for i in picked]
        finest = top[n_steps // (n_steps & -n_steps)]
        key = tuple((c.mesh, c.initial) for c in group)
        try:
            lag = closed_form_lags(group[0].tau, *(
                f[::finest // n_steps] for f in factors[finest]))
            if key not in setups:
                setups[key] = _mesh_modes(group)
            runs = _march_meshes(group, 1.0 + lag[0], lag, 1,
                                 setup=setups[key])
        except SolverError:
            continue
        for i, run in zip(picked, runs):
            finals[i] = None if run is None else run.final()
        del runs, run  # one history at a time: free it before the next
    return finals


# steps per block, B in the module doc; it also bounds the temporaries
# of `SolutionHistory.snapshots`.  The dense half-block inverses hold
# modes x (B/2)^2 floats: 0.13 MB at figure1's 64 odd modes, 0.5 MiB at
# Table 2's 252.  In an in-process sweep (best of 25 marches, all modes
# marched), B = 16 ran 7-40% slower than 32 on N = 128..2048 at M = 32
# and 128; B = 64 ran 14% faster to 6% slower there and 35-42% slower on
# Table 2's 498-mode ladder, whose traced peak it raised from 1.5 to 4.8
# MB (figure1: 1.7 to 2.8 MB), past the bounds of the tests.  One causal
# solve per 16-row block, or np.linalg.inv for the inverses, ran slower
# (ROADMAP item 7).
_BLOCK_ROWS = 32


def _march_meshes(configs: list, implicit: float,
                  memory: Optional[np.ndarray] = None, first: int = 1,
                  setup: Optional[tuple] = None):
    """SolutionHistory of each config, None where its run failed: the
    configs share tau and N and their modes march as one set (see
    _march for the other arguments), each judged by row N (module doc);
    SolverError names where the last failed: a block, or dst1(U_0).
    `setup` is _mesh_modes(configs), computed here if None;
    each history holds the columns that marched."""
    tau, N = configs[0].tau, configs[0].n_steps
    initial, modes, lam_mass, lam_stiff, start, edges = (
        _mesh_modes(configs) if setup is None else setup)
    history = _march(lam_mass, lam_stiff, start, tau, N, implicit, memory,
                     first)
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
    return [SolutionHistory(c, history[:, lo:hi], u, modes) if ok
            else None for c, u, lo, hi, ok in zip(configs, initial, edges,
                                                  edges[1:], alive)]


def _mesh_modes(configs: list) -> tuple:
    """What a march of the configs' modes needs that does not depend on
    tau or N: (initial, modes, lam_mass, lam_stiff, start, edges), the
    nodal U_0 of each config, the dst1 columns that march, their
    eigenvalues and dst1(U_0) values side by side, and the bounds of
    each config's columns.  Only the odd modes march if every nodal U_0
    is exactly symmetric (module doc)."""
    initial = [ritz_projection(c.mesh, c.initial) for c in configs]
    symmetric = all(np.array_equal(u, u[::-1]) for u in initial)
    modes = _ODD_MODES if symmetric else slice(None)
    lam_mass, lam_stiff = map(np.concatenate, zip(
        *(np.stack(sine_eigenvalues(c.mesh))[:, modes] for c in configs)))
    with np.errstate(over="ignore", invalid="ignore"):
        starts = [dst1(u0)[modes] for u0 in initial]
    edges = np.cumsum([0] + [u.size for u in starts])
    return (initial, modes, lam_mass, lam_stiff, np.concatenate(starts),
            edges)


def _march(lam_mass: np.ndarray, lam_stiff: np.ndarray, start: np.ndarray,
           tau: float, N: int, implicit: float,
           memory: Optional[np.ndarray] = None,
           first: int = 1) -> np.ndarray:
    """Step n = 1..N from start, B steps per block: mode k has
    eigenvalues lam_mass[k], lam_stiff[k] and start value dst1(U_0)[k].

    memory[j] multiplies U_{n-j}; it needs entries 0..N-first, and
    entry 0 is never read (its share sits in `implicit`, which must be
    positive, else SolverError).  A block of steps lo..hi-1 costs one
    GEMM with the earlier history and two half-block solves, each one
    batched product with the dense inverses, joined by one H x H GEMM
    with the lag matrix C (module doc).
    Returns the (N+1) x modes history, for the caller to judge.
    """
    if not implicit > 0.0:
        raise SolverError(f"implicit memory coefficient {implicit} <= 0 at "
                          f"tau = {tau}; refine the time step")
    denom = lam_mass / tau + implicit * lam_stiff
    decay = lam_mass / (tau * denom)
    # a product with 1/denom: "/ denom" would move the outputs' last bits
    gain = lam_stiff * (1.0 / denom)
    size, half = min(_BLOCK_ROWS, N), min(_BLOCK_ROWS // 2, N)
    history = np.empty((N + 1, start.size))
    history[0] = start

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
    symmetric), on the stored columns `history.modes` of dst1(U_n).
    """
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"sample position {x} outside [0, 1]")
    m = history.config.mesh.m_cells
    cell = min(int(x * m), m - 1)
    theta = x * m - cell
    nodal = np.zeros(m + 1)  # boundary nodes included
    nodal[cell:cell + 2] = 1.0 - theta, theta
    weights = dst1(nodal[1:-1])[history.modes] * (2.0 / m)
    series = history.coefficients @ weights
    series[0] = nodal[1:-1] @ history.initial
    return series


# dst1 columns of the odd sine modes k = 1, 3, 5, ... (column k - 1)
_ODD_MODES = slice(None, None, 2)


def sample_solution(history: SolutionHistory, x: float, n: int) -> float:
    """Piecewise-linear value of snapshot n at position x in [0, 1]:
    entry n of sample_series(history, x)."""
    require_integer(n, "snapshot index")
    if not 0 <= n <= history.n_steps:
        raise ValidationError(
            f"snapshot index {n} outside 0..{history.n_steps}")
    return float(sample_series(history, x)[n])
