import contextlib
import dataclasses
import math
import re
import tracemalloc
import unittest.mock
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import binom

from msdiff import harness, reference, stepper
from msdiff.cli import main
from msdiff.errors import SolverError, ValidationError
from msdiff.exponents import (VariableExponent, example_exponent_1,
                              example_exponent_2, exponent_by_name,
                              tabulated_exponent, zero_exponent)
from msdiff.fem import (Mesh1D, discrete_l2_norm, dst1, ritz_projection,
                        sine_eigenvalues)
from msdiff.harness import INITIAL_DATA
from msdiff.reference import (constant_subdiffusion_solve, cq_weights,
                               heat_solve, sin_pi)
from msdiff.stepper import (_BLOCK_ROWS, _ODD_MODES, SolverConfig, _march,
                            _march_meshes, sample_series, sample_solution,
                            solve, solve_ladder)
from msdiff.weights import assemble_weights

from conftest import u0_quartic, u0_sine
from oracles import (assemble_mass, assemble_stiffness, dense_from_tridiag,
                     dense_gauss_solve, dense_history, direct_march,
                     mp_lag_weights, mp_march, scalar_march)
from test_properties import spline_tables

B = _BLOCK_ROWS
H = B // 2  # rows of a half block


def test_config_validation(exp_zero):
    with pytest.raises(ValidationError):
        SolverConfig(T=0.0, n_steps=4, mesh=Mesh1D(4), exponent=exp_zero,
                     initial=u0_sine)
    with pytest.raises(ValidationError):
        SolverConfig(T=1.0, n_steps=0, mesh=Mesh1D(4), exponent=exp_zero,
                     initial=u0_sine)
    with pytest.raises(ValidationError, match="underflows"):
        SolverConfig(T=1e-310, n_steps=8, mesh=Mesh1D(4), exponent=exp_zero,
                     initial=u0_sine)
    cfg = SolverConfig(T=1.0, n_steps=8, mesh=Mesh1D(4), exponent=exp_zero,
                       initial=u0_sine)
    assert cfg.tau * cfg.n_steps == pytest.approx(1.0, abs=1e-15)


def _sized(value):
    """The five library entry points that take a size or an index."""
    exp = example_exponent_1(1.0)
    run = solve(SolverConfig(T=1.0, n_steps=8, mesh=Mesh1D(4), exponent=exp,
                             initial=u0_sine))
    return {"Mesh1D": lambda: Mesh1D(value),
            "SolverConfig": lambda: SolverConfig(
                T=1.0, n_steps=value, mesh=Mesh1D(4), exponent=exp,
                initial=u0_sine),
            "assemble_weights": lambda: assemble_weights(value, 0.125, exp),
            "cq_weights": lambda: cq_weights(0.4, value),
            "sample_solution": lambda: sample_solution(run, 0.5, value)}


# the name each entry point gives its argument, and the least it takes
_RANGES = {"Mesh1D": ("m_cells", 2), "SolverConfig": ("n_steps", 1),
           "assemble_weights": ("n_steps", 1), "cq_weights": ("count", 0),
           "sample_solution": ("snapshot index", 0)}


@pytest.mark.parametrize("name", sorted(_sized(8)))
def test_sizes_and_indices_must_be_integers(name):
    # unchecked, 8.5 cells make a mesh of 8 nodes at spacing 1/8.5 and
    # 16.5 steps make 17 lags: a non-integral size or index is refused,
    # not truncated, while numpy integers pass
    for bad in (8.5, 8.0, "8", None):
        with pytest.raises(ValidationError, match="must be an integer"):
            _sized(bad)[name]()
    _sized(np.int64(8))[name]()
    # one check refuses a value below the range, and snapshot N + 1 = 9,
    # naming the argument
    label, low = _RANGES[name]
    outside = [low - 1] + [9] * (name == "sample_solution")
    for bad in outside:
        with pytest.raises(ValidationError, match=f"^need {label} "):
            _sized(bad)[name]()
    # True is the integer 1: below a mesh's range, a valid size or index
    # elsewhere, and snapshot 1 (a bool index was a numpy mask)
    if name == "Mesh1D":
        with pytest.raises(ValidationError, match="^need m_cells >= 2, got 1$"):
            Mesh1D(True)
    elif name == "sample_solution":
        assert _sized(True)[name]() == _sized(1)[name]()
    else:
        _sized(True)[name]()


def test_scaled_data_scales_the_run(exp_ex1):
    # the model is linear: 1e4 sin(pi x), whose end value rounds to
    # 1.2e-12, is admissible and gives 1e4 times the run of sin(pi x)
    cfg = SolverConfig(T=1.0, n_steps=8, mesh=Mesh1D(8), exponent=exp_ex1,
                       initial=u0_sine)
    want = 1e4 * solve(cfg).final()
    got = solve(dataclasses.replace(cfg, initial=lambda x: 1e4 * u0_sine(x)))
    assert np.abs(got.final() - want).max() <= 1e-15 * np.abs(want).max()


def test_initial_snapshot_is_projection(exp_ex1):
    mesh = Mesh1D(8)
    cfg = SolverConfig(T=0.5, n_steps=4, mesh=mesh, exponent=exp_ex1,
                       initial=u0_sine)
    hist = solve(cfg)
    assert np.array_equal(hist.snapshots[0], u0_sine(mesh.interior_nodes()))
    assert hist.n_steps == 4
    assert np.all(np.isfinite(hist.snapshots))


def test_single_step_against_dense_oracle(exp_zero):
    # one backward-Euler step of the heat limit: (M/tau + A) U1 = M/tau U0
    mesh = Mesh1D(8)
    cfg = SolverConfig(T=0.1, n_steps=1, mesh=mesh, exponent=exp_zero,
                       initial=u0_sine)
    got = solve(cfg).final()
    mass = dense_from_tridiag(assemble_mass(mesh))
    stiff = dense_from_tridiag(assemble_stiffness(mesh))
    u0 = u0_sine(mesh.interior_nodes())
    want = dense_gauss_solve(mass / cfg.tau + stiff, mass @ u0 / cfg.tau)
    assert np.abs(got - want).max() < 1e-12


def test_fickian_degeneration_matches_heat_solver(exp_zero):
    # sin(pi x_j) is an eigenvector of both P1 matrices, so the exact
    # discrete heat solution is r^n sin(pi x_j) with
    # r = lam_M / (lam_M + tau lam_A), evaluated here in 40 digits
    for m_cells, n_steps in ((32, 64), (64, 128), (128, 64)):
        cfg = SolverConfig(T=1.0, n_steps=n_steps, mesh=Mesh1D(m_cells),
                           exponent=exp_zero, initial=u0_sine)
        with mpmath.workdps(40):
            h, tau = mpmath.mpf(1) / m_cells, mpmath.mpf(1) / n_steps
            lam_mass = h * (2 + mpmath.cospi(h)) / 3
            lam_stiff = 4 * mpmath.sinpi(h / 2) ** 2 / h
            r = lam_mass / (lam_mass + tau * lam_stiff)
            exact = np.array([[float(r ** n * mpmath.sinpi(j * h))
                               for j in range(1, m_cells)]
                              for n in range(n_steps + 1)])
        multi = solve(cfg)
        assert np.abs(multi.snapshots - exact).max() < 1e-14, (m_cells,
                                                               n_steps)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 12), M=st.integers(2, 8),
       alpha_bar=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(N=B + 1, M=3, alpha_bar=0.4)  # crosses a block edge
def test_marcher_matches_dense_oracles(N, M, alpha_bar):
    mesh = Mesh1D(M)
    tau = 1.0 / N
    # constant order: CQ weights (-1)^j binom(a, j), U_0 inside the sum
    scale = tau ** -alpha_bar
    got = constant_subdiffusion_solve(SolverConfig(
        T=1.0, n_steps=N, mesh=mesh, exponent=exponent_by_name("zero", 1.0),
        initial=u0_sine), alpha_bar)
    want = dense_history(
        mesh, tau, N, u0_sine, implicit=scale,
        weight=lambda n, k: scale * (-1) ** (n - k) * binom(alpha_bar, n - k))
    assert np.abs(got.snapshots - want).max() <= 1e-12
    # multiscale: b(n, k) = lag[n - k]
    for name in ("exp-example1", "exp-example2", "exp-figure1", "zero"):
        exp = exponent_by_name(name, 1.0, alpha_bar)
        got = solve(SolverConfig(T=1.0, n_steps=N, mesh=mesh, exponent=exp,
                                 initial=u0_sine))
        lag = assemble_weights(N, tau, exp)
        want = dense_history(
            mesh, tau, N, u0_sine, implicit=1.0 + lag[0],
            weight=lambda n, k: lag[n - k] if k else 0.0)
        assert np.abs(got.snapshots - want).max() <= 1e-12, name


def _assert_matches_direct(configs, implicit, memory=None, first=1):
    # the configs march as one mode set; each matches its own oracle
    runs = _march_meshes(configs, implicit, memory, first)
    for cfg, run in zip(configs, runs):
        want = direct_march(cfg, implicit, memory, first)
        assert np.abs(run.snapshots - want).max() \
            <= 1e-12 * np.abs(want).max(), cfg.mesh


@pytest.mark.parametrize("N", [1, H - 1, H, H + 1, B - 1, B, B + 1, B + H,
                               B + H + 1, 2 * B + 1, 2 * B + H + 1, 3 * B])
def test_blocked_marcher_matches_direct_oracle(N):
    # block and half-block edges at every position: a run shorter than
    # a half block, exactly one, a bottom half of a single step, one
    # short block, exactly one, one plus a single step, several, and
    # partial last blocks that end at or just past the half; for all
    # callers of the marcher (first 1 and 0) on a set of 4 + 159 modes,
    # more than figure1's 127
    tau = 1.0 / N
    for name in ("exp-example1", "exp-example2", "exp-figure1", "zero"):
        exp = exponent_by_name(name, 1.0, 0.4)
        configs = [SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(m),
                                exponent=exp, initial=u0_quartic)
                   for m in (5, 160)]
        lag = assemble_weights(N, tau, exp)
        _assert_matches_direct(configs, 1.0 + lag[0], lag)
    scale = tau ** -0.4
    _assert_matches_direct(configs, scale, scale * cq_weights(0.4, N), first=0)
    _assert_matches_direct(configs, 1.0)


def test_blocked_marcher_matches_direct_oracle_on_a_long_run(exp_ex1):
    cfg = SolverConfig(T=1.0, n_steps=4096, mesh=Mesh1D(16),
                       exponent=exp_ex1, initial=u0_sine)
    lag = assemble_weights(cfg.n_steps, cfg.tau, exp_ex1)
    _assert_matches_direct([cfg], 1.0 + lag[0], lag)


def _mp_scheme_gaps(N, M):
    # gap of each marcher's snapshots to the 40-digit scheme, relative
    # to max |U|: solve on the four built-in profiles, then heat and CQ
    tau, start = 1.0 / N, u0_quartic(Mesh1D(M).interior_nodes())
    runs = []
    for name in ("exp-example1", "exp-example2", "exp-figure1", "zero"):
        cfg = SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(M),
                           exponent=exponent_by_name(name, 1.0, 0.4),
                           initial=u0_quartic)
        lag = mp_lag_weights(tau, cfg.exponent, np.arange(N))
        with mpmath.workdps(40):
            implicit = 1 + mpmath.mpf(lag[0])
            want = mp_march(M, tau, N, start, implicit, lag)
        runs.append((solve(cfg), want))
    with mpmath.workdps(40):
        alpha, scale = mpmath.mpf(0.4), mpmath.mpf(tau) ** -mpmath.mpf(0.4)
        memory = [scale]
        for j in range(1, N + 1):
            memory.append(memory[-1] * (j - 1 - alpha) / j)
        heat = mp_march(M, tau, N, start, 1)
        cq = mp_march(M, tau, N, start, scale, memory, first=0)
    runs += [(heat_solve(cfg), heat),
             (constant_subdiffusion_solve(cfg, 0.4), cq)]
    return [np.abs(got.snapshots - want).max() / np.abs(want).max()
            for got, want in runs]


def test_marchers_match_the_40_digit_scheme():
    # the true rounding error of the three models: snapshots against
    # the whole scheme in 40 digits, sharing no transform, FFT, scaling
    # or blocking with the library; the worst gap measured is 4.6e-16
    gaps = [gap for N in (1, 31, 33, 64) for M in (2, 5, 9)
            for gap in _mp_scheme_gaps(N, M)]
    assert max(gaps) <= 4.6e-15


_SIGNED = st.floats(0.01, 1.0) | st.floats(-1.0, -0.01)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(N=st.sampled_from([31, 32, 33, 65]), first=st.sampled_from([0, 1]),
       modes=st.lists(st.tuples(st.floats(1e-4, 1.0), st.floats(1e-3, 1e4),
                                _SIGNED), min_size=1, max_size=6),
       name=st.sampled_from(["exp-example1", "exp-example2", "exp-figure1",
                             "zero"]),
       alpha=st.floats(0.05, 0.95))
def test_mode_set_marcher_matches_scalar_recurrence(N, first, modes, name,
                                                    alpha):
    # random scalar modes (lam_mass, lam_stiff > 0) without a mesh: the
    # multiscale lag (first = 1) or the CQ weights (first = 0), N on
    # both sides of the block edges B and 2B
    tau = 1.0 / N
    if first:
        memory = assemble_weights(N, tau, exponent_by_name(name, 1.0, alpha))
        implicit = 1.0 + memory[0]
    else:
        implicit = tau ** -alpha
        memory = implicit * cq_weights(alpha, N)
    args = (*map(np.array, zip(*modes)), tau, N, implicit, memory, first)
    got = _march(*args)
    want = scalar_march(*args)
    assert np.isfinite(got).all()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()



def _sine_1_and_63(x):
    x = np.asarray(x, float)
    return np.sin(math.pi * x) + np.sin(63.0 * math.pi * x)


def test_every_sine_coefficient_matches_the_scalar_recurrence(exp_ex1):
    # the modes of a run differ in size by up to 1e16: a block solve is
    # accurate entry by entry, not only relative to the block's largest
    # value, for heat and for the multiscale lag
    cfg = SolverConfig(T=1.0, n_steps=64, mesh=Mesh1D(64), exponent=exp_ex1,
                       initial=_sine_1_and_63)
    lam_mass, lam_stiff = sine_eigenvalues(cfg.mesh)
    start = dst1(ritz_projection(cfg.mesh, cfg.initial))
    lag = assemble_weights(cfg.n_steps, cfg.tau, exp_ex1)
    for run, args in ((heat_solve(cfg), (1.0,)),
                      (solve(cfg), (1.0 + lag[0], lag))):
        want = scalar_march(lam_mass, lam_stiff, start, cfg.tau,
                            cfg.n_steps, *args)
        assert np.all(np.abs(run.coefficients - want)
                      <= 1e-13 * np.abs(want))


_LADDERS = {  # (N, M) of each run: Tables 1-2's space ladders, a mixed one
    "table1-space": [(64, m) for m in (4, 8, 16, 32, 64, 128)],
    "table2-space": [(64, m) for m in (8, 16, 32, 64, 128, 256)],
    "mixed": [(32, 4), (64, 8), (32, 16), (B + 1, 2), (64, 3)],
}


@pytest.mark.parametrize("ladder", sorted(_LADDERS))
@pytest.mark.parametrize("name", ["exp-example1", "exp-example2",
                                  "exp-figure1", "zero"])
def test_ladder_finals_match_separate_solves(ladder, name):
    # the runs of one N march as one mode set; each final stays within
    # 1e-14 (relative, max norm) of its own solve
    exp = exponent_by_name(name, 1.0, 0.4)
    initial = u0_quartic if ladder == "table2-space" else u0_sine
    configs = [SolverConfig(T=1.0, n_steps=n, mesh=Mesh1D(m), exponent=exp,
                            initial=initial) for n, m in _LADDERS[ladder]]
    for cfg, got in zip(configs, solve_ladder(configs)):
        want = solve(cfg).final()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), cfg


def test_table2_space_ladder_peak_memory(exp_ex2):
    # Table 2's six meshes march as one set of 498 modes.  Traced peaks
    # measured: 1.54 MB with dense 16 x 16 inverses per mode (half-block
    # solve), 0.71 MB with a zero-copy Toeplitz view of each mode's
    # inverse column, 4.78 MB with dense 32 x 32 inverses (whole block);
    # 0.94 MB now that the symmetric data marches its 252 odd modes only
    configs = [SolverConfig(T=1.0, n_steps=64, mesh=Mesh1D(m),
                            exponent=exp_ex2, initial=u0_quartic)
               for _, m in _LADDERS["table2-space"]]
    tracemalloc.start()
    try:
        solve_ladder(configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak


def _mirrored(m_cells, seed):
    """Initial data whose nodal values on m_cells cells are a random
    vector mirrored about x = 1/2, zero at the ends."""
    half = np.random.default_rng(seed).standard_normal(m_cells // 2)
    values = np.concatenate((half, half[::-1][m_cells % 2 == 0:]))
    return lambda x: (values if np.size(x) == m_cells - 1
                      else np.zeros(np.shape(x)))


@contextlib.contextmanager
def _marched_sizes():
    """The number of modes of each march made inside the block."""
    sizes, march = [], stepper._march

    def spy(lam_mass, lam_stiff, start, *args):
        sizes.append(start.size)
        return march(lam_mass, lam_stiff, start, *args)

    with unittest.mock.patch.object(stepper, "_march", spy):
        yield sizes


_SYMMETRIC = {"poly-x2-1mx2": lambda m: INITIAL_DATA["poly-x2-1mx2"],
              "sin-pi": lambda m: sin_pi,
              "mirrored": lambda m: _mirrored(m, m)}


def _three_models(N):
    """(solver, implicit, memory, first) of each model at N steps on
    [0, 1]: multiscale (exp-example1), heat and constant-order CQ."""
    lag = assemble_weights(N, 1.0 / N, example_exponent_1(1.0))
    scale = (1.0 / N) ** -0.4
    return ((solve, 1.0 + lag[0], lag, 1), (heat_solve, 1.0, None, 1),
            (lambda c: constant_subdiffusion_solve(c, 0.4), scale,
             scale * cq_weights(0.4, N), 0))


@pytest.mark.parametrize("data", sorted(_SYMMETRIC))
@pytest.mark.parametrize("M", [2, 4, 16, 64, 100, 127])
@pytest.mark.parametrize("N", [1, B + H + 1, 3 * B])
def test_symmetric_data_marches_its_odd_modes(N, M, data):
    # an even mode is odd about x = 1/2, so exactly symmetric data gives
    # it a zero start and it stays zero: a run marches and stores the
    # ceil((M - 1) / 2) odd modes only and still matches the oracle that
    # steps every mode, for each model.  The mesh nodes are mirrored, so
    # the built-in data takes this path off powers of two too (M = 100,
    # 127)
    cfg = SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(M),
                       exponent=example_exponent_1(1.0),
                       initial=_SYMMETRIC[data](M))
    u0 = ritz_projection(cfg.mesh, cfg.initial)
    assert np.array_equal(u0, u0[::-1])
    for solver, implicit, memory, first in _three_models(N):
        with _marched_sizes() as sizes:
            run = solver(cfg)
        assert sizes == [M // 2]
        assert run.coefficients.shape == (N + 1, M // 2)
        assert run.modes == _ODD_MODES
        want = direct_march(cfg, implicit, memory, first)
        assert np.abs(run.snapshots - want).max() \
            <= 1e-12 * np.abs(want).max()
        assert np.array_equal(run.final(), run.snapshots[-1])
        _assert_samples_interpolate(run, 0.3)


def _symmetric_1_and_63(x):
    # sin(pi x) + sin(63 pi x), both symmetric about 1/2
    x = np.asarray(x, float)
    near = math.pi * np.minimum(x, 1.0 - x)
    return np.sin(near) + np.sin(63.0 * near)


def test_odd_coefficients_match_the_scalar_recurrence(exp_ex1):
    # the marched columns of a symmetric run, entry by entry, against
    # the odd modes stepped alone; the modes differ in size by up to 1e16
    cfg = SolverConfig(T=1.0, n_steps=64, mesh=Mesh1D(64), exponent=exp_ex1,
                       initial=_symmetric_1_and_63)
    lam_mass, lam_stiff = sine_eigenvalues(cfg.mesh)
    start = dst1(ritz_projection(cfg.mesh, cfg.initial))
    for solver, implicit, memory, first in _three_models(cfg.n_steps):
        want = scalar_march(lam_mass[::2], lam_stiff[::2], start[::2],
                            cfg.tau, cfg.n_steps, implicit, memory, first)
        run = solver(cfg)
        assert run.coefficients.shape == want.shape
        assert np.all(np.abs(run.coefficients - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("ladder", ["table1-space", "table2-space"])
@pytest.mark.parametrize("data", sorted(_SYMMETRIC))
def test_symmetric_ladder_finals_match_separate_solves(ladder, data):
    # every level of the ladder is symmetric, so the one march of the
    # ladder steps only odd modes, as each separate solve does
    exp = example_exponent_2(1.0)
    configs = [SolverConfig(T=1.0, n_steps=n, mesh=Mesh1D(m), exponent=exp,
                            initial=_SYMMETRIC[data](m))
               for n, m in _LADDERS[ladder]]
    with _marched_sizes() as sizes:
        finals = solve_ladder(configs)
    assert sizes == [sum(c.mesh.m_cells // 2 for c in configs)]
    for cfg, got in zip(configs, finals):
        want = solve(cfg).final()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), cfg


def _skewed(x):
    return x * (1.0 - x) ** 2


def test_asymmetric_data_marches_every_mode(exp_ex1):
    # data that is not mirrored bit for bit marches all M - 1 modes; so
    # does a ladder with one such level
    def config(initial, m=16):
        return SolverConfig(T=1.0, n_steps=B + 1, mesh=Mesh1D(m),
                            exponent=exp_ex1, initial=initial)

    nudged = _mirrored(16, 3)(np.zeros(15)).copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)  # one ulp off the mirror
    for cfg in (config(_skewed), config(u0_sine, m=12),
                config(lambda x: nudged if np.size(x) == 15
                       else np.zeros(np.shape(x)))):
        for solver, *_ in _three_models(cfg.n_steps):
            with _marched_sizes() as sizes:
                run = solver(cfg)
            assert sizes == [15 if cfg.mesh.m_cells == 16 else 11]
            assert run.coefficients.shape[1] == cfg.mesh.n_unknowns
    with _marched_sizes() as sizes:
        solve_ladder([config(sin_pi), config(_skewed, m=8)])
    assert sizes == [15 + 7]


def test_symmetric_run_fails_in_the_block_of_its_first_bad_row(exp_ex1):
    # each step multiplies the high odd modes by about 1e6: a symmetric
    # run, judged on the odd modes it marched, names the block in which
    # the march of every mode first overflows, for data scales whose
    # first bad rows fall in each of the three blocks
    N = 80
    memory = np.zeros(N + 1)
    memory[1] = -1e6
    blocks = set()
    mirrored = _mirrored(8, 5)
    for k in range(300, -150, -25):
        cfg = SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(8), exponent=exp_ex1,
                           initial=lambda x, s=10.0 ** k: s * mirrored(x))
        with np.errstate(over="ignore", invalid="ignore"):
            direct = direct_march(cfg, 1.0, memory)
        first_bad = np.flatnonzero(~np.isfinite(direct).all(axis=1))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with _marched_sizes() as sizes, \
                    pytest.raises(SolverError, match="non-finite") as err:
                _march_meshes([cfg], 1.0, memory)
        assert sizes == [4]
        assert _steps_named(err.value) == _block_of(first_bad, N), k
        blocks.add(_block_of(first_bad, N))
    assert len(blocks) == 3, blocks


def _huge(x):
    x = np.asarray(x, float)
    inside = (x > 1e-9) & (x < 1.0 - 1e-9)
    return np.where(inside, 1e307 * np.sin(math.pi * x), 0.0)


def _nan_inside(x):
    x = np.asarray(x, float)
    return np.where((x > 0.0) & (x < 1.0), np.nan, 0.0)


def _small(x):
    return 1e-6 * u0_quartic(x)


def test_one_bad_level_leaves_the_others_alone(exp_ex1):
    # levels marched as one set: data near the overflow threshold on one
    # mesh must cost the small data of the others no digits (modes never
    # mix; a scale shared by all would push them to subnormal numbers),
    # and a mesh whose values turn non-finite comes back None
    # by itself
    meshes = (4, 8, 16, 32, 64)
    for bad, initial in ((2, _huge), (2, _nan_inside), (0, _nan_inside),
                         (0, _huge)):
        configs = [SolverConfig(T=1.0, n_steps=2 * B + 3, mesh=Mesh1D(m),
                                exponent=exp_ex1,
                                initial=initial if i == bad else _small)
                   for i, m in enumerate(meshes)]
        finals = solve_ladder(configs)
        for i, (cfg, got) in enumerate(zip(configs, finals)):
            if i == bad and initial is _nan_inside:
                assert got is None
                with pytest.raises(SolverError, match="in steps 1\\.\\."):
                    solve(cfg)
                continue
            want = solve(cfg).final()
            assert np.all(np.isfinite(want))
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    # every level failed: None throughout, no exception
    configs = [SolverConfig(T=1.0, n_steps=B, mesh=Mesh1D(m),
                            exponent=exp_ex1, initial=_nan_inside)
               for m in meshes]
    assert solve_ladder(configs) == [None] * len(meshes)


def test_data_near_the_overflow_threshold_completes(exp_ex1):
    # data near the overflow threshold on a decaying run: the half-block
    # products, like the step-by-step sum, stay finite
    def huge(x):
        x = np.asarray(x, float)
        inside = (x > 1e-9) & (x < 1.0 - 1e-9)
        return np.where(inside, 1e307 * np.sin(math.pi * x), 0.0)

    cfg = SolverConfig(T=1.0, n_steps=200, mesh=Mesh1D(16),
                       exponent=exp_ex1, initial=huge)
    lag = assemble_weights(cfg.n_steps, cfg.tau, exp_ex1)
    assert np.all(np.isfinite(solve(cfg).snapshots))
    _assert_matches_direct([cfg], 1.0 + lag[0], lag)


def test_amplifying_memory_raises_solver_error_naming_steps(exp_ex1):
    # each step multiplies the high modes by about 1e6: the step-by-step
    # sum overflows at step 57, inside the block the error must name
    cfg = SolverConfig(T=1.0, n_steps=200, mesh=Mesh1D(8),
                       exponent=exp_ex1, initial=u0_sine)
    memory = np.zeros(cfg.n_steps + 1)
    memory[1] = -1e6
    with np.errstate(over="ignore", invalid="ignore"):
        direct = direct_march(cfg, 1.0, memory)
    first_bad = np.flatnonzero(~np.isfinite(direct).all(axis=1))[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="non-finite") as err:
            _march_meshes([cfg], 1.0, memory)
    lo, hi = re.search(r"in steps (\d+)\.\.(\d+)$", str(err.value)).groups()
    assert int(lo) <= first_bad <= int(hi)


def _block_of(n, N):
    """The steps lo..hi of the marcher's block that holds step n >= 1."""
    lo = 1 + (n - 1) // B * B
    return lo, min(lo + B - 1, N)


def _steps_named(err):
    return tuple(map(int, re.search(r"in steps (\d+)\.\.(\d+)$",
                                    str(err)).groups()))


def test_mid_run_failure_drops_only_its_level(exp_ex1):
    # an amplifying lag multiplies every step by about 1e4..1e6: data
    # near 1e300 overflows within a block or two, data near 1e-300 stays
    # finite to N = 40; the first level comes back None, the second as
    # its own run
    N = 40
    bad, good = (SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(m),
                              exponent=exp_ex1,
                              initial=lambda x, s=scale: s * u0_quartic(x))
                 for m, scale in ((8, 1e300), (16, 1e-300)))
    memory = np.zeros(N + 1)
    memory[1] = -1e6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _march_meshes([bad, good], 1.0, memory)
        want = _march_meshes([good], 1.0, memory)[0].snapshots
        with pytest.raises(SolverError, match="non-finite") as err:
            _march_meshes([bad], 1.0, memory)
    assert got[0] is None
    assert np.all(np.isfinite(want)) and np.abs(want[-1]).max() > 1e-200
    assert np.abs(got[1].snapshots - want).max() <= 1e-14 * np.abs(want).max()
    with np.errstate(over="ignore", invalid="ignore"):
        direct = direct_march(bad, 1.0, memory)
    first_bad = np.flatnonzero(~np.isfinite(direct).all(axis=1))[0]
    assert _steps_named(err.value) == _block_of(first_bad, N)


def test_failure_names_the_block_of_the_first_bad_row(exp_ex1):
    # the same amplifying lag over a sweep of data scales, so that the
    # step-by-step march first overflows on every row from 3 to 78, so
    # both sides of each block edge are covered whatever the block size
    N = 80
    memory = np.zeros(N + 1)
    memory[1] = -1e6
    rows = set()
    for k in range(300, -150, -5):
        cfg = SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(8), exponent=exp_ex1,
                           initial=lambda x, s=10.0 ** k: s * u0_quartic(x))
        with np.errstate(over="ignore", invalid="ignore"):
            direct = direct_march(cfg, 1.0, memory)
        first_bad = np.flatnonzero(~np.isfinite(direct).all(axis=1))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="non-finite") as err:
                _march_meshes([cfg], 1.0, memory)
        assert _steps_named(err.value) == _block_of(first_bad, N), k
        rows.add(int(first_bad))
    assert set(range(3, N - 1)) <= rows, sorted(rows)
    # heat flow (decay < 1) cannot overflow after its start: data whose
    # sine coefficients overflow names U_0, and data that is non-finite
    # at the nodes, bad from row 0, names the first block
    for initial, named in ((_sine_times(1e307), "sine coefficients of the "
                            "initial data overflow at M = 64"),
                           (_nan_inside, "non-finite solution values in "
                            rf"steps 1\.\.{B}$")):
        cfg = SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(64),
                           exponent=exp_ex1, initial=initial)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=named):
                heat_solve(cfg)
    # the multiscale weights of a step near where 1 + lag[0] turns
    # negative multiply the march by about 1e22 in 24 steps: one block,
    # named wherever in it the step-by-step march first overflows
    N, T = 24, 29.5
    exp = example_exponent_1(T)
    lag = assemble_weights(N, T / N, exp)
    rows = set()
    for k in range(300, 270, -1):
        cfg = SolverConfig(T=T, n_steps=N, mesh=Mesh1D(8), exponent=exp,
                           initial=lambda x, s=10.0 ** k: s * u0_quartic(x))
        with np.errstate(over="ignore", invalid="ignore"):
            direct = direct_march(cfg, 1.0 + lag[0], lag)
        bad = np.flatnonzero(~np.isfinite(direct).all(axis=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not bad.size:
                assert np.all(np.isfinite(solve(cfg).snapshots)), k
                continue
            with pytest.raises(SolverError, match="non-finite") as err:
                solve(cfg)
        assert _steps_named(err.value) == _block_of(bad[0], N) == (1, N), k
        rows.add(int(bad[0]))
    assert len(rows) >= 10, sorted(rows)



@pytest.mark.parametrize("scale", [1e-300, 1e-230, 1e-160])
def test_amplifying_memory_keeps_every_row_accurate(scale, exp_ex1):
    # each step multiplies the high modes by about 1e6, so a block's
    # last row dwarfs its first: every row must still match the
    # step-by-step march to rounding of its own size, and no row may
    # overflow before that march does
    N = 80
    memory = np.zeros(N + 1)
    memory[1] = -1e6
    cfg = SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(8), exponent=exp_ex1,
                       initial=lambda x: scale * u0_quartic(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _march_meshes([cfg], 1.0, memory)[0].snapshots
        want = direct_march(cfg, 1.0, memory)
    gaps = np.abs(got - want).max(axis=1)
    assert np.all(gaps <= 1e-13 * np.abs(want).max(axis=1))


@pytest.mark.parametrize("N", [B, B + H + 1, 3 * B])
def test_amplifying_lag_reaches_the_bottom_half_through_the_coupling(
        N, exp_zero):
    # one lag of H + 3 steps multiplies by about 1e6: no half block's
    # inverse holds it, so in the first block it reaches the bottom half
    # only through the coupling C[i, j] = w[H + i - j]; 159 modes, whose
    # bottom half it dominates, must match the step-by-step march row
    # by row
    memory = np.zeros(N + 1)
    memory[H + 3] = -1e6
    cfg = SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(160),
                       exponent=exp_zero, initial=u0_quartic)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _march_meshes([cfg], 1.0, memory)[0].snapshots
        want = direct_march(cfg, 1.0, memory)
    free = direct_march(cfg, 1.0)
    reached = slice(H + 4, B + 1)
    assert np.all(np.abs(want[reached]).max(axis=1)
                  > 1e3 * np.abs(free[reached]).max(axis=1))
    gaps = np.abs(got - want).max(axis=1)
    assert np.all(gaps <= 1e-13 * np.abs(want).max(axis=1))


@pytest.mark.parametrize("N", [1, 15, 16, 17, 33, 1025, 4096])
@pytest.mark.parametrize("initial", [_skewed, u0_quartic])
def test_heat_march_is_its_closed_form(N, initial):
    # heat flow has no memory: mode k is decay_k^n u_0[k], marched a
    # block at a time as one product with the block's decay powers; each
    # mode within 1e-13 of its own largest value
    cfg = SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(16),
                       exponent=zero_exponent(), initial=initial)
    run = heat_solve(cfg)
    lam_mass, lam_stiff = (lam[run.modes] for lam in
                           sine_eigenvalues(cfg.mesh))
    decay = lam_mass / (cfg.tau * (lam_mass / cfg.tau + lam_stiff))
    start = dst1(run.initial)[run.modes]
    want = decay ** np.arange(N + 1)[:, None] * start
    gaps = np.abs(run.coefficients - want).max(axis=0)
    assert np.all(gaps <= 1e-13 * np.abs(want).max(axis=0))


def test_heat_flow_calls_no_block_solve(exp_ex1):
    # heat flow marches every block as one product: no inverse is built
    # and no half block is solved; the memory marches solve every block,
    # the first of the multiscale march too, in two halves
    N = 5 * B + 3
    cfg = SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(16), exponent=exp_ex1,
                       initial=u0_quartic)
    calls, causal_solve = [], stepper._causal_solve
    inverse_toeplitz = stepper._inverse_toeplitz

    def solve_spy(inverse, rows):
        calls.append(len(rows))
        causal_solve(inverse, rows)

    def inverse_spy(decay, gain, lags):
        calls.append("inverse")
        return inverse_toeplitz(decay, gain, lags)

    runs = {"heat": (heat_solve, []),
            "multiscale": (solve, ["inverse"] + [H, H] * 5 + [3]),
            "constant-order": (lambda c: constant_subdiffusion_solve(c, 0.5),
                               ["inverse"] + [H, H] * 5 + [3])}
    with unittest.mock.patch.object(stepper, "_causal_solve", solve_spy), \
            unittest.mock.patch.object(stepper, "_inverse_toeplitz",
                                       inverse_spy):
        for name, (run, want) in runs.items():
            calls.clear()
            run(cfg)
            assert calls == want, name


_MESHES = (4, 8, 16)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(N=st.sampled_from([B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1]),
       powers=st.lists(st.integers(-300, 300), min_size=len(_MESHES),
                       max_size=len(_MESHES)))
def test_judging_row_n_agrees_with_a_full_scan(N, powers):
    # each step multiplies the high modes by about 1e6 and each level
    # starts from its own drawn scale 10^p of asymmetric data (all M - 1
    # modes march), so that it first overflows at its own step or not at
    # all: the levels judged by row N alone are those with a non-finite
    # value anywhere in the marched history, which are those whose
    # step-by-step march overflows, and with none left the error names
    # the block of the first row at which every level is non-finite
    memory = np.zeros(N + 1)
    memory[1] = -1e6
    exp = example_exponent_1(1.0)
    configs = [SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(m), exponent=exp,
                            initial=lambda x, s=10.0 ** p: s * _skewed(x))
               for m, p in zip(_MESHES, powers)]
    march, seen = stepper._march, []

    def spy(*args):  # keeps the history that _march_meshes judged
        seen.append(march(*args))
        return seen[-1]

    edges = np.cumsum([0] + [m - 1 for m in _MESHES])
    with unittest.mock.patch.object(stepper, "_march", spy):
        try:
            runs = _march_meshes(configs, 1.0, memory)
        except SolverError as err:
            runs, named = None, err
    finite = np.isfinite(seen[0])
    failed = [not finite[:, lo:hi].all() for lo, hi in zip(edges, edges[1:])]
    with np.errstate(over="ignore", invalid="ignore"):
        assert failed == [not np.isfinite(direct_march(c, 1.0, memory)).all()
                          for c in configs]
    if runs is not None:
        assert [run is None for run in runs] == failed
        return
    assert all(failed)
    dead = np.logical_and.reduce([~finite[:, lo:hi].all(axis=1)
                                  for lo, hi in zip(edges, edges[1:])])
    first = int(np.flatnonzero(dead)[0])
    assert _steps_named(named) == _block_of(first, N)


def _sine_times(scale):
    def initial(x):
        x = np.asarray(x, float)
        inside = (x > 1e-9) & (x < 1.0 - 1e-9)
        return np.where(inside, scale * np.sin(math.pi * x), 0.0)
    return initial


def test_sine_coefficients_near_the_overflow_threshold(exp_ex1):
    # 1e307 sin(pi x): its largest sine coefficient is 1e307 M/2, which
    # fits in a double at M = 32 (1.6e308) and not at M = 64; the first
    # must run like 1e307 times the unit run, the second must be called
    # an initial-data failure, both alone and beside another mesh
    def config(m, scale=1e307):
        return SolverConfig(T=1.0, n_steps=40, mesh=Mesh1D(m),
                            exponent=exp_ex1, initial=_sine_times(scale))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = solve(config(32, 1.0)).final()
        got = solve(config(32)).final()
        with pytest.raises(SolverError, match="sine coefficients of the "
                           "initial data overflow at M = 64"):
            solve(config(64))
        ladder = solve_ladder([config(32), config(64)])
    assert np.abs(got - 1e307 * unit).max() <= 1e-15 * np.abs(got).max()
    assert ladder[1] is None
    assert np.abs(ladder[0] - got).max() <= 1e-15 * np.abs(got).max()


@pytest.mark.parametrize("steps, meshes", [
    ([4] * 9, [4 * 2 ** k for k in range(9)]),
    ([32, 32, 16, 64], [64, 128, 8, 8]),
    ([8 * 2 ** k for k in range(8)], [256] * 8),
], ids=["space", "mixed", "time"])
def test_a_ladder_larger_than_memory_is_refused_before_it_allocates(
        exp_ex1, monkeypatch, steps, meshes):
    # _march_bytes counts low: on symmetric data, which marches its odd
    # modes only, it stays below the traced peak of the ladder (and above
    # half of it), so a ladder that fits runs; a machine one byte smaller
    # than the count is refused before any mesh is set up, and a ladder
    # runs where os.sysconf cannot tell
    ladder = [SolverConfig(T=1.0, n_steps=n, mesh=Mesh1D(m),
                           exponent=exp_ex1, initial=INITIAL_DATA["sin-pi"])
              for n, m in zip(steps, meshes)]
    need = max(stepper._march_bytes(n, [Mesh1D(m) for k, m in
                                        zip(steps, meshes) if k == n])
               for n in steps)
    solve_ladder(ladder[:1])
    tracemalloc.start()
    try:
        solve_ladder(ladder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 < need <= peak, (need, peak)

    def no_setup(configs):
        raise AssertionError("a mesh was set up")

    monkeypatch.setattr(stepper, "_physical_bytes", lambda: need - 1)
    with unittest.mock.patch.object(stepper, "_mesh_modes", no_setup), \
            pytest.raises(SolverError, match=re.escape(
                f"needs at least {need:.3g} bytes, more than the ")):
        solve_ladder(ladder)
    for memory in (need, None):
        monkeypatch.setattr(stepper, "_physical_bytes", lambda: memory)
        assert all(final is not None for final in solve_ladder(ladder))
    monkeypatch.undo()
    assert stepper._physical_bytes() > need
    with unittest.mock.patch.object(stepper.os, "sysconf",
                                    side_effect=ValueError):
        assert stepper._physical_bytes() is None


def _never(*args):
    raise AssertionError("allocated before it was sized")


@pytest.mark.parametrize("name", ["multiscale", "constant-order"])
@pytest.mark.parametrize("steps, cells", [(1, 2), (40, 8), (300, 64)])
def test_a_march_larger_than_memory_is_refused_before_it_allocates(
        exp_ex1, monkeypatch, name, steps, cells):
    # solve and constant_subdiffusion_solve count their march as
    # solve_ladder does: at or below the traced peak of one run on
    # symmetric data, so a march that fits runs; a machine one byte
    # smaller is refused before the weights or the modes are built, and
    # a march runs where os.sysconf cannot tell
    run = {"multiscale": solve,
           "constant-order": lambda c: constant_subdiffusion_solve(c, 0.5)}
    cfg = SolverConfig(T=1.0, n_steps=steps, mesh=Mesh1D(cells),
                       exponent=exp_ex1, initial=INITIAL_DATA["sin-pi"])
    need = stepper._march_bytes(steps, [cfg.mesh])
    run[name](cfg)
    tracemalloc.start()
    try:
        run[name](cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need <= peak, (need, peak)

    monkeypatch.setattr(stepper, "_physical_bytes", lambda: need - 1)
    with unittest.mock.patch.object(stepper, "assemble_weights", _never), \
            unittest.mock.patch.object(reference, "cq_weights", _never), \
            unittest.mock.patch.object(stepper, "_mesh_modes", _never), \
            pytest.raises(SolverError, match=re.escape(
                f"the march needs at least {need:.3g} bytes, more than the ")):
        run[name](cfg)
    for memory in (need, None):
        monkeypatch.setattr(stepper, "_physical_bytes", lambda: memory)
        assert np.isfinite(run[name](cfg).final()).all()


@pytest.mark.parametrize("argv", [
    ["solve", "--N", "300", "--M", "64"],
    ["figure1", "--N", "300", "--M", "64"],
    ["weights-dump", "--N", "300"],
    ["weights-dump", "--N", "300", "--exponent", "zero"],
], ids=["solve", "figure1", "weights-dump", "weights-dump-zero"])
def test_a_run_larger_than_memory_exits_3_before_it_allocates(
        tmp_path, capsys, monkeypatch, argv):
    # msd counts a march by _march_bytes (figure1 sizes its first,
    # multiscale run) and the weights table as two copies of its text
    # with one character per weight (the zero exponent prints every
    # weight as 0, the shortest table text), each at or below the traced
    # peak of the run; one byte less memory exits 3, naming physical
    # memory, before any weights or modes are built or any row is
    # formatted, and nothing is written
    out = tmp_path / "out.csv"
    if argv[0] == "weights-dump":
        # D digits in 1..300, each printed 301 times as n or k, and four
        # characters a row: three separators and one of b
        width = len("300")
        digits = 301 * width - (10 ** width - 1) // 9
        need = 2 * (301 * digits + 4 * (300 * 301 // 2))
    else:
        need = stepper._march_bytes(300, [Mesh1D(64)])
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need <= peak, (need, peak)
    out.unlink()

    monkeypatch.setattr(stepper, "_physical_bytes", lambda: need - 1)
    with unittest.mock.patch.object(stepper, "assemble_weights", _never), \
            unittest.mock.patch.object(harness, "assemble_weights", _never), \
            unittest.mock.patch.object(stepper, "_mesh_modes", _never), \
            unittest.mock.patch.object(harness, "_csv", _never):
        assert main(argv + ["--out", str(out)]) == 3
    assert re.fullmatch(r"msd: solver failure: .* needs at least "
                        + re.escape(f"{need:.3g} bytes, more than the ")
                        + r".* bytes of physical memory\n",
                        capsys.readouterr().err)
    assert not out.exists()
    for memory in (need, None):
        monkeypatch.setattr(stepper, "_physical_bytes", lambda: memory)
        assert main(argv + ["--out", str(out)]) == 0
        assert out.stat().st_size > 0
        out.unlink()


def test_ladder_refuses_configs_it_would_solve_wrongly(exp_ex1, exp_ex2):
    # a ladder marches each N with the first config's T and exponent; a
    # config that differs in either is refused by name
    def config(m, **kw):
        return SolverConfig(**{"T": 1.0, "n_steps": 16, "mesh": Mesh1D(m),
                               "exponent": exp_ex1, "initial": u0_sine,
                               **kw})

    same = [config(4), config(8)]
    assert len(solve_ladder(same)) == 2
    exp_ex1_t2 = example_exponent_1(2.0)
    for odd, name in ((config(8, T=2.0, exponent=exp_ex1_t2), "T, exponent"),
                      (config(8, exponent=exp_ex2), "exponent")):
        with pytest.raises(ValidationError,
                           match=f"ladder config 2 differs from config 0 "
                                 f"in {name}$"):
            solve_ladder(same + [odd])


def test_an_empty_ladder_has_no_finals():
    # configs[0] raised IndexError
    assert solve_ladder([]) == []


@pytest.mark.parametrize("run", [solve, heat_solve,
                                 lambda cfg: solve_ladder([cfg])],
                         ids=["solve", "heat_solve", "solve_ladder"])
def test_initial_data_of_the_wrong_shape_is_refused(exp_ex1, run):
    # a scalar ended in IndexError and a wrong length in numpy's
    # ValueError; both are refused by the shape they gave
    for u0, shape in ((lambda x: 0.0, r"\(\)"),
                      (lambda x: np.zeros(3), r"\(3,\)")):
        cfg = SolverConfig(T=1.0, n_steps=8, mesh=Mesh1D(8), exponent=exp_ex1,
                           initial=u0)
        with pytest.raises(ValidationError,
                           match=f"^initial data gave shape {shape} at the "
                                 r"nodes, need \(7,\)$"):
            run(cfg)


_CHAINS = {  # step counts of a ladder: two odd-part chains, and a mix
    "64..2048": [64 * 2 ** k for k in range(6)],
    "6..48": [6, 12, 24, 48],
    "mixed": [10, 12, 20, 24],
}


def _ladder_lags(exp, T, steps):
    """{N: the memory vector solve_ladder marches N steps with}; the
    exponent is not validated and nothing marches."""
    lags = {}

    def spy(group, implicit, memory, first, **kwargs):
        assert implicit == 1.0 + memory[0] and first == 1
        lags[group[0].n_steps] = memory
        return [None] * len(group)

    configs = [SolverConfig(T=T, n_steps=n, mesh=Mesh1D(4), exponent=exp,
                            initial=u0_sine) for n in steps]
    with unittest.mock.patch.object(stepper, "validate_assumption_a",
                                    lambda *args: None), \
            unittest.mock.patch.object(stepper, "_march_meshes", spy):
        solve_ladder(configs)
    return lags


def _assert_ladder_lags_are_exact(exp, T):
    # a ladder evaluates the exponent once per odd-part chain, on the
    # finest grid; every level's lags must still be its own, bit for bit
    for steps in _CHAINS.values():
        lags = _ladder_lags(exp, T, steps)
        for n in steps:
            try:
                want = assemble_weights(n, T / n, exp)
            except SolverError:
                assert n not in lags
                continue
            assert np.array_equal(lags[n], want), (T, n)


@pytest.mark.parametrize("T", [1.0, 0.7, 3.0])
@pytest.mark.parametrize("name", ["exp-example1", "exp-example2",
                                  "exp-figure1"])
def test_ladder_lags_equal_each_level_alone(name, T):
    _assert_ladder_lags_are_exact(exponent_by_name(name, T, 0.4), T)


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(table=spline_tables())
def test_ladder_lags_equal_each_level_alone_on_splines(table):
    times, values = table
    exp = tabulated_exponent(3.0 * times / times[-1], values)  # on [0, 3]
    for T in (1.0, 0.7, 3.0):
        _assert_ladder_lags_are_exact(exp, T)


_TIME_LADDERS = {  # exponent, T, u0, M and step counts of a time study
    "table1-time": ("exp-example1", 1.0, "sin-pi", 32,
                    [64 * 2 ** k for k in range(6)]),
    "table2-time": ("exp-example2", 1.0, "poly-x2-1mx2", 32,
                    [64 * 2 ** k for k in range(6)]),
    "ex1-T0.7": ("exp-example1", 0.7, "sin-pi", 12,
                 [48 * 2 ** k for k in range(5)]),
    "figure1-T3": ("exp-figure1", 3.0, "sin-pi", 7,
                   [5 * 2 ** k for k in range(7)]),
}


@pytest.mark.parametrize("ladder", sorted(_TIME_LADDERS))
def test_time_ladder_finals_equal_separate_solves(ladder):
    # one config per N: its march is the one solve makes, so the ladder's
    # final values are solve's bit for bit
    name, T, u0, m, steps = _TIME_LADDERS[ladder]
    exp = exponent_by_name(name, T, 0.4)
    configs = [SolverConfig(T=T, n_steps=n, mesh=Mesh1D(m), exponent=exp,
                            initial=INITIAL_DATA[u0]) for n in steps]
    for cfg, got in zip(configs, solve_ladder(configs)):
        assert np.array_equal(got, solve(cfg).final()), cfg.n_steps


def test_each_ladder_level_fails_as_it_would_alone():
    # alpha = 1 only at the lag 3/16, which only the 16-step level reads:
    # the ladder evaluates the exponent on that level's grid, but the
    # coarser levels must weigh and march as they would alone, and the
    # 16-step level must fail with the words of its own assemble_weights
    def alpha(t):
        t = np.asarray(t, float)
        return np.where(t == 3.0 / 16.0, 1.0, 0.5 * t)

    probe = VariableExponent(
        name="probe", alpha=alpha,
        alpha_d1=lambda t: 0.5 + 0.0 * np.asarray(t, float),
        alpha_d2=lambda t: 0.0 * np.asarray(t, float),
        alpha_star=0.5, deriv_bound=1.0)
    configs = [SolverConfig(T=1.0, n_steps=n, mesh=Mesh1D(8), exponent=probe,
                            initial=u0_sine) for n in (4, 8, 16)]
    with pytest.raises(SolverError) as alone:
        assemble_weights(16, 1.0 / 16, probe)
    seen, closed_form = {}, stepper.closed_form_lags

    def spy(tau, *factors):
        try:
            seen[factors[0].size] = closed_form(tau, *factors)
        except SolverError as err:
            seen[factors[0].size] = str(err)
            raise
        return seen[factors[0].size]

    with unittest.mock.patch.object(stepper, "validate_assumption_a",
                                    lambda *args: None), \
            unittest.mock.patch.object(stepper, "closed_form_lags", spy):
        finals = solve_ladder(configs)
        wants = [solve(cfg).final() for cfg in configs[:2]]
    for n in (4, 8):
        assert np.array_equal(seen[n], assemble_weights(n, 1.0 / n, probe))
    assert seen[16] == str(alone.value)
    assert "at lag 3 " in seen[16]
    assert finals[2] is None
    for got, want in zip(finals, wants):
        assert np.array_equal(got, want)


def test_exact_heat_benchmark_temporal_rate(exp_zero):
    # e^{-pi^2 t} sin(pi x); fixed fine mesh so the tau error dominates
    mesh = Mesh1D(256)
    errs = []
    for N in (64, 128, 256):
        cfg = SolverConfig(T=0.5, n_steps=N, mesh=mesh, exponent=exp_zero,
                           initial=u0_sine)
        got = solve(cfg).final()
        exact = math.exp(-math.pi ** 2 * 0.5) * u0_sine(mesh.interior_nodes())
        errs.append(discrete_l2_norm(got - exact, mesh.h))
    slope = np.polyfit(np.log([64, 128, 256]), np.log(errs), 1)[0]
    assert -slope == pytest.approx(1.0, abs=0.1)


def test_exact_heat_benchmark_spatial_rate(exp_zero):
    # fixed fine time step so the h^2 error dominates
    errs = []
    for m_cells in (4, 8, 16):
        mesh = Mesh1D(m_cells)
        cfg = SolverConfig(T=0.05, n_steps=2048, mesh=mesh, exponent=exp_zero,
                           initial=u0_sine)
        got = solve(cfg).final()
        exact = math.exp(-math.pi ** 2 * 0.05) * u0_sine(mesh.interior_nodes())
        errs.append(discrete_l2_norm(got - exact, mesh.h))
    slope = np.polyfit(np.log([4, 8, 16]), np.log(errs), 1)[0]
    assert -slope == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("builder,u0", [(example_exponent_1, u0_sine),
                                        (example_exponent_2, u0_quartic)])
def test_self_convergence_is_monotone(builder, u0):
    finals = {}
    for N in (32, 64, 128, 256):
        cfg = SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(16),
                           exponent=builder(1.0), initial=u0)
        finals[N] = solve(cfg).final()
    errs = [discrete_l2_norm(finals[N] - finals[2 * N], 1.0 / 16.0)
            for N in (32, 64, 128)]
    assert errs[0] > errs[1] > errs[2]


def test_solution_stays_bounded_by_initial_data(exp_ex1):
    # decay: max_n ||U_n|| / ||U_0|| must not grow as N refines
    ratios = []
    for N in (128, 256, 512, 1024, 2048):
        cfg = SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(32),
                           exponent=example_exponent_1(1.0), initial=u0_sine)
        hist = solve(cfg)
        norms = np.sqrt(np.sum(hist.snapshots ** 2, axis=1))
        ratios.append(norms.max() / norms[0])
    assert max(ratios) <= 1.0 + 1e-12
    assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(ratios, ratios[1:]))


def test_stepping_matrix_solvable_across_parameters(exp_ex1, exp_ex2,
                                                    exp_fig1):
    # positivity of the implicit memory coefficient for tau <= 1/4
    for exp, T in ((exp_ex1, 1.0), (exp_ex2, 1.0), (exp_fig1, 8.0)):
        for N in (max(4, int(T * 4)), 64):
            for m_cells in (4, 32):
                cfg = SolverConfig(T=T, n_steps=N, mesh=Mesh1D(m_cells),
                                   exponent=exp, initial=u0_sine)
                assert 1.0 + assemble_weights(N, cfg.tau, exp)[0] > 0.0
                hist = solve(cfg)
                assert np.all(np.isfinite(hist.snapshots))


def test_sample_solution_interpolates(exp_zero):
    mesh = Mesh1D(8)
    cfg = SolverConfig(T=0.5, n_steps=4, mesh=mesh, exponent=exp_zero,
                       initial=u0_sine)
    hist = solve(cfg)
    assert sample_solution(hist, 0.0, 2) == 0.0
    assert sample_solution(hist, 1.0, 2) == 0.0
    x3 = mesh.interior_nodes()[2]
    assert sample_solution(hist, x3, 3) == pytest.approx(
        hist.snapshots[3][2], abs=1e-15)
    # midway between nodes: the mean of the neighbours
    mid = 0.5 * (mesh.interior_nodes()[2] + mesh.interior_nodes()[3])
    assert sample_solution(hist, mid, 3) == pytest.approx(
        0.5 * (hist.snapshots[3][2] + hist.snapshots[3][3]), rel=1e-12)
    with pytest.raises(ValidationError):
        sample_solution(hist, -0.1, 2)
    with pytest.raises(ValidationError):
        sample_solution(hist, 0.5, 5)


@pytest.mark.parametrize("N", [1, B - 1, B, B + 1, 3 * B])
def test_final_and_first_snapshot_need_no_full_back_transform(N, exp_ex1):
    # a run is kept in the sine basis; final() transforms one row and
    # must give the bits that the full back-transform gives
    for mesh in (Mesh1D(2), Mesh1D(33), Mesh1D(128)):
        cfg = SolverConfig(T=1.0, n_steps=N, mesh=mesh, exponent=exp_ex1,
                           initial=u0_quartic)
        for hist in (solve(cfg), heat_solve(cfg),
                     constant_subdiffusion_solve(cfg, 0.4)):
            assert np.array_equal(hist.final(), hist.snapshots[-1])
            assert np.array_equal(hist.snapshots[0],
                                  u0_quartic(mesh.interior_nodes()))
            assert hist.snapshots.shape == (N + 1, mesh.n_unknowns)


def _assert_samples_interpolate(hist, x):
    # reference: P1 interpolation of the nodal snapshots, boundary zeros
    m_cells = hist.config.mesh.m_cells
    nodes = np.linspace(0.0, 1.0, m_cells + 1)
    padded = np.pad(hist.snapshots, ((0, 0), (1, 1)))
    want = np.array([np.interp(x, nodes, row) for row in padded])
    bound = 1e-14 * np.abs(hist.snapshots).max()
    assert np.abs(sample_series(hist, x) - want).max() <= bound, x
    for n in range(hist.n_steps + 1):
        assert abs(sample_solution(hist, x, n) - want[n]) <= bound, (x, n)


def test_sampling_matches_interpolated_snapshots(exp_ex1):
    for m_cells in (2, 3, 8, 33, 64):
        cfg = SolverConfig(T=1.0, n_steps=B + 1, mesh=Mesh1D(m_cells),
                           exponent=exp_ex1, initial=u0_quartic)
        hist = solve(cfg)
        nodes = np.linspace(0.0, 1.0, m_cells + 1)
        for x in np.concatenate((nodes, 0.5 * (nodes[1:] + nodes[:-1]))):
            _assert_samples_interpolate(hist, float(x))
        if m_cells % 8 == 0:  # exact nodes: U_0 is read as nodal values
            got = [sample_series(hist, x)[0] for x in nodes]
            assert np.array_equal(got, np.pad(hist.initial, 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(x=st.floats(0.0, 1.0), M=st.integers(2, 40),
       N=st.sampled_from([1, B + 1]))
def test_sampling_matches_interpolated_snapshots_at_drawn_points(x, M, N):
    cfg = SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(M),
                       exponent=example_exponent_1(1.0), initial=u0_sine)
    _assert_samples_interpolate(constant_subdiffusion_solve(cfg, 0.4), x)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(x=st.floats(-0.25, 1.25), n=st.integers(-2, B + 3),
       M=st.integers(2, 40))
def test_sample_solution_is_an_entry_of_sample_series(x, n, M):
    # one sampler: a single value is entry n of the series at x, and a
    # position or index out of range is invalid input
    hist = solve(SolverConfig(T=1.0, n_steps=B + 1, mesh=Mesh1D(M),
                              exponent=example_exponent_1(1.0),
                              initial=u0_quartic))
    if 0.0 <= x <= 1.0 and 0 <= n <= B + 1:
        assert sample_solution(hist, x, n) == sample_series(hist, x)[n]
    else:
        with pytest.raises(ValidationError):
            sample_solution(hist, x, n)


def test_studies_never_transform_a_whole_history(tmp_path, monkeypatch):
    # the tables read final snapshots and figure1 one point per step:
    # no run may transform more than one row back to nodal values
    rows, original = [], stepper.dst1

    def counting_dst1(values):
        rows.append(np.atleast_2d(values).shape[0])
        return original(values)

    monkeypatch.setattr(stepper, "dst1", counting_dst1)
    out = str(tmp_path / "out.csv")
    assert main(["convergence-time", "--N", "32", "--M", "8",
                 "--levels", "2", "--out", out]) == 0
    assert main(["convergence-space", "--N", "32", "--M", "8",
                 "--levels", "2", "--out", out]) == 0
    assert main(["figure1", "--N", "64", "--M", "16", "--T", "8.0",
                 "--out", out]) == 0
    assert rows and max(rows) == 1
