import dataclasses
import math
import re
import unittest.mock
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import binom

from msdiff import stepper
from msdiff.cli import main
from msdiff.errors import SolverError, ValidationError
from msdiff.exponents import (example_exponent_1, example_exponent_2,
                              exponent_by_name)
from msdiff.fem import (Mesh1D, assemble_mass, assemble_stiffness,
                        discrete_l2_norm, dst1, ritz_projection,
                        sine_eigenvalues)
from msdiff.reference import (constant_subdiffusion_solve, cq_weights,
                               heat_solve)
from msdiff.stepper import (_BLOCK_ROWS, ModeSet, SolverConfig, _march,
                            _march_meshes, sample_series, sample_solution,
                            solve, solve_ladder)
from msdiff.weights import assemble_weights

from conftest import u0_quartic, u0_sine
from oracles import (dense_from_tridiag, dense_gauss_solve, dense_history,
                     direct_march, mp_lag_weights, mp_march, scalar_march)

B = _BLOCK_ROWS


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


def _assert_matches_direct(cfg, implicit, memory=None, first=1):
    got = _march_meshes([cfg], implicit, memory, first)[0].snapshots
    want = direct_march(cfg, implicit, memory, first)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _source(x, t):
    return (1.0 + 3.0 * t) * np.cos(3.0 * np.asarray(x, float)) + x


@pytest.mark.parametrize("N", [1, B - 1, B, B + 1, 2 * B + 1,
                               2 * B + B // 2 + 1, 3 * B])
def test_blocked_marcher_matches_direct_oracle(N):
    # block edges at every position: one short block, exactly one, one
    # plus a single step, several, and a partial last block that takes
    # only the top B/2 + 1 rows of the strip, for all callers of the
    # marcher
    mesh, tau = Mesh1D(5), 1.0 / N
    for name in ("exp-example1", "exp-example2", "exp-figure1", "zero"):
        exp = exponent_by_name(name, 1.0, 0.4)
        cfg = SolverConfig(T=1.0, n_steps=N, mesh=mesh, exponent=exp,
                           initial=u0_quartic)
        lag = assemble_weights(N, tau, exp)
        _assert_matches_direct(cfg, 1.0 + lag[0], lag)
    scale = tau ** -0.4
    _assert_matches_direct(cfg, scale, scale * cq_weights(0.4, N), first=0)
    _assert_matches_direct(cfg, 1.0)
    _assert_matches_direct(dataclasses.replace(cfg, source=_source),
                           1.0 + lag[0], lag)


def test_blocked_marcher_matches_direct_oracle_on_a_long_run(exp_ex1):
    cfg = SolverConfig(T=1.0, n_steps=4096, mesh=Mesh1D(16),
                       exponent=exp_ex1, initial=u0_sine)
    lag = assemble_weights(cfg.n_steps, cfg.tau, exp_ex1)
    _assert_matches_direct(cfg, 1.0 + lag[0], lag)


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
            want = mp_march(M, tau, N, start, 1 + mpmath.mpf(lag[0]), lag)
        runs.append((solve(cfg), want))
    runs.append((heat_solve(cfg), mp_march(M, tau, N, start, 1)))
    with mpmath.workdps(40):
        alpha, scale = mpmath.mpf(0.4), mpmath.mpf(tau) ** -mpmath.mpf(0.4)
        memory = [scale]
        for j in range(1, N + 1):
            memory.append(memory[-1] * (j - 1 - alpha) / j)
        want = mp_march(M, tau, N, start, scale, memory, first=0)
    runs.append((constant_subdiffusion_solve(cfg, 0.4), want))
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
    lam_mass, lam_stiff, start = map(np.array, zip(*modes))
    got = _march(ModeSet(tau, N, lam_mass, lam_stiff, start), implicit,
                 memory, first)
    want = scalar_march(lam_mass, lam_stiff, start, tau, N, implicit,
                        memory, first)
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
    # data near the overflow threshold on a decaying run: the causal
    # block product, like the step-by-step sum, stays finite
    def huge(x):
        x = np.asarray(x, float)
        inside = (x > 1e-9) & (x < 1.0 - 1e-9)
        return np.where(inside, 1e307 * np.sin(math.pi * x), 0.0)

    cfg = SolverConfig(T=1.0, n_steps=200, mesh=Mesh1D(16),
                       exponent=exp_ex1, initial=huge)
    lag = assemble_weights(cfg.n_steps, cfg.tau, exp_ex1)
    assert np.all(np.isfinite(solve(cfg).snapshots))
    _assert_matches_direct(cfg, 1.0 + lag[0], lag)


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
    # step-by-step march first overflows on every side of the block
    # edges B and 2B, the last row of a block included
    N = 80
    memory = np.zeros(N + 1)
    memory[1] = -1e6
    rows = set()
    for k in range(300, -150, -10):
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
    assert {B - 2, B, B + 2, 2 * B, 2 * B + 2} <= rows, sorted(rows)



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


_MESHES = (4, 8, 16)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(N=st.sampled_from([B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1]),
       data=st.data())
def test_judging_row_n_agrees_with_a_full_scan(N, data):
    # a source that turns one step non-finite on a drawn set of levels,
    # each at its own drawn step: the levels judged by row N alone are
    # those with a non-finite value anywhere in the marched history,
    # and with none left the error names the block of the first row at
    # which every level is non-finite
    bad = data.draw(st.dictionaries(
        st.sampled_from(_MESHES), st.tuples(st.integers(1, N),
                                            st.sampled_from([np.nan, np.inf,
                                                             -np.inf])),
        min_size=1))
    tau = 1.0 / N

    def source(x, t):
        m_cells, n = np.size(x), round(t / tau)
        value = bad[m_cells][1] if bad.get(m_cells, (0,))[0] == n else 0.0
        return np.full(np.shape(x), value)

    exp = example_exponent_1(1.0)
    configs = [SolverConfig(T=1.0, n_steps=N, mesh=Mesh1D(m), exponent=exp,
                            initial=u0_sine, source=source) for m in _MESHES]
    lag = assemble_weights(N, tau, exp)
    march, seen = stepper._march, []

    def spy(*args):  # keeps the history that _march_meshes judged
        seen.append(march(*args))
        return seen[-1]

    edges = np.cumsum([0] + [m - 1 for m in _MESHES])
    with unittest.mock.patch.object(stepper, "_march", spy):
        try:
            runs = _march_meshes(configs, 1.0 + lag[0], lag)
        except SolverError as err:
            runs, named = None, err
    finite = np.isfinite(seen[0])
    failed = [not finite[:, lo:hi].all() for lo, hi in zip(edges, edges[1:])]
    assert failed == [m in bad for m in _MESHES]
    if runs is not None:
        assert [run is None for run in runs] == failed
        return
    assert all(failed)
    dead = np.logical_and.reduce([~finite[:, lo:hi].all(axis=1)
                                  for lo, hi in zip(edges, edges[1:])])
    first = int(np.flatnonzero(dead)[0])
    assert _block_of(first, N) == _block_of(max(n for n, _ in bad.values()), N)
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


def test_ladder_refuses_configs_it_would_solve_wrongly(exp_ex1, exp_ex2):
    # a ladder marches each N with the first config's T, exponent and
    # source; a config that differs in any of them is refused by name
    def config(m, **kw):
        return SolverConfig(**{"T": 1.0, "n_steps": 16, "mesh": Mesh1D(m),
                               "exponent": exp_ex1, "initial": u0_sine,
                               **kw})

    same = [config(4), config(8)]
    assert len(solve_ladder(same)) == 2
    exp_ex1_t2 = example_exponent_1(2.0)
    for odd, name in ((config(8, T=2.0, exponent=exp_ex1_t2), "T, exponent"),
                      (config(8, exponent=exp_ex2), "exponent"),
                      (config(4, source=_source), "source")):
        with pytest.raises(ValidationError,
                           match=f"ladder config 2 differs from config 0 "
                                 f"in {name}$"):
            solve_ladder(same + [odd])


@pytest.mark.parametrize("N,M", [(1, 2), (6, 2), (5, 3), (16, 8),
                                 (12, 17)])
def test_source_term_matches_dense_oracle(N, M, exp_ex1):
    mesh = Mesh1D(M)
    tau = 1.0 / N
    cfg = SolverConfig(T=1.0, n_steps=N, mesh=mesh, exponent=exp_ex1,
                       initial=u0_sine, source=_source)
    lag = assemble_weights(N, tau, exp_ex1)
    want = dense_history(
        mesh, tau, N, u0_sine, implicit=1.0 + lag[0],
        weight=lambda n, k: lag[n - k] if k else 0.0, source=_source)
    assert np.abs(solve(cfg).snapshots - want).max() <= 1e-12
    want = dense_history(mesh, tau, N, u0_sine, source=_source)
    assert np.abs(heat_solve(cfg).snapshots - want).max() <= 1e-12


def test_source_term_is_sampled_at_step_end(exp_zero):
    # u = t sin(pi x) solves u_t - u_xx = (1 + pi^2 t) sin(pi x) and is
    # linear in time, so backward Euler with f sampled at t_n reproduces
    # it down to the fixed spatial floor; sampling f anywhere else in
    # the step would leave an O(tau) residue far above that floor
    mesh = Mesh1D(32)

    def source(x, t):
        return (1.0 + math.pi ** 2 * t) * np.sin(math.pi * np.asarray(x, float))

    errs = []
    for N in (16, 32, 64):
        cfg = SolverConfig(T=0.5, n_steps=N, mesh=mesh, exponent=exp_zero,
                           initial=lambda x: 0.0 * np.asarray(x, float),
                           source=source)
        got = solve(cfg).final()
        exact = 0.5 * np.sin(math.pi * mesh.interior_nodes())
        errs.append(discrete_l2_norm(got - exact, mesh.h))
    assert max(errs) < 1e-4
    assert max(errs) - min(errs) < 0.1 * min(errs)


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
    # no-source decay: max_n ||U_n|| / ||U_0|| must not grow as N refines
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
