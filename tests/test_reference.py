import math
import tracemalloc

import numpy as np
import pytest

from msdiff.errors import SolverError, ValidationError
from msdiff.exponents import figure_transition_exponent, zero_exponent
from msdiff.fem import Mesh1D, discrete_l2_norm
from msdiff.reference import (cq_weights, constant_subdiffusion_solve,
                              figure_transition_profiles, heat_solve, sin_pi)
from msdiff.stepper import SolverConfig, sample_series, solve

from conftest import u0_sine


def test_heat_solver_tracks_separable_solution(exp_zero):
    mesh = Mesh1D(64)
    errs = []
    for N in (64, 128):
        cfg = SolverConfig(T=0.5, n_steps=N, mesh=mesh, exponent=exp_zero,
                           initial=u0_sine)
        got = heat_solve(cfg).final()
        exact = math.exp(-math.pi ** 2 * 0.5) * u0_sine(mesh.interior_nodes())
        errs.append(discrete_l2_norm(got - exact, mesh.h))
    assert errs[0] < 2e-3
    assert errs[1] < errs[0]


def test_heat_solver_zero_data_gives_zero_history(exp_zero):
    cfg = SolverConfig(T=1.0, n_steps=16, mesh=Mesh1D(8), exponent=exp_zero,
                       initial=lambda x: 0.0 * np.asarray(x, float))
    assert np.all(heat_solve(cfg).snapshots == 0.0)


def test_heat_solver_agrees_with_multiscale_stepper(exp_zero):
    cfg = SolverConfig(T=1.0, n_steps=256, mesh=Mesh1D(32), exponent=exp_zero,
                       initial=u0_sine)
    assert np.abs(solve(cfg).snapshots
                  - heat_solve(cfg).snapshots).max() < 1e-13


def test_cq_weights_recurrence_values():
    w = cq_weights(0.4, 2)
    assert w[0] == 1.0
    assert w[1] == pytest.approx(-0.4, abs=1e-15)
    assert w[2] == pytest.approx(-0.12, abs=1e-15)


def test_cq_weights_signs_and_partial_sums():
    w = cq_weights(0.4, 1000)
    assert np.all(w[1:] < 0.0)
    partial = np.abs(np.cumsum(w))
    # magnitudes of the partial sums of (1-1)^0.4 decay monotonically to 0
    assert np.all(np.diff(partial[1:]) < 1e-15)
    # direct-summation value: |S_J| ~ J^-0.4 / Gamma(0.6), about 0.042 at
    # J = 1000 (slow algebraic decay, so nowhere near zero yet)
    assert partial[-1] == pytest.approx(0.042364015604503646, rel=1e-10)
    assert partial[-1] < 0.05
    w_long = cq_weights(0.4, 40000)
    assert abs(w_long.sum()) < 0.01


def test_cq_rejects_bad_order():
    with pytest.raises(ValidationError):
        cq_weights(1.2, 4)
    with pytest.raises(ValidationError):
        constant_subdiffusion_solve(
            SolverConfig(T=1.0, n_steps=4, mesh=Mesh1D(4),
                         exponent=zero_exponent(), initial=u0_sine), 0.0)


def test_subdiffusion_has_heavier_tail_than_heat(exp_zero):
    mesh = Mesh1D(16)
    cfg = SolverConfig(T=8.0, n_steps=256, mesh=mesh, exponent=exp_zero,
                       initial=u0_sine)
    heat_final = heat_solve(cfg).final()
    sub_final = constant_subdiffusion_solve(cfg, 0.4).final()
    mid = mesh.n_unknowns // 2
    assert sub_final[mid] > heat_final[mid]
    assert sub_final[mid] > 1e-3  # algebraic tail, far above e^{-8 pi^2}


def test_comparison_series_properties():
    # resolution matters for the late-time proximity claim: the coarse
    # first-order CQ run overestimates the heavy tail, so this runs at
    # the resolution the comparison is reported with
    series = figure_transition_profiles(T=8.0, alpha_end=0.4, n_steps=1024,
                                        m_cells=32)
    t = series.times
    assert t.shape == (1025,)
    # all three runs start from the same projected initial state
    assert series.heat[0] == series.multiscale[0] == series.subdiffusion[0]
    early = t <= 0.8
    assert np.all(np.abs(series.multiscale[early] - series.heat[early])
                  <= np.abs(series.multiscale[early]
                            - series.subdiffusion[early]))
    assert abs(series.multiscale[-1] - series.subdiffusion[-1]) \
        < abs(series.multiscale[-1] - series.heat[-1])
    tail = t >= 4.0
    assert np.all(series.heat[tail] <= series.multiscale[tail] + 1e-15)
    assert np.all(series.multiscale[tail] <= series.subdiffusion[tail] + 1e-15)


def test_comparison_rejects_bad_terminal_exponent():
    with pytest.raises(ValidationError):
        figure_transition_profiles(T=8.0, alpha_end=1.0, n_steps=8,
                                   m_cells=8)


def test_transition_profiles_hold_one_history_at_a_time():
    # each run is sampled and dropped before the next solve: at figure1
    # size one (N+1) x (M-1) history is about 1.04 MB, three were 3.47 MB
    tracemalloc.start()
    try:
        figure_transition_profiles(T=8.0, alpha_end=0.4, n_steps=1024,
                                   m_cells=128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one odd-mode history: 1.01 MB measured, against 1.68 MB when every
    # mode marched
    assert peak < 1.3e6, peak


def _full_march_series(T, alpha_end, n_steps, m_cells, initial):
    """(multiscale, heat, subdiffusion) u(1/2, t_n) from full marches."""
    config = SolverConfig(T=T, n_steps=n_steps, mesh=Mesh1D(m_cells),
                          exponent=figure_transition_exponent(T, alpha_end),
                          initial=initial)
    runs = (solve, heat_solve,
            lambda c: constant_subdiffusion_solve(c, alpha_end))
    return [sample_series(run(config), 0.5) for run in runs]


def _skewed(x):
    return x * (1.0 - x) ** 2


@pytest.mark.parametrize("initial", [sin_pi, _skewed])
@pytest.mark.parametrize("m_cells", [2, 3, 8, 33, 128])
def test_figure_series_match_full_march_at_midpoint(m_cells, initial):
    # the figure marches only the odd sine modes; odd M puts x = 1/2
    # mid-cell, and the skewed data gives the even modes weight
    args = dict(T=8.0, alpha_end=0.4, n_steps=100, m_cells=m_cells,
                initial=initial)
    series = figure_transition_profiles(**args)
    got = (series.multiscale, series.heat, series.subdiffusion)
    for fast, full in zip(got, _full_march_series(**args)):
        assert np.abs(fast - full).max() <= 1e-15 * np.abs(full).max()


def test_figure_fails_in_the_block_the_full_march_names():
    # the constant-order run of this data overflows in its first block
    args = dict(T=8.0, alpha_end=0.4, n_steps=100, m_cells=33,
                initial=lambda x: 1e307 * sin_pi(x))
    with pytest.raises(SolverError) as full:
        _full_march_series(**args)
    assert "steps 1..32" in str(full.value)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SolverError) as fast:
        figure_transition_profiles(**args)
    assert str(fast.value) == str(full.value)


def test_figure_runs_when_only_even_modes_overflow():
    # sin(2 pi x) vanishes at 1/2; its dst1 coefficient overflows, so
    # the full march fails, while the odd modes the figure marches stay
    # at the data's rounding level
    initial = lambda x: 2e307 * np.sin(2.0 * math.pi * np.asarray(x, float))
    config = SolverConfig(T=8.0, n_steps=40, mesh=Mesh1D(33),
                          exponent=zero_exponent(), initial=initial)
    with pytest.raises(SolverError, match="sine coefficients"):
        heat_solve(config)
    series = figure_transition_profiles(T=8.0, alpha_end=0.4, n_steps=40,
                                        m_cells=33, initial=initial)
    for values in (series.heat, series.multiscale, series.subdiffusion):
        assert np.all(np.abs(values) <= 1e-12 * 2e307)
