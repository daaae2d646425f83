import math
import tracemalloc

import numpy as np
import pytest

from msdiff.errors import ValidationError
from msdiff.exponents import zero_exponent
from msdiff.fem import Mesh1D, discrete_l2_norm
from msdiff.reference import (cq_weights, constant_subdiffusion_solve,
                              figure_transition_profiles, heat_solve)
from msdiff.stepper import SolverConfig, solve

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
    assert peak < 2.5e6, peak
