import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdiff import reference
from msdiff.cli import main
from msdiff.errors import SolverError, ValidationError
from msdiff.exponents import figure_transition_exponent, zero_exponent
from msdiff.fem import Mesh1D, discrete_l2_norm, sine_eigenvalues
from msdiff.reference import (cq_weights, constant_subdiffusion_solve,
                              figure_transition_profiles, heat_solve, sin_pi)
from msdiff.stepper import SolverConfig, _march, sample_series, solve

from conftest import u0_sine
from oracles import cq_integral_form, mittag_leffler_mode, scalar_march


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


_MODES = st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(1e-2, 1e4),
                            st.floats(0.01, 1.0) | st.floats(-1.0, -0.01)),
                  min_size=1, max_size=4)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(modes=_MODES, N=st.integers(1, 200), alpha=st.floats(0.05, 0.95),
       tau=st.floats(1e-3, 1.0))
def test_constant_order_march_is_a_scaled_integral_form_cq(modes, N, alpha,
                                                           tau):
    # CQ feeds U_0 into every row but imposes no step at n = 0, so mode
    # k's rows 1..N equal c_k = 1 + lam_k tau^(1-alpha) (lam_k =
    # lam^A_k / lam^M_k) times the march from start / c_k, which is the
    # first-order CQ of the integral form: the constant-order model
    # converges at tau^(1-alpha), as c_k - 1 does.  The worst gap over
    # 400 draws was 3.5e-14 of the mode's largest row
    lam_mass, lam_stiff, start = map(np.array, zip(*modes))
    scale = tau ** -alpha
    memory = scale * cq_weights(alpha, N)
    march = (tau, N, scale, memory, 0)
    got = _march(lam_mass, lam_stiff, start, *march)[1:]
    c = 1.0 + lam_stiff / lam_mass * tau ** (1.0 - alpha)
    for want in (scalar_march(lam_mass, lam_stiff, start / c, *march),
                 cq_integral_form(lam_mass, lam_stiff, start, tau, N, alpha)):
        want = c * want[1:]
        assert np.all(np.abs(got - want)
                      <= 2e-13 * np.abs(want).max(axis=0)), (got, want)


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


def test_figure_subdiffusion_is_54_percent_above_its_exact_curve():
    # figure1's size (T = 8, N = 1024, M = 128): the constant-order
    # series over its Mittag-Leffler truth E_0.6(-lam t^0.6), lam =
    # lam^A_1 / lam^M_1, measured 1.5356, 1.5363, 1.5367 and 1.5368 at
    # t = 1, 2, 4, 8, below the factor 1 + lam tau^0.6 = 1.537 of its
    # rows (reference module); band 1.535-1.538
    series = figure_transition_profiles(T=8.0, alpha_end=0.4, n_steps=1024,
                                        m_cells=128)
    lam_mass, lam_stiff = sine_eigenvalues(Mesh1D(128))
    for n in (128, 256, 512, 1024):
        truth = mittag_leffler_mode(0.4, lam_stiff[0] / lam_mass[0],
                                    series.times[n])
        assert 1.535 <= series.subdiffusion[n] / truth <= 1.538, n


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
    # the figure is the three public solves sampled at 1/2; odd M puts
    # x = 1/2 mid-cell, and the skewed data gives the even modes weight
    args = dict(T=8.0, alpha_end=0.4, n_steps=100, m_cells=m_cells,
                initial=initial)
    series = figure_transition_profiles(**args)
    got = (series.multiscale, series.heat, series.subdiffusion)
    for fast, full in zip(got, _full_march_series(**args)):
        assert np.array_equal(fast, full)


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


def test_figure_fails_as_heat_solve_when_even_modes_overflow():
    # sin(2 pi x) vanishes at 1/2 but is not symmetric about it, so every
    # mode marches and its overflowing dst1 coefficient fails the figure
    # as it fails heat_solve
    initial = lambda x: 2e307 * np.sin(2.0 * math.pi * np.asarray(x, float))
    config = SolverConfig(T=8.0, n_steps=40, mesh=Mesh1D(33),
                          exponent=zero_exponent(), initial=initial)
    with pytest.raises(SolverError, match="sine coefficients") as heat:
        heat_solve(config)
    with pytest.raises(SolverError) as figure:
        figure_transition_profiles(T=8.0, alpha_end=0.4, n_steps=40,
                                   m_cells=33, initial=initial)
    assert str(figure.value) == str(heat.value)


def test_figure1_calls_each_public_solve_once(monkeypatch, tmp_path):
    # perfbench/spans.py traces these names on msdiff.reference; a
    # figure that marched around them would zero its transition spans
    calls = []

    def spy(name):
        real = getattr(reference, name)

        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted

    for name in ("solve", "heat_solve", "constant_subdiffusion_solve"):
        monkeypatch.setattr(reference, name, spy(name))
    assert main(["figure1", "--N", "8", "--M", "4",
                 "--out", str(tmp_path / "figure1.csv")]) == 0
    assert sorted(calls) == ["constant_subdiffusion_solve", "heat_solve",
                             "solve"]


def test_sin_pi_is_within_one_ulp_at_the_nodes():
    # against the correctly rounded 40-digit value; np.sin(pi x) is 373
    # ulp off at x = 1021/1024, where pi x rounds away its distance to pi
    x = Mesh1D(1024).interior_nodes()
    with mpmath.workdps(40):
        want = np.array([float(mpmath.sinpi(mpmath.mpf(float(v))))
                         for v in x])
    assert np.all(np.abs(sin_pi(x) - want) <= np.spacing(want))
    assert sin_pi(np.array([0.0, 1.0])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("k", range(1, 14))
def test_sin_pi_is_symmetric_on_power_of_two_meshes(k):
    # 1 - x_j is exactly x_{M-j} on M = 2^k cells, so the data is
    # mirrored bit for bit and its runs march only the odd sine modes
    values = sin_pi(Mesh1D(2 ** k).interior_nodes())
    assert np.array_equal(values, values[::-1])
