import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import binom

from msdiff.errors import ValidationError
from msdiff.exponents import (example_exponent_1, example_exponent_2,
                              exponent_by_name)
from msdiff.fem import (Mesh1D, assemble_mass, assemble_stiffness,
                        discrete_l2_diff, discrete_l2_norm)
from msdiff.reference import constant_subdiffusion_solve, heat_solve
from msdiff.stepper import SolverConfig, sample_solution, solve
from msdiff.weights import assemble_weights

from conftest import u0_quartic, u0_sine
from oracles import dense_from_tridiag, dense_gauss_solve, dense_history


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


@pytest.mark.parametrize("N,M", [(1, 2), (6, 2), (5, 3), (16, 8),
                                 (12, 17)])
def test_source_term_matches_dense_oracle(N, M, exp_ex1):
    def source(x, t):
        return (1.0 + 3.0 * t) * np.cos(3.0 * np.asarray(x, float)) + x

    mesh = Mesh1D(M)
    tau = 1.0 / N
    cfg = SolverConfig(T=1.0, n_steps=N, mesh=mesh, exponent=exp_ex1,
                       initial=u0_sine, source=source)
    lag = assemble_weights(N, tau, exp_ex1)
    want = dense_history(
        mesh, tau, N, u0_sine, implicit=1.0 + lag[0],
        weight=lambda n, k: lag[n - k] if k else 0.0, source=source)
    assert np.abs(solve(cfg).snapshots - want).max() <= 1e-12
    want = dense_history(mesh, tau, N, u0_sine, source=source)
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
    errs = [discrete_l2_diff(finals[N], finals[2 * N], "time-refined",
                             1.0 / 16.0) for N in (32, 64, 128)]
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
