import math

import numpy as np
import pytest
from scipy.linalg import eigh

from msdiff.errors import SolverError, ValidationError
from msdiff.fem import (Mesh1D, TriDiagonalMatrix, assemble_mass,
                        assemble_stiffness, discrete_l2_diff, dst1,
                        load_vector, ritz_projection, sine_eigenvalues,
                        tridiag_solve)

from oracles import (dense_from_tridiag, dense_gauss_solve,
                     interpolant_error_l2, interpolant_l2_norm_sq)


def test_mesh_basics():
    mesh = Mesh1D(8)
    assert mesh.h * mesh.m_cells == pytest.approx(1.0, abs=1e-15)
    assert mesh.n_unknowns == 7
    nodes = mesh.interior_nodes()
    assert nodes[0] == pytest.approx(mesh.h)
    assert nodes[-1] == pytest.approx(1.0 - mesh.h)
    with pytest.raises(ValidationError):
        Mesh1D(1)


def test_mass_matrix_entries():
    mesh = Mesh1D(4)
    mass = assemble_mass(mesh)
    assert np.allclose(mass.diag, 1.0 / 6.0)
    assert np.allclose(mass.sub, 1.0 / 24.0)
    assert np.allclose(mass.sup, 1.0 / 24.0)


def test_mass_row_sums_away_from_boundary():
    mesh = Mesh1D(16)
    dense = dense_from_tridiag(assemble_mass(mesh))
    sums = dense.sum(axis=1)
    assert np.allclose(sums[1:-1], mesh.h, atol=1e-15)


def test_mass_quadratic_form_is_interpolant_l2():
    mesh = Mesh1D(64)
    v = np.sin(math.pi * mesh.interior_nodes())
    quad_form = v @ assemble_mass(mesh).matvec(v)
    # Simpson per cell integrates the squared interpolant exactly
    assert quad_form == pytest.approx(interpolant_l2_norm_sq(mesh, v),
                                      rel=1e-3)


def test_stiffness_matrix_entries():
    mesh = Mesh1D(4)
    stiff = assemble_stiffness(mesh)
    assert np.allclose(stiff.diag, 8.0)
    assert np.allclose(stiff.sub, -4.0)


def test_stiffness_annihilates_linear_functions_interior():
    # the discrete Laplacian of 3x vanishes away from the clamped end;
    # the last row picks up the boundary flux 3/h of the eliminated node
    mesh = Mesh1D(16)
    v = 3.0 * mesh.interior_nodes()
    flux = assemble_stiffness(mesh).matvec(v)
    assert np.allclose(flux[:-1], 0.0, atol=1e-12)
    assert flux[-1] == pytest.approx(3.0 / mesh.h, rel=1e-12)


def test_generalized_eigenvalue_approximates_pi_squared():
    mesh = Mesh1D(64)
    a = dense_from_tridiag(assemble_stiffness(mesh))
    m = dense_from_tridiag(assemble_mass(mesh))
    smallest = eigh(a, m, eigvals_only=True)[0]
    assert smallest == pytest.approx(math.pi ** 2, rel=0.01)


def test_matrices_are_symmetric_positive_definite():
    for m_cells in (2, 3, 8, 33, 64):
        mesh = Mesh1D(m_cells)
        for mat in (assemble_mass(mesh), assemble_stiffness(mesh)):
            assert np.array_equal(mat.sub, mat.sup)
            factor = mat.factor()  # positive pivots = SPD for symmetric
            assert np.all(np.asarray(factor._piv) > 0.0)


@pytest.mark.parametrize("m_cells", [2, 3, 8, 33])
def test_dst_matches_sine_matrix_and_round_trips(m_cells):
    j = np.arange(1, m_cells)
    sines = np.sin(np.outer(j, j) * math.pi / m_cells)
    x = np.random.default_rng(m_cells).uniform(-1.0, 1.0, (3, m_cells - 1))
    assert np.abs(dst1(x) - x @ sines).max() <= 1e-13 * m_cells
    assert np.abs(dst1(dst1(x)) * 2.0 / m_cells - x).max() <= 1e-13


@pytest.mark.parametrize("m_cells", [2, 3, 8, 33])
def test_sine_eigenvalues_diagonalize_mass_and_stiffness(m_cells):
    mesh = Mesh1D(m_cells)
    j = np.arange(1, m_cells)
    sines = np.sin(np.outer(j, j) * math.pi / m_cells)
    for mat, lam in zip((assemble_mass(mesh), assemble_stiffness(mesh)),
                        sine_eigenvalues(mesh)):
        got = sines @ dense_from_tridiag(mat) @ sines * (2.0 / m_cells)
        assert np.abs(got - np.diag(lam)).max() <= 1e-13 * lam.max()


def test_load_vector_trivial_sources():
    mesh = Mesh1D(8)
    assert np.all(load_vector(mesh, lambda x: 0.0 * x) == 0.0)
    assert np.allclose(load_vector(mesh, lambda x: np.ones_like(x)),
                       mesh.h, atol=1e-15)


def test_load_vector_sine_against_closed_form():
    mesh = Mesh1D(32)
    got = load_vector(mesh, lambda x: np.sin(math.pi * x))
    # int sin(pi x) phi_j dx = sin(pi x_j) 2(1 - cos(pi h)) / (pi^2 h)
    h = mesh.h
    exact = np.sin(math.pi * mesh.interior_nodes()) \
        * 2.0 * (1.0 - math.cos(math.pi * h)) / (math.pi ** 2 * h)
    assert np.abs(got - exact).max() < 1e-6


def test_ritz_projection_is_identity_on_hats():
    mesh = Mesh1D(8)
    j = 3

    def hat(x):
        x = np.asarray(x, float)
        return np.maximum(0.0, 1.0 - np.abs(x - mesh.interior_nodes()[j]) / mesh.h)

    proj = ritz_projection(mesh, hat)
    expected = np.zeros(mesh.n_unknowns)
    expected[j] = 1.0
    assert np.allclose(proj, expected, atol=1e-14)


def test_ritz_projection_samples_sine():
    mesh = Mesh1D(8)
    proj = ritz_projection(mesh, lambda x: np.sin(math.pi * x))
    assert np.allclose(proj, np.sin(math.pi * np.arange(1, 8) / 8.0),
                       atol=1e-15)


def test_ritz_projection_galerkin_residual():
    # stiffness times the interpolant equals the load of u0' tested
    # against phi_j', which reduces to the same second-difference stencil
    mesh = Mesh1D(16)
    u0 = lambda x: np.sin(math.pi * np.asarray(x, float))
    proj = ritz_projection(mesh, u0)
    padded = np.concatenate(([0.0], proj, [0.0]))
    rhs = (2.0 * padded[1:-1] - padded[:-2] - padded[2:]) / mesh.h
    residual = assemble_stiffness(mesh).matvec(proj) - rhs
    assert np.abs(residual).max() < 1e-12


def test_ritz_projection_l2_rate_is_quadratic():
    u0 = lambda x: np.asarray(x, float) ** 2 * (1.0 - np.asarray(x, float)) ** 2
    errs = []
    for m_cells in (8, 16, 32, 64):
        mesh = Mesh1D(m_cells)
        errs.append(interpolant_error_l2(mesh, ritz_projection(mesh, u0), u0))
    slope = np.polyfit(np.log([8, 16, 32, 64]), np.log(errs), 1)[0]
    assert -slope == pytest.approx(2.0, abs=0.05)


def test_ritz_projection_rejects_nonzero_boundary():
    with pytest.raises(ValidationError):
        ritz_projection(Mesh1D(8), lambda x: np.asarray(x, float) ** 2)


def test_tridiag_identity_solve():
    n = 9
    eye = TriDiagonalMatrix(sub=np.zeros(n - 1), diag=np.ones(n),
                            sup=np.zeros(n - 1))
    rhs = np.linspace(-1.0, 2.0, n)
    assert np.array_equal(tridiag_solve(eye, rhs), rhs)


def test_tridiag_against_dense_elimination():
    rng = np.random.default_rng(42)
    for _ in range(5):
        n = 15
        sub = rng.uniform(-0.4, 0.4, n - 1)
        mat = TriDiagonalMatrix(sub=sub, diag=2.0 + rng.uniform(0, 1, n),
                                sup=sub.copy())
        rhs = rng.uniform(-1, 1, n)
        got = tridiag_solve(mat, rhs)
        want = dense_gauss_solve(dense_from_tridiag(mat), rhs)
        assert np.abs(got - want).max() < 1e-12
        residual = mat.matvec(got) - rhs
        assert np.abs(residual).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)


def test_tridiag_reproduces_poisson_solution():
    # -u'' = 1 with u = x(1-x)/2 is nodally exact for P1 on any grid
    mesh = Mesh1D(8)
    x = mesh.interior_nodes()
    sol = tridiag_solve(assemble_stiffness(mesh),
                        load_vector(mesh, lambda s: np.ones_like(s)))
    assert np.abs(sol - x * (1.0 - x) / 2.0).max() < 1e-14


def test_tridiag_flags_near_zero_pivot():
    mat = TriDiagonalMatrix(sub=np.array([1.0]), diag=np.array([0.0, 1.0]),
                            sup=np.array([1.0]))
    with pytest.raises(SolverError, match="pivot"):
        tridiag_solve(mat, np.array([1.0, 1.0]))


def test_discrete_diff_identical_vectors():
    v = np.linspace(0, 1, 7)
    assert discrete_l2_diff(v, v, "time-refined", 0.125) == 0.0


def test_discrete_diff_zero_coarse():
    fine = np.arange(1.0, 8.0)
    h = 0.125
    got = discrete_l2_diff(np.zeros(3), fine, "space-refined", h)
    assert got == pytest.approx(math.sqrt(h * np.sum(fine[1::2] ** 2)))
    got = discrete_l2_diff(np.zeros(7), fine, "time-refined", h)
    assert got == pytest.approx(math.sqrt(h * np.sum(fine ** 2)))


def test_discrete_diff_validation():
    with pytest.raises(ValidationError):
        discrete_l2_diff(np.zeros(4), np.zeros(5), "time-refined", 0.1)
    with pytest.raises(ValidationError):
        discrete_l2_diff(np.zeros(4), np.zeros(8), "space-refined", 0.1)
    with pytest.raises(ValidationError):
        discrete_l2_diff(np.zeros(4), np.zeros(4), "diagonal", 0.1)
