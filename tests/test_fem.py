import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh

from msdiff.errors import SolverError, ValidationError
from msdiff.fem import (Mesh1D, TriDiagonalMatrix, discrete_l2_norm, dst1,
                        ritz_projection, sine_eigenvalues)

from oracles import (assemble_mass, assemble_stiffness, dense_from_tridiag,
                     dense_gauss_solve, interpolant_error_l2,
                     interpolant_l2_norm_sq)


def test_mesh_basics():
    mesh = Mesh1D(8)
    assert mesh.h * mesh.m_cells == pytest.approx(1.0, abs=1e-15)
    assert mesh.n_unknowns == 7
    nodes = mesh.interior_nodes()
    assert nodes[0] == pytest.approx(mesh.h)
    assert nodes[-1] == pytest.approx(1.0 - mesh.h)
    with pytest.raises(ValidationError):
        Mesh1D(1)


def test_interior_nodes_are_mirrored_on_every_mesh():
    # x_{M-j} == 1 - x_j bit for bit, so data symmetric about 1/2 has
    # symmetric nodal values on every M
    for m in range(2, 1025):
        x = Mesh1D(m).interior_nodes()
        assert np.array_equal(1.0 - x, x[::-1]), m
    # each node is within 2^-54 of j/M (exactly, in rationals)
    for m in range(2, 257):
        x = Mesh1D(m).interior_nodes().tolist()
        assert max(abs(Fraction(v) - Fraction(j, m))
                   for j, v in enumerate(x, 1)) <= Fraction(1, 2 ** 54), m
    # on M = 2^k they are the products j h of a plain grid
    for k in range(1, 14):
        mesh = Mesh1D(2 ** k)
        assert np.array_equal(mesh.interior_nodes(),
                              mesh.h * np.arange(1, mesh.m_cells)), k


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
            assert np.all(np.asarray(factor.piv) > 0.0)


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


def test_ritz_projection_judges_the_ends_relative_to_the_data():
    # the model is linear, so the size of the data cannot decide whether
    # it is admissible: sin(pi) rounds to 1.2e-16, 1e4 times that passes
    mesh = Mesh1D(8)
    for scale in (1.0, 1e4, 1e300):
        def u0(x):
            return scale * np.sin(math.pi * np.asarray(x, float))
        assert np.array_equal(ritz_projection(mesh, u0),
                              u0(mesh.interior_nodes()))
    # ends above 1e-12 max(1, max |u0| inside) are refused: 2e-12 beside
    # data of size 1e-3 or 1, 2e-8 beside data of size 1e4
    for scale, end in ((1e-3, 2e-12), (1.0, 2e-12), (1e4, 2e-8)):
        with pytest.raises(ValidationError, match="vanish"):
            ritz_projection(mesh, lambda x: scale * np.sin(
                math.pi * np.asarray(x, float)) + end)
    # NaN data passes to the marcher, which reports it
    assert np.isnan(ritz_projection(
        mesh, lambda x: np.where((x > 0) & (x < 1), np.nan, 0.0))).all()


def test_tridiag_identity_solve():
    n = 9
    eye = TriDiagonalMatrix(sub=np.zeros(n - 1), diag=np.ones(n),
                            sup=np.zeros(n - 1))
    rhs = np.linspace(-1.0, 2.0, n)
    assert np.array_equal(eye.factor().solve(rhs), rhs)


def test_tridiag_against_dense_elimination():
    rng = np.random.default_rng(42)
    for _ in range(5):
        n = 15
        sub = rng.uniform(-0.4, 0.4, n - 1)
        mat = TriDiagonalMatrix(sub=sub, diag=2.0 + rng.uniform(0, 1, n),
                                sup=sub.copy())
        rhs = rng.uniform(-1, 1, n)
        got = mat.factor().solve(rhs)
        want = dense_gauss_solve(dense_from_tridiag(mat), rhs)
        assert np.abs(got - want).max() < 1e-12
        residual = mat.matvec(got) - rhs
        assert np.abs(residual).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)


def test_tridiag_reproduces_poisson_solution():
    # -u'' = 1 with u = x(1-x)/2 is nodally exact for P1 on any grid;
    # the load of f = 1 is int phi_j = h at every interior node
    mesh = Mesh1D(8)
    x = mesh.interior_nodes()
    sol = assemble_stiffness(mesh).factor().solve(
        np.full(mesh.n_unknowns, mesh.h))
    assert np.abs(sol - x * (1.0 - x) / 2.0).max() < 1e-14


def test_tridiag_flags_near_zero_pivot():
    mat = TriDiagonalMatrix(sub=np.array([1.0]), diag=np.array([0.0, 1.0]),
                            sup=np.array([1.0]))
    with pytest.raises(SolverError, match="pivot"):
        mat.factor()


def test_discrete_diff_zero_coarse():
    values = np.arange(1.0, 8.0)
    h = 0.125
    # sqrt(h (1 + 4 + ... + 49)) = sqrt(140 / 8)
    assert discrete_l2_norm(values, h) == pytest.approx(math.sqrt(17.5),
                                                        rel=1e-15)
    assert discrete_l2_norm(np.zeros(3), h) == 0.0
    assert discrete_l2_norm(-values[1::2], h) == pytest.approx(
        math.sqrt(h * (4.0 + 16.0 + 36.0)), rel=1e-15)
