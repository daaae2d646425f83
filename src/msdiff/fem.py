"""Piecewise-linear finite elements on (0, 1) with zero Dirichlet data.

Uniform grid with M cells, h = 1/M; the unknowns are the M-1 interior
nodal values (boundary values are eliminated, never stored).  Mass and
stiffness matrices are the classical P1 tridiagonals (h/6)[1 4 1] and
(1/h)[-1 2 -1].  Both are symmetric Toeplitz, so the sine vectors
sin(j k pi / M), k = 1..M-1, are eigenvectors of both (sine_eigenvalues)
and the discrete sine transform dst1 diagonalises them; the time
marcher steps in that basis.  Banded storage with a Thomas solver is
kept for callers that want the matrices themselves.  In 1-D the Ritz
projection of a function with zero boundary values coincides with its
nodal interpolant, so projection is plain sampling.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError

_PIVOT_FLOOR = 1e-300
_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)  # two-point Gauss nodes at 1/2 +- this


@dataclass(frozen=True)
class Mesh1D:
    """Uniform partition of (0, 1) into m_cells cells."""

    m_cells: int

    def __post_init__(self):
        if self.m_cells < 2:
            raise ValidationError(
                f"mesh needs at least 2 cells, got {self.m_cells}")

    @property
    def h(self) -> float:
        return 1.0 / self.m_cells

    @property
    def n_unknowns(self) -> int:
        return self.m_cells - 1

    def interior_nodes(self) -> np.ndarray:
        """x_j = j h for j = 1..M-1."""
        return self.h * np.arange(1, self.m_cells)


@dataclass(frozen=True)
class TriDiagonalMatrix:
    """Symmetric-friendly banded storage: sub/sup of length M-2, diag M-1."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[1:] += self.sub * v[:-1]
        out[:-1] += self.sup * v[1:]
        return out

    def factor(self) -> "TriFactor":
        """LU factorisation without pivoting (Thomas); flags tiny pivots."""
        n = self.diag.size
        piv = self.diag.astype(float).copy()
        low = np.empty(max(n - 1, 0))
        for i in range(n - 1):
            if abs(piv[i]) < _PIVOT_FLOOR:
                raise SolverError(f"near-zero pivot {piv[i]!r} at row {i}")
            low[i] = self.sub[i] / piv[i]
            piv[i + 1] = self.diag[i + 1] - low[i] * self.sup[i]
        if abs(piv[n - 1]) < _PIVOT_FLOOR:
            raise SolverError(f"near-zero pivot {piv[n - 1]!r} at row {n - 1}")
        return TriFactor(low, piv, np.asarray(self.sup, float))


class TriFactor:
    """Factored tridiagonal system; solve() runs the two Thomas sweeps."""

    def __init__(self, low, piv, sup):
        # plain lists: python-float sweeps are much faster than ndarray
        # scalar indexing for the short recurrences solved here
        self._low = low.tolist()
        self._piv = piv.tolist()
        self._sup = sup.tolist()
        self._n = len(self._piv)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n = self._n
        low, piv, sup = self._low, self._piv, self._sup
        y = np.asarray(rhs, float).tolist()
        for i in range(1, n):
            y[i] -= low[i - 1] * y[i - 1]
        y[n - 1] /= piv[n - 1]
        for i in range(n - 2, -1, -1):
            y[i] = (y[i] - sup[i] * y[i + 1]) / piv[i]
        return np.asarray(y)


def tridiag_solve(mat: TriDiagonalMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve mat x = rhs by Thomas elimination."""
    return mat.factor().solve(rhs)


def assemble_mass(mesh: Mesh1D) -> TriDiagonalMatrix:
    """Consistent P1 mass matrix: diag 4h/6, off-diagonals h/6 (exact)."""
    m = mesh.n_unknowns
    h = mesh.h
    return TriDiagonalMatrix(
        sub=np.full(m - 1, h / 6.0),
        diag=np.full(m, 4.0 * h / 6.0),
        sup=np.full(m - 1, h / 6.0),
    )


def assemble_stiffness(mesh: Mesh1D) -> TriDiagonalMatrix:
    """P1 stiffness matrix: diag 2/h, off-diagonals -1/h (exact)."""
    m = mesh.n_unknowns
    h = mesh.h
    return TriDiagonalMatrix(
        sub=np.full(m - 1, -1.0 / h),
        diag=np.full(m, 2.0 / h),
        sup=np.full(m - 1, -1.0 / h),
    )


def sine_eigenvalues(mesh: Mesh1D):
    """(mass, stiffness) eigenvalues on the sine vectors, k = 1..M-1.

    With theta_k = k pi / M: h/3 (2 + cos theta_k) and
    2/h (1 - cos theta_k), in the order of the dst1 coefficients.  Both
    are evaluated through s = sin^2(theta_k / 2), because 1 - cos theta_k
    cancels for the smooth modes: at M = 128 it would cost the lowest
    stiffness eigenvalue about 3000 ulp.
    """
    h = mesh.h
    s = np.sin(0.5 * np.pi * h * np.arange(1, mesh.m_cells)) ** 2
    return h * (1.0 - 2.0 / 3.0 * s), 4.0 / h * s


def dst1(values: np.ndarray) -> np.ndarray:
    """Unnormalised DST-I along the last axis.

    out[k-1] = sum_{j=1..M-1} values[j-1] sin(j k pi / M) for a last
    axis of length M-1, from the FFT of the odd extension of length
    2M.  Applying it twice multiplies by M/2.
    """
    values = np.asarray(values, float)
    m = values.shape[-1] + 1
    odd = np.zeros(values.shape[:-1] + (2 * m,))
    odd[..., 1:m] = values
    odd[..., m + 1:] = -values[..., ::-1]
    return -0.5 * np.fft.rfft(odd, axis=-1)[..., 1:m].imag


def load_vector(mesh: Mesh1D, f) -> np.ndarray:
    """Entries int f phi_j dx by two-point Gauss per cell.

    Exact for f linear on each cell, O(h^4) per cell otherwise; f must
    accept numpy arrays.
    """
    h = mesh.h
    left = h * np.arange(mesh.m_cells)
    g1 = left + h * (0.5 - _GAUSS_OFFSET)
    g2 = left + h * (0.5 + _GAUSS_OFFSET)
    f1 = np.asarray(f(g1), float)
    f2 = np.asarray(f(g2), float)
    rise1, rise2 = 0.5 - _GAUSS_OFFSET, 0.5 + _GAUSS_OFFSET
    w = 0.5 * h
    to_right = w * (rise1 * f1 + rise2 * f2)   # weight of the cell's right node
    to_left = w * ((1.0 - rise1) * f1 + (1.0 - rise2) * f2)
    return to_right[: mesh.m_cells - 1] + to_left[1:]


def ritz_projection(mesh: Mesh1D, u0) -> np.ndarray:
    """Energy projection onto the P1 space: nodal interpolation in 1-D.

    u0 must vanish at both boundary points (checked to 1e-12).
    """
    ends = np.asarray(u0(np.array([0.0, 1.0])), float)
    if np.abs(ends).max() > 1e-12:
        raise ValidationError(
            f"initial data must vanish on the boundary, got {ends}")
    return np.asarray(u0(mesh.interior_nodes()), float)


def discrete_l2_diff(coarse: np.ndarray, fine: np.ndarray, mode: str,
                     h: float) -> float:
    """sqrt(h sum_j |coarse_j - fine_match(j)|^2) over the coarse nodes.

    mode 'time-refined' compares equal-length nodal vectors; mode
    'space-refined' matches coarse node j with fine node 2j (the fine
    vector must come from the halved mesh: length 2*len(coarse)+1).
    """
    coarse = np.asarray(coarse, float)
    fine = np.asarray(fine, float)
    if mode == "time-refined":
        if coarse.shape != fine.shape:
            raise ValidationError(
                f"length mismatch: {coarse.shape} vs {fine.shape}")
        diff = coarse - fine
    elif mode == "space-refined":
        if fine.size != 2 * coarse.size + 1:
            raise ValidationError(
                f"fine grid must have 2*{coarse.size}+1 unknowns, "
                f"got {fine.size}")
        diff = coarse - fine[1::2]
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    return float(np.sqrt(h * np.dot(diff, diff)))


def discrete_l2_norm(values: np.ndarray, h: float) -> float:
    """sqrt(h sum v_j^2), the nodal L2 norm used by the error metrics."""
    values = np.asarray(values, float)
    return float(np.sqrt(h * np.dot(values, values)))
