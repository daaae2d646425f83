"""Piecewise-linear finite elements on (0, 1) with zero Dirichlet data.

Uniform grid with M cells, h = 1/M; the unknowns are the M-1 interior
nodal values (boundary values are eliminated, never stored).  Mass and
stiffness matrices are the classical P1 tridiagonals (h/6)[1 4 1] and
(1/h)[-1 2 -1].  Both are symmetric Toeplitz, so the sine vectors
sin(j k pi / M), k = 1..M-1, are eigenvectors of both (sine_eigenvalues)
and the discrete sine transform dst1 diagonalises them; the time
marcher steps in that basis.  The banded tridiagonal storage and its
Thomas solver fit the knot slopes of a table's cubic spline
(exponents.cubic_spline).  In 1-D the Ritz projection of a function
with zero boundary values coincides with its nodal interpolant, so
projection is plain sampling.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SolverError, ValidationError, require_integer

_PIVOT_FLOOR = 1e-300


@dataclass(frozen=True)
class Mesh1D:
    """Uniform partition of (0, 1) into m_cells cells."""

    m_cells: int

    def __post_init__(self):
        require_integer(self.m_cells, "m_cells", 2)

    @property
    def h(self) -> float:
        return 1.0 / self.m_cells

    @property
    def n_unknowns(self) -> int:
        return self.m_cells - 1

    def interior_nodes(self) -> np.ndarray:
        """x_j = j/M for j = 1..M-1, mirrored: x_{M-j} == 1 - x_j bit for
        bit on every M, so data with f(1 - x) == f(x) bit for bit has
        nodal values exactly symmetric about 1/2.

        j/M is divided, not multiplied out as h * j: only division puts
        the middle node of an even M at exactly 1/2 (h * 49 on M = 98
        is 0.49999999999999994).  The right half lies on the 2^-53 grid,
        so 1 - x there is exact and the left half is its mirror, within
        2^-54 of j/M.  On M = 2^k the nodes are h * j bit for bit.
        """
        x = np.arange(1, self.m_cells) / self.m_cells
        left = (self.m_cells - 1) // 2
        x[:left] = 1.0 - x[::-1][:left]
        return x


@dataclass(frozen=True)
class TriDiagonalMatrix:
    """Banded storage: sub and sup (length n-1) beside diag (length n)."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[1:] += self.sub * v[:-1]
        out[:-1] += self.sup * v[1:]
        return out

    def factor(self) -> "TriFactor":
        """LU factorisation without pivoting (Thomas) in python floats,
        which overflow to inf without a warning; a pivot smaller than
        _PIVOT_FLOOR in size raises SolverError."""
        sub, diag, sup = (np.asarray(v, float).tolist()
                          for v in (self.sub, self.diag, self.sup))
        low, piv = [], diag[:1]
        for i in range(len(diag)):
            if abs(piv[i]) < _PIVOT_FLOOR:
                raise SolverError(f"near-zero pivot {piv[i]!r} at row {i}")
            if i < len(sub):
                low.append(sub[i] / piv[i])
                piv.append(diag[i + 1] - low[i] * sup[i])
        return TriFactor(low, piv, sup)


class TriFactor(NamedTuple):
    """Factored tridiagonal system; solve() runs the two Thomas sweeps."""

    low: list
    piv: list
    sup: list

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        low, piv, sup = self
        y = np.asarray(rhs, float).tolist()
        for i in range(1, len(y)):
            y[i] -= low[i - 1] * y[i - 1]
        y[-1] /= piv[-1]
        for i in range(len(y) - 2, -1, -1):
            y[i] = (y[i] - sup[i] * y[i + 1]) / piv[i]
        return np.asarray(y)


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
    2M, each row scaled by a power of two around it: exact, and only
    coefficients past the overflow threshold overflow.  Applying it
    twice multiplies by M/2.
    """
    values = np.asarray(values, float)
    shift = np.frexp(np.abs(values).max(axis=-1, keepdims=True))[1]
    m = values.shape[-1] + 1
    odd = np.zeros(values.shape[:-1] + (2 * m,))
    odd[..., 1:m] = np.ldexp(values, -shift)
    odd[..., m + 1:] = -odd[..., m - 1:0:-1]
    return np.ldexp(-0.5 * np.fft.rfft(odd, axis=-1)[..., 1:m].imag, shift)


def ritz_projection(mesh: Mesh1D, u0) -> np.ndarray:
    """Energy projection onto the P1 space: nodal interpolation in 1-D.

    u0 must give one value per node and vanish at both boundary points,
    to 1e-12 times max(1, max |u0| at the interior nodes): the model is
    linear, so scaling the data does not change whether it is admissible.
    """
    values = np.asarray(u0(mesh.interior_nodes()), float)
    if values.shape != (mesh.n_unknowns,):
        raise ValidationError(f"initial data gave shape {values.shape} "
                              f"at the nodes, need {(mesh.n_unknowns,)}")
    ends = np.asarray(u0(np.array([0.0, 1.0])), float)
    if np.abs(ends).max() > end_tolerance(values):
        raise ValidationError(
            f"initial data must vanish on the boundary, got {ends}")
    return values


def end_tolerance(values: np.ndarray) -> float:
    """Largest end value admitted beside interior values `values`."""
    return 1e-12 * max(1.0, np.abs(values).max(initial=0.0))


def discrete_l2_norm(values: np.ndarray, h: float) -> float:
    """sqrt(h sum v_j^2), the nodal L2 norm used by the error metrics.

    As in dst1, the values are scaled by the power of two around
    max |v| and the norm scaled back: exact, so the squares neither
    overflow nor underflow where the norm itself is in range.
    """
    values = np.asarray(values, float)
    shift = math.frexp(np.abs(values).max(initial=0.0))[1]
    scaled = np.ldexp(values, -shift)
    return float(np.ldexp(np.sqrt(h * np.dot(scaled, scaled)), shift))
