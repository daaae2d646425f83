"""Independent oracles used by the test suite.

Everything here re-derives quantities along a route different from the
library code: brute-force quadrature of defining integrals, dense
Gaussian elimination, a Lanczos gamma independent of math.gamma,
high-resolution quadrature of interpolants, and a dense time-stepping
loop that shares nothing with the library's marcher beyond the P1
matrices and load vector.
"""

import math
import warnings

import numpy as np
from scipy.integrate import quad

from msdiff.fem import assemble_mass, assemble_stiffness, load_vector

EULER = 0.5772156649015328606

# Lanczos approximation (g = 7, 9 terms), independent of math.gamma.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def lanczos_gamma(x: float) -> float:
    """Gamma for x > 0 by the classic Lanczos series."""
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * lanczos_gamma(1.0 - x))
    x -= 1.0
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (x + i)
    t = x + 7.5
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * acc


def quad_digamma(kappa: float) -> float:
    """psi(kappa) from the integral form -gamma_e + int_0^1 (1-t^(k-1))/(1-t)."""
    def integrand(t):
        return (1.0 - t ** (kappa - 1.0)) / (1.0 - t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-15, epsrel=1e-14,
                      limit=400)
    return -EULER + val


def dyadic_quad(f, lo: float, hi: float, n_panels: int = 60) -> float:
    """Adaptive quadrature on (lo, hi] with an integrable singularity at lo.

    The interval is split into dyadically shrinking panels toward lo
    and each smooth panel is integrated adaptively; the leftover mass
    below hi * 2^-n_panels is negligible for log-type singularities.
    """
    total = 0.0
    upper = hi
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(n_panels):
            lower = lo + 0.5 * (upper - lo)
            val, _ = quad(f, lower, upper, epsabs=1e-16, epsrel=1e-13,
                          limit=100)
            total += val
            upper = lower
    return total


def quad_memory_weight(n: int, k: int, tau: float, exp) -> float:
    """Brute-force quadrature of the defining panel integral of b(n, k).

    Integrand in the lag variable x = t_n - s:
        x^(-a) (-alpha'(d) ln x + R(d)) / Gamma(1 - a),  x in [d, d + tau],
    with d = t_n - t_k and a = alpha(d).  The diagonal panel (d = 0) has
    the integrable log singularity at x = 0 and is integrated on graded
    dyadic panels.
    """
    d = (n - k) * tau
    a = float(exp.alpha(d))
    d1 = float(exp.alpha_d1(d))
    if d > 0.0:
        smooth = -float(exp.alpha(d)) / d + quad_digamma(1.0 - a) * d1
    else:
        smooth = -float(exp.alpha_d1(0.0)) * (1.0 + EULER)
    g0 = lanczos_gamma(1.0 - a)

    def integrand(x):
        return x ** (-a) * (-d1 * np.log(x) + smooth) / g0

    if k < n:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val, _ = quad(integrand, d, d + tau, epsabs=1e-16, epsrel=1e-13,
                          limit=200)
        return val
    return dyadic_quad(integrand, 0.0, tau)


def dense_from_tridiag(mat) -> np.ndarray:
    n = mat.diag.size
    out = np.zeros((n, n))
    out[np.arange(n), np.arange(n)] = mat.diag
    out[np.arange(1, n), np.arange(n - 1)] = mat.sub
    out[np.arange(n - 1), np.arange(1, n)] = mat.sup
    return out


def dense_gauss_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Plain Gaussian elimination with partial pivoting."""
    a = np.array(a, float)
    b = np.array(rhs, float)
    n = b.size
    for col in range(n - 1):
        p = col + int(np.argmax(np.abs(a[col:, col])))
        if p != col:
            a[[col, p]] = a[[p, col]]
            b[[col, p]] = b[[p, col]]
        for row in range(col + 1, n):
            m = a[row, col] / a[col, col]
            a[row, col:] -= m * a[col, col:]
            b[row] -= m * b[col]
    x = np.empty(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def dense_history(mesh, tau, n_steps, initial, implicit=1.0, weight=None,
                  source=None):
    """Backward-Euler P1 snapshots U_0..U_N of

        (M/tau + implicit A) U_n = M U_{n-1} / tau + F_n
                                   - sum_{k=0..n-1} weight(n, k) A U_k,

    with A applied to each history term separately and a dense Gaussian
    elimination at every step.  weight=None drops the memory term;
    F_n is the load vector of source(x, t_n), or zero for source=None.
    """
    mass = dense_from_tridiag(assemble_mass(mesh))
    stiff = dense_from_tridiag(assemble_stiffness(mesh))
    system = mass / tau + implicit * stiff
    hist = np.zeros((n_steps + 1, mesh.n_unknowns))
    hist[0] = initial(mesh.interior_nodes())
    for n in range(1, n_steps + 1):
        rhs = mass @ hist[n - 1] / tau
        if source is not None:
            rhs += load_vector(mesh, lambda x: source(x, n * tau))
        if weight is not None:
            for k in range(n):
                rhs -= weight(n, k) * (stiff @ hist[k])
        hist[n] = dense_gauss_solve(system, rhs)
    return hist


def interpolant_l2_norm_sq(mesh, values) -> float:
    """Exact integral of the squared P1 interpolant (Simpson per cell)."""
    padded = np.concatenate(([0.0], np.asarray(values, float), [0.0]))
    h = mesh.h
    sq = padded * padded
    mids = 0.25 * (padded[:-1] + padded[1:]) ** 2
    return float(np.sum(h / 6.0 * (sq[:-1] + 4.0 * mids + sq[1:])))


def interpolant_error_l2(mesh, values, fn, n_sub: int = 64) -> float:
    """L2 distance between the P1 interpolant of `values` and fn,
    by composite midpoint quadrature with n_sub points per cell."""
    padded = np.concatenate(([0.0], np.asarray(values, float), [0.0]))
    h = mesh.h
    acc = 0.0
    for cell in range(mesh.m_cells):
        xs = (cell + (np.arange(n_sub) + 0.5) / n_sub) * h
        lin = padded[cell] + (padded[cell + 1] - padded[cell]) \
            * (xs - cell * h) / h
        acc += np.sum((lin - fn(xs)) ** 2) * (h / n_sub)
    return math.sqrt(acc)
