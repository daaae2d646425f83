"""Independent oracles used by the test suite.

Everything here re-derives quantities along a route different from the
library code: brute-force quadrature of defining integrals, 40-digit
evaluation of the closed-form memory weights, dense Gaussian
elimination, a Lanczos gamma independent of math.gamma,
high-resolution quadrature of interpolants, the banded P1 mass and
stiffness matrices, a dense time-stepping loop built on them that
shares nothing with the library's marcher, the direct sine-mode
marcher that sums the whole history at every step, where the library
solves blocks of steps at once, a scalar recurrence of single modes in
python floats, the whole nodal scheme in 40-digit arithmetic, the
constant-order scheme's integral form, and the exact time-continuous
solution of one sine mode of the multiscale model.
"""

import math
import warnings

import mpmath
import numpy as np
from scipy.integrate import quad

from msdiff.fem import (Mesh1D, TriDiagonalMatrix, dst1, ritz_projection,
                        sine_eigenvalues)

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


def mp_lag_weights(tau: float, exp, lags) -> np.ndarray:
    """Lag weights lag[j], j in lags, in 40-digit arithmetic.

    The exponent is sampled as assemble_weights samples it: alpha and
    alpha' at the float64 lag times j * tau (one array call) and
    alpha'(0).  From those samples on, everything is evaluated in
    mpmath from the defining difference form, with d = j tau and
    e = d + tau exact and a = alpha(d):

        L = [e^(1-a) (ln e - 1/(1-a)) - d^(1-a) (ln d - 1/(1-a))] / (1-a),
        P = (e^(1-a) - d^(1-a)) / (1-a),
        R = -a/d + psi(1 - a) alpha'(d),
        lag[j] = (-alpha'(d) L + R P) / Gamma(1 - a).

    Lag 0 takes the limit d^(1-a) ln d -> 0 and R = -alpha'(0) +
    psi(1 - a) alpha'(0).
    """
    lags = np.asarray(lags, int)
    times = tau * lags.astype(float)
    a_s = np.broadcast_to(np.asarray(exp.alpha(times), float), times.shape)
    d1_s = np.broadcast_to(np.asarray(exp.alpha_d1(times), float),
                           times.shape)
    d1_zero = float(exp.alpha_d1(np.zeros(1))[0])
    out = np.empty(lags.size)
    with mpmath.workdps(40):
        for i, j in enumerate(lags.tolist()):
            a, d1 = mpmath.mpf(float(a_s[i])), mpmath.mpf(float(d1_s[i]))
            c = 1 - a
            d, e = j * mpmath.mpf(tau), (j + 1) * mpmath.mpf(tau)
            log_m = e ** c * (mpmath.log(e) - 1 / c) / c
            pow_m = e ** c / c
            if j == 0:
                smooth = -mpmath.mpf(d1_zero) + mpmath.digamma(c) * d1
            else:
                log_m -= d ** c * (mpmath.log(d) - 1 / c) / c
                pow_m -= d ** c / c
                smooth = -a / d + mpmath.digamma(c) * d1
            out[i] = float((-d1 * log_m + smooth * pow_m) / mpmath.gamma(c))
    return out


def mp_heat_modes(tau: float, n_steps: int, m_cells: int,
                  modes: dict) -> np.ndarray:
    """Exact backward-Euler P1 heat snapshots U_0..U_N of sine data.

    modes maps k to c_k for U_0 = sum_k c_k sin(k pi x_j).  The sine
    vectors are eigenvectors of the P1 mass and stiffness matrices with
    lam^M_k = h/3 (2 + cos(k pi h)) and lam^A_k = 2/h (1 - cos(k pi h)),
    so U_n = sum_k c_k r_k^n sin(k pi x_j) with
    r_k = lam^M_k / (lam^M_k + tau lam^A_k).  c_k r_k^n and the sines
    are evaluated in 40-digit mpmath; only the sum over the modes is
    taken in float64.
    """
    amplitudes, sines = [], []
    with mpmath.workdps(40):
        h = mpmath.mpf(1) / m_cells
        for k, c in modes.items():
            cos = mpmath.cospi(k * h)
            lam_m = h / 3 * (2 + cos)
            lam_a = 2 / h * (1 - cos)
            r = lam_m / (lam_m + mpmath.mpf(tau) * lam_a)
            amplitudes.append([float(c * r ** n)
                               for n in range(n_steps + 1)])
            sines.append([float(mpmath.sinpi(mpmath.mpf(k * j) / m_cells))
                          for j in range(1, m_cells)])
    return np.array(amplitudes).T @ np.array(sines)


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


def dense_history(mesh, tau, n_steps, initial, implicit=1.0, weight=None):
    """Backward-Euler P1 snapshots U_0..U_N of

        (M/tau + implicit A) U_n = M U_{n-1} / tau
                                   - sum_{k=0..n-1} weight(n, k) A U_k,

    with A applied to each history term separately and a dense Gaussian
    elimination at every step.  weight=None drops the memory term.
    """
    mass = dense_from_tridiag(assemble_mass(mesh))
    stiff = dense_from_tridiag(assemble_stiffness(mesh))
    system = mass / tau + implicit * stiff
    hist = np.zeros((n_steps + 1, mesh.n_unknowns))
    hist[0] = initial(mesh.interior_nodes())
    for n in range(1, n_steps + 1):
        rhs = mass @ hist[n - 1] / tau
        if weight is not None:
            for k in range(n):
                rhs -= weight(n, k) * (stiff @ hist[k])
        hist[n] = dense_gauss_solve(system, rhs)
    return hist


def direct_march(config, implicit, memory=None, first=1) -> np.ndarray:
    """Nodal snapshots U_0..U_N of the marcher's scheme, one step at a time.

    The scheme of msdiff.stepper._march on config's mesh: mode k of the
    sine coefficients u_n = dst1(U_n) obeys

        d_k u_n = (lam^M_k / tau) u_{n-1}
                  - lam^A_k sum_{j=first..n-1} memory[n-j] u_j,

    with d_k = lam^M_k / tau + implicit lam^A_k, and the memory sum is
    taken directly over the stored history at every step (cost
    O(N^2 M)).
    """
    mesh, tau, N = config.mesh, config.tau, config.n_steps
    lam_mass, lam_stiff = sine_eigenvalues(mesh)
    denom = lam_mass / tau + implicit * lam_stiff
    decay = lam_mass / (tau * denom)
    gain = lam_stiff / denom
    u0 = ritz_projection(mesh, config.initial)
    hist = np.empty((N + 1, mesh.n_unknowns))
    hist[0] = dst1(u0)
    for n in range(1, N + 1):
        hist[n] = decay * hist[n - 1]
        if memory is not None and n > first:
            hist[n] -= gain * (memory[n - first:0:-1] @ hist[first:n])
    hist = dst1(hist) * (2.0 / mesh.m_cells)
    hist[0] = u0
    return hist


def scalar_march(lam_mass, lam_stiff, start, tau, n_steps, implicit,
                 memory=None, first=1) -> np.ndarray:
    """Coefficients u_0..u_N (rows) of independent scalar modes.

    Mode k takes one backward-Euler step at a time in python floats,

        (lam_mass[k]/tau + implicit lam_stiff[k]) u_n
            = (lam_mass[k]/tau) u_{n-1}
              - lam_stiff[k] sum_{j=first..n-1} memory[n-j] u_j,

    with the memory sum taken by math.fsum: no mesh, no sine
    transform, no blocking, no FFT and no power-of-two scaling.
    """
    rows = []
    for mass, stiff, u0 in zip(lam_mass, lam_stiff, start):
        mass, stiff = float(mass) / tau, float(stiff)
        u = [float(u0)]
        for n in range(1, n_steps + 1):
            rhs = mass * u[n - 1]
            if memory is not None:
                rhs -= stiff * math.fsum(float(memory[n - j]) * u[j]
                                         for j in range(first, n))
            u.append(rhs / (mass + implicit * stiff))
        rows.append(u)
    return np.array(rows).T


def cq_integral_form(lam_mass, lam_stiff, start, tau, n_steps,
                     alpha) -> np.ndarray:
    """Coefficients v_0..v_N (rows) of independent scalar modes solving

        v_n + g_k sum_{j=0..n} q[n-j] v_j = start[k],   n = 0..N,

    with g_k = (lam_stiff[k] / lam_mass[k]) tau^(1-alpha) and q the
    coefficients of (1 - z)^(alpha-1): backward-Euler convolution
    quadrature of the integral form v + lam I^(1-alpha) v = v(0) of
    v' + lam d^alpha_RL v = 0.  Python floats, the sum by math.fsum.
    """
    q = [1.0]
    for j in range(1, n_steps + 1):
        q.append(q[-1] * (j - alpha) / j)
    rows = []
    for mass, stiff, u0 in zip(lam_mass, lam_stiff, start):
        g = float(stiff) / float(mass) * tau ** (1.0 - alpha)
        v = []
        for n in range(n_steps + 1):
            history = math.fsum(q[n - j] * v[j] for j in range(n))
            v.append((float(u0) - g * history) / (1.0 + g))
        rows.append(v)
    return np.array(rows).T


def mittag_leffler_mode(alpha, lam, t) -> float:
    """E_{1-alpha}(-lam t^(1-alpha)), the exact coefficient at time t of
    a sine mode with lam = lam^A_k / lam^M_k and value 1 at t = 0 under
    the constant-order model v' + lam d^alpha_RL v = 0.

    Its Laplace transform is s^(b-1) / (s^b + lam) with b = 1 - alpha,
    inverted by mpmath's Talbot contour at 30 digits; at alpha = 0.4
    this equals the 250-digit power series sum_j (-lam t^b)^j /
    Gamma(b j + 1) to the double at t = 1 and at t = 8.
    """
    b = 1.0 - alpha
    with mpmath.workdps(30):
        return float(mpmath.invertlaplace(
            lambda s: s ** (b - 1) / (s ** b + lam), t, method="talbot"))


def _volterra_trapezoid(alpha, lam, T, n_steps) -> np.ndarray:
    """phi(t_n), n = 0..N, t_n = n T / N, of

        phi(t) = 1 - lam int_0^t p(t - s) phi(s) ds,
        p(t) = t^-alpha(t) / Gamma(1 - alpha(t)),  p(0) = 1,

    by the trapezoid rule on the convolution, Gamma from math.gamma."""
    h = T / n_steps
    times = h * np.arange(1, n_steps + 1)
    kernel = np.empty(n_steps + 1)
    kernel[0] = 1.0  # alpha(0) = 0 and alpha(t) ln t -> 0
    alphas = np.asarray(alpha(times), float)
    kernel[1:] = [t ** -a / math.gamma(1.0 - a)
                  for t, a in zip(times.tolist(), alphas.tolist())]
    phi = np.empty(n_steps + 1)
    phi[0] = 1.0
    for n in range(1, n_steps + 1):
        tail = 0.5 * kernel[n] + np.dot(kernel[n - 1:0:-1], phi[1:n])
        phi[n] = (1.0 - lam * h * tail) / (1.0 + 0.5 * lam * h)
    return phi


def volterra_mode(alpha, lam, T, n_steps=16384) -> np.ndarray:
    """Exact time-continuous coefficient phi(t_n), n = 0..n_steps, of a
    sine mode of the multiscale model with phi(0) = 1.

    Mode k of the P1 semi-discretisation obeys
    phi' + lam phi + lam (g * phi) = 0 with lam = lam^A_k / lam^M_k and
    the kernel g = p' of the model, p(0) = 1 (criterion 5), so
    integrating once gives the second-kind Volterra equation of
    _volterra_trapezoid, whose kernel is continuous.  One Richardson
    step on the trapezoid rule at n_steps and 2 n_steps: at T = 1 it
    moves the value at T by 4.5e-11 (exp-example1), and the steps from
    8192 and from 16384 agree to 1.3e-11 (exp-example1) and 2.1e-11
    (exp-example2).
    """
    coarse = _volterra_trapezoid(alpha, lam, T, n_steps)
    fine = _volterra_trapezoid(alpha, lam, T, 2 * n_steps)
    return (4.0 * fine[::2] - coarse) / 3.0


def mp_march(m_cells, tau, n_steps, start, implicit, memory=None,
             first=1) -> np.ndarray:
    """Nodal snapshots U_0..U_N (rows) of the backward-Euler P1 scheme

        (M/tau + implicit A) U_n = (M/tau) U_{n-1}
                                   - A sum_{k=first..n-1} memory[n-k] U_k

    in 40-digit mpmath, with dense P1 mass M and stiffness A on
    h = 1/m_cells, the system matrix inverted once and A U_k kept for
    the memory sum: no sine transform, FFT, power-of-two scaling or
    blocking.  start is the float U_0 and tau is taken exactly;
    implicit and memory[j] should carry 40 digits (mpf).  Only the
    result is rounded to float64.
    """
    with mpmath.workdps(40):
        size, h, tau = m_cells - 1, mpmath.mpf(1) / m_cells, mpmath.mpf(tau)
        mass, stiff = mpmath.zeros(size), mpmath.zeros(size)
        for i in range(size):
            mass[i, i], stiff[i, i] = 4 * h / 6, 2 / h
            if i:
                mass[i, i - 1] = mass[i - 1, i] = h / 6
                stiff[i, i - 1] = stiff[i - 1, i] = -1 / h
        inverse = mpmath.inverse(mass / tau + implicit * stiff).tolist()
        mass, stiff = (mass / tau).tolist(), stiff.tolist()
        back = [] if memory is None else [
            mpmath.mpf(memory[j]) for j in range(n_steps - first, 0, -1)]
        hist = [[mpmath.mpf(float(v)) for v in start]]
        pushed = [[] for _ in range(size)]  # (A U_k)[i], k = first..n-1
        for n in range(1, n_steps + 1):
            rhs = [mpmath.fdot(row, hist[n - 1]) for row in mass]
            if memory is not None and n > first:
                for col, row in zip(pushed, stiff):
                    col.append(mpmath.fdot(row, hist[n - 1]))
                rhs = [r - mpmath.fdot(back[n_steps - n:], col)
                       for r, col in zip(rhs, pushed)]
            hist.append([mpmath.fdot(row, rhs) for row in inverse])
        return np.array([[float(v) for v in row] for row in hist])


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
