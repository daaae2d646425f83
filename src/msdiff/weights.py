"""Closed-form quadrature weights of the discrete memory term.

At time level n the convolution (g * v)(t_n) is approximated panel by
panel: on [t_{k-1}, t_k] the exponent and its derivative are frozen at
the lag d = t_n - t_k, the factor ln(t_n - s) is kept exact, and v is
frozen at t_k.  Each panel then integrates in closed form and the
memory term becomes sum_k w(n,k) v(t_k) with

    w(n,k) = [ -alpha'(d) L + R(d) P ] / Gamma(1 - alpha(d)),

where, with a = alpha(d) and e = t_n - t_{k-1},

    L = int_{t_{k-1}}^{t_k} ln(t_n - s) (t_n - s)^(-a) ds
      = e^(1-a)/(1-a) (ln e - 1/(1-a)) - d^(1-a)/(1-a) (ln d - 1/(1-a)),
    P = int_{t_{k-1}}^{t_k} (t_n - s)^(-a) ds = (e^(1-a) - d^(1-a))/(1-a),
    R(d) = -alpha(d)/d + psi(1 - alpha(d)) alpha'(d).

The diagonal panel k = n has d = 0 and is fixed by the continuous
limits: x ln x -> 0 kills the second bracket of L (so L = tau (ln tau
- 1)), P = tau, and R(0) = -alpha'(0) (1 + euler_gamma).

On the uniform time grid every quantity above depends on n and k only
through the lag index j = n - k, so the lower-triangular weight table
collapses to a single vector indexed by j: b(n, k) = lag[n - k].
assemble_weights returns that lag vector, in two parts: the exponent at
the lags (exponent_factors: alpha, alpha', R and Gamma(1 - alpha)),
which a ladder of step counts N 2^s evaluates once on its finest grid,
and the closed form in tau (closed_form_lags), evaluated per grid.
"""

import numpy as np

from .errors import SolverError, ValidationError, require_integer
from .exponents import VariableExponent
from .kernel import smooth_factor_of
from .special import gamma


def assemble_weights(n_steps: int, tau: float,
                     exp: VariableExponent) -> np.ndarray:
    """Compute the lag vector for an N-step grid in one vectorised pass.

    lag[j] = b(n, k) for n - k = j < n_steps: closed_form_lags of the
    exponent_factors at the lags d = j tau.  A refused grid (_check_steps,
    _check_step) raises ValidationError; the exponent is assumed admissible.
    """
    _check_steps(n_steps)
    _check_step(tau)
    return closed_form_lags(tau, *exponent_factors(tau * np.arange(n_steps),
                                                   exp))


def _check_steps(n_steps: int, width: int = 1) -> None:
    """ValidationError unless n_steps is a positive integer and numpy can
    size n_steps + 1 rows of `width` floats (the lag vector, or an (N+1)
    x (M-1) history); callers check it before they divide T by N."""
    n_steps = require_integer(n_steps, "n_steps", 1)
    if 8 * (n_steps + 1) * int(width) > np.iinfo(np.intp).max:
        raise ValidationError(
            f"{n_steps + 1} x {width} floats are too many to store")


def _check_step(tau: float) -> None:
    """ValidationError unless tau is positive, finite and normal: below
    the smallest normal, M / tau overflows in a solve."""
    if not 0.0 < tau < np.inf:
        raise ValidationError(f"step size {tau} is not in (0, inf)")
    if tau < np.finfo(float).tiny:
        raise ValidationError(f"step size {tau} underflows")


def exponent_factors(d: np.ndarray, exp: VariableExponent) -> tuple:
    """(alpha, alpha', R, Gamma(1 - alpha)) at the lags d = tau arange(N),
    one exponent call each on the whole array; R is kernel.smooth_factor
    computed from those values, with alpha'(0) the first entry, d[0] = 0.

    Entries whose Gamma(1 - alpha) is out of range (alpha >= 1, alpha <
    -170 or alpha NaN) hold NaN in R and Gamma, so that evaluating more
    lags than a grid reads raises nothing; closed_form_lags refuses them.
    Every entry depends on its own lag alone: on the lags of N 2^s steps
    every (2^s)-th entry equals that of N steps bit for bit, because
    T / (N 2^s) is T / N scaled by 2^-s.
    """
    a = np.broadcast_to(np.asarray(exp.alpha(d), float), d.shape)
    d1 = np.broadcast_to(np.asarray(exp.alpha_d1(d), float), d.shape)
    one_m = 1.0 - a
    ok = (one_m > 0.0) & (one_m < 171.0)   # False for NaN
    smooth, gam = np.full(d.shape, np.nan), np.full(d.shape, np.nan)
    with np.errstate(all="ignore"):
        smooth[ok] = smooth_factor_of(d[ok], a[ok], d1[ok], d1[0])
        gam[ok] = gamma(one_m[ok])
    return a, d1, smooth, gam


def closed_form_lags(tau: float, a: np.ndarray, d1: np.ndarray,
                     smooth: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """The lag vector of the exponent_factors at the lags d = j tau,
    j < a.size.  With e = d + tau,

        lag[j] = [ -alpha'(d) L + R(d) P ] / Gamma(1 - a),

    L, P, R as in the module docstring.  For j >= 1 the differences in
    L and P are taken through e/d = 1 + 1/j, so they do not cancel:

        P = d^(1-a) expm1((1-a) log1p(1/j)) / (1-a),
        L = P (ln d - 1/(1-a)) + e^(1-a) log1p(1/j) / (1-a);

    lag 0 takes the diagonal limits.  Gamma's range is checked first:
    the first lag whose Gamma(1 - alpha) is out of range (NaN in gam,
    see exponent_factors) raises SolverError naming that lag.  Only
    then are the weights evaluated, and the first lag whose weight is
    not finite raises SolverError naming it.
    """
    n_steps = a.size
    j = np.arange(n_steps)
    d = tau * j                           # lag of panel j
    e = tau * np.arange(1, n_steps + 1)   # far end of panel j
    one_m = 1.0 - a
    bad = np.flatnonzero(np.isnan(gam))
    if bad.size:
        i = int(bad[0])
        raise SolverError(
            f"weight evaluation failed at lag {i} (entries n-k={i}, "
            f"e.g. n={i + 1}, k=1): Gamma(1 - alpha) out of range for "
            f"alpha = {float(a[i])!r}")
    with np.errstate(all="ignore"):
        e_pow = e ** one_m
        # lag 0: x ln x -> 0 at the singular end of the diagonal panel
        pow_m = e_pow / one_m
        log_m = pow_m * (np.log(e) - 1.0 / one_m)
        c, s = one_m[1:], np.log1p(1.0 / j[1:])   # s = ln(e/d)
        pow_m[1:] = d[1:] ** c * np.expm1(c * s) / c
        log_m[1:] = pow_m[1:] * (np.log(d[1:]) - 1.0 / c) + e_pow[1:] * s / c
        lag = (-d1 * log_m + smooth * pow_m) / gam
    bad = np.flatnonzero(~np.isfinite(lag))
    if bad.size:
        i = int(bad[0])
        raise SolverError(
            f"non-finite memory weight at lag {i} (n={i + 1}, k=1)")
    return lag
