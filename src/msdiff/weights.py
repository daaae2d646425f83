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
assemble_weights returns that lag vector.
"""

import math

import numpy as np

from .errors import SolverError, ValidationError
from .exponents import VariableExponent
from .kernel import _RATIO_LIMIT_TIME, smooth_factor
from .special import digamma, gamma


def _check_panel(n: int, k: int, tau: float) -> None:
    if k < 1 or k > n:
        raise ValidationError(f"panel index must satisfy 1 <= k <= n, got k={k}, n={n}")
    if not tau > 0.0:
        raise ValidationError(f"step size must be positive, got {tau}")


def weight_log_moment(n: int, k: int, tau: float, exp: VariableExponent) -> float:
    """Panel integral of ln(t_n - s) (t_n - s)^(-a), a frozen at the lag."""
    _check_panel(n, k, tau)
    d = (n - k) * tau
    e = (n - k + 1) * tau
    a = float(exp.alpha(d))
    one_m = 1.0 - a
    upper = e ** one_m / one_m * (math.log(e) - 1.0 / one_m)
    if n == k:  # x ln x -> 0 at the singular end
        return upper
    lower = d ** one_m / one_m * (math.log(d) - 1.0 / one_m)
    return upper - lower


def weight_power_moment(n: int, k: int, tau: float, exp: VariableExponent) -> float:
    """Panel integral of (t_n - s)^(-a), a frozen at the lag."""
    _check_panel(n, k, tau)
    d = (n - k) * tau
    e = (n - k + 1) * tau
    a = float(exp.alpha(d))
    one_m = 1.0 - a
    return (e ** one_m - d ** one_m) / one_m


def weight_smooth_factor(n: int, k: int, tau: float, exp: VariableExponent) -> float:
    """Log-free coefficient R at the panel lag; -alpha'(0)(1+gamma_e) on the diagonal."""
    _check_panel(n, k, tau)
    return smooth_factor(exp, (n - k) * tau)


def memory_weight(n: int, k: int, tau: float, exp: VariableExponent) -> float:
    """Full panel weight w(n, k) multiplying v(t_k) in the memory sum."""
    _check_panel(n, k, tau)
    d = (n - k) * tau
    a = float(exp.alpha(d))
    d1 = float(exp.alpha_d1(d))
    log_m = weight_log_moment(n, k, tau, exp)
    pow_m = weight_power_moment(n, k, tau, exp)
    smooth = weight_smooth_factor(n, k, tau, exp)
    return (-d1 * log_m + smooth * pow_m) / gamma(1.0 - a)


def assemble_weights(n_steps: int, tau: float,
                     exp: VariableExponent) -> np.ndarray:
    """Compute the lag vector for an N-step grid in one vectorised pass.

    The result has n_steps entries, lag[j] = b(n, k) for n - k = j.
    Lag j is the panel (n, k) = (j + 1, 1) of memory_weight, evaluated
    for all lags at once with the exponent called on the lag array.
    The exponent is assumed admissible.  The first lag whose
    Gamma(1 - alpha) is out of range (alpha >= 1 or alpha < -170) or
    whose weight is not finite raises SolverError naming that lag.
    """
    if n_steps < 1:
        raise ValidationError(f"need at least one step, got {n_steps}")
    if not tau > 0.0:
        raise ValidationError(f"step size must be positive, got {tau}")
    d = tau * np.arange(n_steps)          # lag of panel j
    e = tau * np.arange(1, n_steps + 1)   # far end of panel j
    a = np.broadcast_to(np.asarray(exp.alpha(d), float), d.shape)
    d1 = np.broadcast_to(np.asarray(exp.alpha_d1(d), float), d.shape)
    one_m = 1.0 - a
    # Gamma(1 - a) and psi(1 - a) need 0 < 1 - a (False for NaN), and
    # Gamma overflows past 171.6
    ok = (one_m > 0.0) & (one_m < 171.0)
    with np.errstate(all="ignore"):
        one_m = np.where(ok, one_m, 1.0)
        e_pow = e ** one_m
        d_pow = d ** one_m
        log_m = e_pow / one_m * (np.log(e) - 1.0 / one_m)
        # x ln x -> 0 at the singular end of the diagonal panel
        log_m[1:] -= d_pow[1:] / one_m[1:] * (np.log(d[1:]) - 1.0 / one_m[1:])
        pow_m = (e_pow - d_pow) / one_m
        near = d < _RATIO_LIMIT_TIME
        ratio = np.where(near, d1[0], a / np.where(near, 1.0, d))
        smooth = -ratio + digamma(one_m) * d1
        lag = (-d1 * log_m + smooth * pow_m) / gamma(one_m)
    bad = np.flatnonzero(~ok | ~np.isfinite(lag))
    if bad.size:
        j = int(bad[0])
        if not ok[j]:
            raise SolverError(
                f"weight evaluation failed at lag {j} (entries n-k={j}, "
                f"e.g. n={j + 1}, k=1): Gamma(1 - alpha) out of range for "
                f"alpha = {a[j]!r}")
        raise SolverError(
            f"non-finite memory weight at lag {j} (n={j + 1}, k=1)")
    return lag
