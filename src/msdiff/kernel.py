"""Memory kernel of the reformulated multiscale model.

With a time-varying exponent the fractional term is equivalent to a
convolution correction of the heat equation.  The kernel is

    g(t) = d/dt p(t),      p(t) = t^(-alpha(t)) / Gamma(1 - alpha(t)),

and factorises as g = p * G where G is the logarithmic derivative of p:

    G(t) = -alpha'(t) ln t - alpha(t)/t + psi(1 - alpha(t)) alpha'(t).

Because alpha(0) = 0 the prefactor p(t) tends to 1 as t -> 0+, which
gives the antiderivative identity  int_0^t g = p(t) - 1  used as the
main correctness anchor.  g itself is integrable but unbounded at 0
whenever alpha'(0) != 0, so every evaluation here requires t > 0.

Each function takes one time or an array of times (every entry
checked) and returns a scalar for a scalar, an array for an array.
"""

import numpy as np

from .errors import ValidationError
from .exponents import VariableExponent
from .special import digamma, gamma

# Below this time the difference quotient alpha(t)/t is replaced by its
# limit alpha'(0).
_RATIO_LIMIT_TIME = 1e-12


def _require_positive_time(t) -> np.ndarray:
    t = np.asarray(t, float)
    if not np.all(t > 0.0):
        raise ValidationError(f"kernel evaluation requires t > 0, got "
                              f"{np.min(t)}")
    return t


def kernel_prefactor(exp: VariableExponent, t):
    """p(t) = t^(-alpha(t)) / Gamma(1 - alpha(t)), computed via exp/log.

    Finite on (0, T] and -> 1 as t -> 0+ (alpha(t) ln t vanishes there).
    """
    t = _require_positive_time(t)
    a = exp.alpha(t)
    return (np.exp(-a * np.log(t)) / gamma(1.0 - a))[()]


def smooth_factor(exp: VariableExponent, t):
    """Log-free part of G:  R(t) = -alpha(t)/t + psi(1 - alpha(t)) alpha'(t).

    Defined for t >= 0; at t = 0 the difference quotient becomes
    alpha'(0) and psi(1) = -euler_gamma, so the limit is
    -alpha'(0) (1 + euler_gamma).
    """
    t = np.asarray(t, float)
    if not np.all(t >= 0.0):
        raise ValidationError(f"smooth_factor requires t >= 0, got "
                              f"{np.min(t)}")
    a = exp.alpha(t)
    near = t < _RATIO_LIMIT_TIME
    ratio = np.where(near, exp.alpha_d1(0.0), a / np.where(near, 1.0, t))
    return (-ratio + digamma(1.0 - a) * exp.alpha_d1(t))[()]


def log_derivative_factor(exp: VariableExponent, t):
    """G(t) = -alpha'(t) ln t + smooth part; the factor g/p."""
    t = _require_positive_time(t)
    return (-exp.alpha_d1(t) * np.log(t) + smooth_factor(exp, t))[()]


def kernel_value(exp: VariableExponent, t):
    """Full kernel g(t) = p(t) G(t) for t > 0."""
    return kernel_prefactor(exp, t) * log_derivative_factor(exp, t)
