"""Gamma-family special functions used by the memory kernel.

The solver only ever needs Gamma(1 - a) and psi(1 - a) with an exponent
0 <= a < 1, so arguments live in (0, 1]; both routines nevertheless
accept any positive argument, and arrays of them.
"""

import math

import numpy as np

from .errors import ValidationError

EULER_GAMMA = 0.5772156649015328606

# B_{2k} / (2k) for k = 1..7, the asymptotic tail of psi.
_PSI_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def gamma(x):
    """Gamma function on the positive real axis.

    Arrays are mapped element-wise through math.gamma.
    """
    if np.ndim(x) == 0:
        if not x > 0.0:
            raise ValidationError(
                f"gamma requires a positive argument, got {x}")
        return math.gamma(x)
    arr = np.asarray(x, float)
    if not np.all(arr > 0.0):
        raise ValidationError(f"gamma requires positive arguments, got {x}")
    return np.array([math.gamma(v) for v in arr.ravel().tolist()]).reshape(
        arr.shape)


def digamma(x):
    """psi(x) = Gamma'(x) / Gamma(x) for x > 0, element-wise for arrays.

    The argument is shifted upward by ten with psi(x) = psi(x + 1) - 1/x,
    so the asymptotic series

        psi(z) = ln z - 1/(2z) - sum_k B_{2k} / (2k z^{2k})

    is evaluated at z >= 10, where it is accurate to full double
    precision.  psi(1) equals minus the Euler constant.
    """
    x = float(x) if np.ndim(x) == 0 else np.asarray(x, float)
    if not np.all(x > 0.0):
        raise ValidationError(f"digamma requires a positive argument, got {x}")
    shift = 0.0
    for i in range(10):
        shift -= 1.0 / (x + i)
    z = x + 10.0
    inv_sq = 1.0 / (z * z)
    tail = 0.0
    power = inv_sq
    for coeff in _PSI_TAIL:
        tail += coeff * power
        power = power * inv_sq
    return shift + np.log(z) - 0.5 / z - tail
