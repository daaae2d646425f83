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
    """Gamma function on the positive real axis, element-wise; a scalar
    argument gives a scalar.

    The weights need it on (0, 1] only.  On (1e-20, 1) one array Lanczos
    sum serves every entry: math.gamma's own formula (CPython's
    m_tgamma: _LANCZOS_G, 13 terms, a ratio of two polynomials), with
    y = x + g - 1/2 and z the rounding error of y,

        Gamma(x) = num(x) / den(x) / e^y (1 + z g / y) y^(x - 1/2).

    With the C library's exp and pow it gives math.gamma bit for bit;
    numpy's vector exp and pow differ from those by up to 1 ulp each,
    which leaves it within 4 ulp of math.gamma.  Other arguments, and
    those below 1e-20 (where math.gamma returns 1/x), go through
    math.gamma.
    """
    x = np.asarray(x, float)
    if not np.all(x > 0.0):
        raise ValidationError(f"gamma requires positive arguments, got {x}")
    values = np.empty(x.shape)
    near = (x > 1e-20) & (x < 1.0)
    values[near] = _lanczos_gamma(x[near])
    far = x[~near].tolist()
    values[~near] = np.fromiter(map(math.gamma, far), float, len(far))
    return values[()]


# Lanczos sum with g = _LANCZOS_G and 13 terms (math.gamma's): the
# coefficients of x^0..x^12 in its numerator and in its denominator
# x (x + 1) ... (x + 11)
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    23531376880.410759688572007674451636754734846804940,
    42919803642.649098768957899047001988850926355848959,
    35711959237.355668049440185451547166705960488635843,
    17921034426.037209699919755754458931112671403265390,
    6039542586.3520280050642916443072979210699388420708,
    1439720407.3117216736632230727949123939715485786772,
    248874557.86205415651146038641322942321632125127801,
    31426415.585400194380614231628318205362874684987640,
    2876370.6289353724412254090516208496135991145378768,
    186056.26539522349504029498971604569928220784236328,
    8071.6720023658162106380029022722506138218516325024,
    210.82427775157934587250973392071336271166969580291,
    2.5066282746310002701649081771338373386264310793408,
)
_LANCZOS_DEN = (0.0, 39916800.0, 120543840.0, 150917976.0, 105258076.0,
                45995730.0, 13339535.0, 2637558.0, 357423.0, 32670.0,
                1925.0, 66.0, 1.0)


def _lanczos_gamma(x: np.ndarray) -> np.ndarray:
    """Gamma(x) for a 1-d array x in (1e-20, 1) (see gamma)."""
    num = np.full(x.shape, _LANCZOS_NUM[-1])
    den = np.full(x.shape, _LANCZOS_DEN[-1])
    for a, b in zip(_LANCZOS_NUM[-2::-1], _LANCZOS_DEN[-2::-1]):
        num *= x
        num += a
        den *= x
        den += b
    y = x + (_LANCZOS_G - 0.5)
    z = (y - (_LANCZOS_G - 0.5) - x) * _LANCZOS_G / y
    r = num / den / np.exp(y)
    r += z * r
    return r * y ** (x - 0.5)


def digamma(x):
    """psi(x) = Gamma'(x) / Gamma(x) for x > 0, element-wise for arrays.

    The argument is shifted upward by ten with psi(x) = psi(x + 1) - 1/x,
    so the asymptotic series

        psi(z) = ln z - 1/(2z) - sum_k B_{2k} / (2k z^{2k})

    is evaluated at z >= 10, where it is accurate to full double
    precision.  psi(1) equals minus the Euler constant.  A scalar
    argument gives a scalar.
    """
    x = np.asarray(x, float)
    if not np.all(x > 0.0):
        raise ValidationError(f"digamma requires positive arguments, got {x}")
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
    return (shift + np.log(z) - 0.5 / z - tail)[()]
