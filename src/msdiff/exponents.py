"""Time-varying diffusion exponents alpha(t) and their admissibility checks.

An exponent enters the model only through alpha, alpha' and alpha'' on
[0, T].  Admissibility means: alpha(0) = 0 exactly, 0 <= alpha(t) <=
alpha_star < 1, and both derivatives bounded.  The behaviour of the
memory kernel near t = 0 is governed by which derivative of alpha
vanishes at zero; that is captured by the three-way case classification
(case 1: alpha'(0) != 0, case 2: alpha'(0) = 0 != alpha''(0), case 3:
both vanish).

The derivatives are supplied by the caller as plain callables and are
cross-validated against central finite differences instead of being
produced by symbolic or automatic differentiation.  All callables must
be numpy-vectorized (accept arrays, return arrays).
"""

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SolverError, ValidationError
from .fem import TriDiagonalMatrix

# |alpha'(0)| or |alpha''(0)| below this threshold counts as zero for the
# case classification: well above double-precision noise, well below any
# physically meaningful derivative.
ZERO_DERIVATIVE_TOL = 1e-10

_ALPHA_AT_ZERO_TOL = 1e-14
_FD_REL_TOL = 1e-6
# uniform sample grid of the range, bound and finiteness checks
_N_SAMPLES = 2001
# slots of the finite-difference check, one sample time each
_N_FD_SLOTS = 41
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


class CaseClass(enum.Enum):
    CASE1 = "case1"
    CASE2 = "case2"
    CASE3 = "case3"


@dataclass
class VariableExponent:
    """alpha(t) together with its first two derivatives and bounds.

    alpha_star bounds alpha from above on [0, T]; deriv_bound bounds
    |alpha'| and |alpha''|.
    """

    name: str
    alpha: Callable[[np.ndarray], np.ndarray]
    alpha_d1: Callable[[np.ndarray], np.ndarray]
    alpha_d2: Callable[[np.ndarray], np.ndarray]
    alpha_star: float
    deriv_bound: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the admissibility check on a sample grid."""

    name: str
    horizon: float
    alpha_at_zero: float
    max_alpha: float
    max_abs_d1: float
    max_abs_d2: float
    fd_err_d1: float
    fd_err_d2: float
    case_class: CaseClass


def validate_assumption_a(exp: VariableExponent, T: float) -> ValidationReport:
    """Check admissibility of an exponent on [0, T] and classify its case.

    alpha, alpha' and alpha'' are sampled once, on a uniform grid of
    [0, T]; its first point, t = 0, gives alpha(0) and the case class.
    Raises ValidationError when any clause fails, in this order:
    alpha(0) != 0, alpha_star >= 1, a non-finite sample of alpha, alpha'
    or alpha'', alpha(t) outside [0, alpha_star], a derivative exceeding
    deriv_bound, or a supplied derivative inconsistent with central
    finite differences of the function it differentiates.  On success
    returns a report that carries the case classification.
    """
    if not 0.0 < T < math.inf:
        raise ValidationError(f"horizon must be positive and finite, got {T}")

    t = np.linspace(0.0, T, _N_SAMPLES)
    a = np.asarray(exp.alpha(t), dtype=float)
    d1 = np.asarray(exp.alpha_d1(t), dtype=float)
    d2 = np.asarray(exp.alpha_d2(t), dtype=float)
    a0 = float(a[0])
    if not abs(a0) <= _ALPHA_AT_ZERO_TOL:
        raise ValidationError(
            f"exponent {exp.name!r}: alpha(0) = {a0!r} must vanish")

    if not (0.0 <= exp.alpha_star < 1.0):
        raise ValidationError(
            f"exponent {exp.name!r}: alpha_star = {exp.alpha_star} "
            "must lie in [0, 1)")

    for label, values in (("alpha", a), ("alpha'", d1), ("alpha''", d2)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValidationError(
                f"exponent {exp.name!r}: {label} is not finite at "
                f"t = {float(t[bad[0]])!r}")

    if a.min() < -1e-14 or a.max() > exp.alpha_star + 1e-12:
        raise ValidationError(
            f"exponent {exp.name!r}: alpha leaves [0, {exp.alpha_star}] "
            f"on [0, {T}] (range [{a.min()}, {a.max()}])")

    bound = exp.deriv_bound
    slack = 1e-9 * (1.0 + bound)
    max_d1, max_d2 = float(np.abs(d1).max()), float(np.abs(d2).max())
    if not (max_d1 <= bound + slack and max_d2 <= bound + slack):
        raise ValidationError(
            f"exponent {exp.name!r}: derivative bound {bound} violated "
            f"(max |a'| = {max_d1}, max |a''| = {max_d2})")

    fd_err_d1, fd_err_d2 = _finite_difference_check(exp, T)
    if not (fd_err_d1 <= _FD_REL_TOL and fd_err_d2 <= _FD_REL_TOL):
        raise ValidationError(
            f"exponent {exp.name!r}: supplied derivatives disagree with "
            f"finite differences (rel errors {fd_err_d1:.2e}, {fd_err_d2:.2e})")

    case = (CaseClass.CASE1 if abs(d1[0]) >= ZERO_DERIVATIVE_TOL else
            CaseClass.CASE2 if abs(d2[0]) >= ZERO_DERIVATIVE_TOL else
            CaseClass.CASE3)
    return ValidationReport(exp.name, T, a0, float(a.max()), max_d1, max_d2,
                            fd_err_d1, fd_err_d2, case)


def _finite_difference_check(exp, T):
    """Scaled mismatch of alpha' with central differences of alpha and of
    alpha'' with central differences of alpha'.

    Slot i of the _N_FD_SLOTS slots samples t = T (i + g) / _N_FD_SLOTS
    for the golden ratio fraction g, an irrational offset that misses
    the knots of a table sampled at rational times.  The steps h run
    1e-2 max(T, 1) 10^-k, k = 0, 1, ..., down to 1e-9 T, for profiles on
    a unit time scale and on the time scale T; t +- h may leave [0, T].
    A first difference rounds like eps / h, so the steps can shrink
    inside any knot spacing of a spline, whose next derivative jumps at
    a knot.  Each slot keeps its best step, so an exact derivative
    matches where truncation and rounding error are both small and a
    wrong one matches nowhere.  Returns the worst slot of
    |fd - d| / max(1, max |d|) for each derivative, inf where every
    stencil is non-finite.
    """
    decades = 7 + math.ceil(max(0.0, -math.log10(T)))
    h = 1e-2 * max(T, 1.0) * 10.0 ** -np.arange(decades + 1.0)[:, None]
    t = T / _N_FD_SLOTS * (np.arange(_N_FD_SLOTS) + _GOLDEN)
    return (_mismatch(exp.alpha, exp.alpha_d1, t, h),
            _mismatch(exp.alpha_d1, exp.alpha_d2, t, h))


def _mismatch(f, df, t, h):
    """Worst slot of the best step (row) of |(f(t+h) - f(t-h))/2h - df(t)|."""
    d = np.asarray(df(t), float)
    shifted = np.concatenate([t + h, t - h])
    up, down = np.split(
        np.asarray(f(shifted.ravel()), float).reshape(shifted.shape), 2)
    with np.errstate(all="ignore"):
        err = np.abs((up - down) / (2.0 * h) - d)
    err = np.where(np.isnan(err), np.inf, err)
    return float(err.min(axis=0).max() / max(1.0, float(np.abs(d).max())))


# ---------------------------------------------------------------------------
# Built-in profiles


def example_exponent_1(T: float = 1.0) -> VariableExponent:
    """alpha(t) = 1 - exp(-t): alpha'(0) = 1, the classic case-1 profile."""
    return VariableExponent(
        name="exp-example1",
        alpha=lambda t: 1.0 - np.exp(-np.asarray(t, float)),
        alpha_d1=lambda t: np.exp(-np.asarray(t, float)),
        alpha_d2=lambda t: -np.exp(-np.asarray(t, float)),
        alpha_star=1.0 - math.exp(-T),
        deriv_bound=1.0,
    )


def example_exponent_2(T: float = 1.0) -> VariableExponent:
    """alpha(t) = sin(t); admissible for T < pi/2 (alpha_star = sin T)."""
    return VariableExponent(
        name="exp-example2",
        alpha=lambda t: np.sin(np.asarray(t, float)),
        alpha_d1=lambda t: np.cos(np.asarray(t, float)),
        alpha_d2=lambda t: -np.sin(np.asarray(t, float)),
        alpha_star=math.sin(min(T, 0.5 * math.pi)),
        deriv_bound=1.0,
    )


def figure_transition_exponent(T: float = 8.0,
                               alpha_end: float = 0.4) -> VariableExponent:
    """Smooth monotone ramp from 0 at t=0 to alpha_end at t=T.

    alpha(t) = alpha_end * (t/T + sin(2 pi (1 - t/T)) / (2 pi)); the sine
    term makes alpha' vanish at both endpoints, so this profile is case 3.
    """
    if not 0.0 < alpha_end < 1.0:
        raise ValidationError(
            f"terminal exponent must lie in (0, 1), got {alpha_end}")
    if not 0.0 < T < math.inf:
        raise ValidationError(f"final time must lie in (0, inf), got {T}")
    two_pi = 2.0 * math.pi
    deriv_bound = max(2.0 * alpha_end / T, two_pi * alpha_end / T / T)
    if not math.isfinite(deriv_bound):  # alpha'' overflows
        raise ValidationError(f"final time {T} is too short for exp-figure1")

    def alpha(t):
        s = np.asarray(t, float) / T
        return alpha_end * (s + np.sin(two_pi * (1.0 - s)) / two_pi)

    def alpha_d1(t):
        s = np.asarray(t, float) / T
        return alpha_end * (1.0 - np.cos(two_pi * (1.0 - s))) / T

    def alpha_d2(t):
        s = np.asarray(t, float) / T
        return -alpha_end * two_pi * np.sin(two_pi * (1.0 - s)) / (T * T)

    return VariableExponent(
        name="exp-figure1",
        alpha=alpha,
        alpha_d1=alpha_d1,
        alpha_d2=alpha_d2,
        alpha_star=alpha_end,
        deriv_bound=deriv_bound,
    )


def zero_exponent() -> VariableExponent:
    """alpha identically 0: the model degenerates to classical diffusion."""
    flat = lambda t: 0.0 * np.asarray(t, float)
    return VariableExponent(
        name="zero",
        alpha=flat,
        alpha_d1=flat,
        alpha_d2=flat,
        alpha_star=0.0,
        deriv_bound=0.0,
    )


def tabulated_exponent(times, values, name: str = "table") -> VariableExponent:
    """Cubic-spline exponent through user samples (t_i, alpha_i).

    The sample set must start at t = 0 with alpha = 0.  Derivatives are
    the analytic spline derivatives.  Bounds are taken on a dense grid
    that includes the knots, where the piecewise-linear alpha'' peaks,
    with a pad for alpha and alpha' from the next derivative, so the
    suprema between grid points stay below them.
    """
    times = np.asarray(times, float)
    values = np.asarray(values, float)
    if times.ndim != 1 or times.size < 4 or values.shape != times.shape:
        raise ValidationError(f"{name}: need at least 4 samples for a cubic "
                              "exponent, one value per time")
    if times[0] != 0.0 or abs(values[0]) > _ALPHA_AT_ZERO_TOL:
        raise ValidationError(f"{name}: exponent samples must start at (0, 0)")

    spline = cubic_spline(times, values, name)
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)

    grid = np.union1d(np.linspace(times[0], times[-1], 8193), times)
    gap2 = 0.125 * np.diff(grid).max() ** 2
    curve = float(np.abs(d2(grid)).max())
    jerk = 6.0 * float(np.abs(spline.c[0]).max())  # max |alpha'''|
    return VariableExponent(
        name=name,
        alpha=spline,
        alpha_d1=d1,
        alpha_d2=d2,
        alpha_star=float(spline(grid).max()) + gap2 * curve + 1e-12,
        deriv_bound=max(float(np.abs(d1(grid)).max()) + gap2 * jerk,
                        curve) + 1e-12,
    )


class PiecewisePolynomial:
    """Pieces c[:, i] on [x[i], x[i+1]] in powers of t - x[i], highest
    first, as in scipy's PPoly.c; the end pieces extend past the ends."""

    def __init__(self, c: np.ndarray, x: np.ndarray):
        self.c, self.x = c, x

    def __call__(self, t):
        t = np.asarray(t, float)
        i = np.clip(np.searchsorted(self.x, t, "right") - 1, 0,
                    self.x.size - 2)
        out = self.c[0, i]
        for row in self.c[1:]:  # Horner in t - x[i]
            out = out * (t - self.x[i]) + row[i]
        return out

    def derivative(self, k: int = 1) -> "PiecewisePolynomial":
        c = self.c
        for _ in range(k):
            c = c[:-1] * np.arange(len(c) - 1, 0, -1)[:, None]
        return PiecewisePolynomial(c, self.x)


def cubic_spline(times, values, source: str) -> PiecewisePolynomial:
    """Not-a-knot cubic spline through the samples, as scipy's
    CubicSpline builds it: fem's Thomas solver solves scipy's rows for
    the knot slopes s.  ValidationError naming source for fewer than 2
    samples, knots that do not increase strictly, knots too close to
    fit (a near-zero pivot) or a spline that overflows."""
    x, y = np.asarray(times, float), np.asarray(values, float)
    if x.ndim != 1 or y.shape != x.shape or x.size < 2:
        raise ValidationError(
            f"{source}: need at least 2 samples, one value per knot")
    dx = np.diff(x)
    if not np.all(dx > 0.0):
        raise ValidationError(
            f"{source}: knots must be strictly increasing")
    with np.errstate(all="ignore"):
        slope = np.diff(y) / dx
        if x.size < 4:  # a line through 2 samples, a parabola through 3
            k = x.size - 2.0  # s[0] + k s[1] = (1 + k) slope[0], mirrored
            head = (1.0, k, (1.0 + k) * slope[0])
            tail = (k, 1.0, (1.0 + k) * slope[-1])
        else:  # not-a-knot: one cubic across each pair of end pieces
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            head = (dx[1], d0, ((dx[0] + 2.0 * d0) * dx[1] * slope[0]
                                + dx[0] ** 2 * slope[1]) / d0)
            tail = (d1, dx[-2], (dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1])
                                 * dx[-2] * slope[-1]) / d1)
        rows = TriDiagonalMatrix(
            sub=np.r_[dx[1:], tail[0]], sup=np.r_[head[1], dx[:-1]],
            diag=np.r_[head[0], 2.0 * (dx[:-1] + dx[1:]), tail[1]])
        try:
            s = rows.factor().solve(np.r_[head[2], 3.0 * (
                dx[1:] * slope[:-1] + dx[:-1] * slope[1:]), tail[2]])
        except SolverError as err:
            raise ValidationError(
                f"{source}: knots too close to fit a spline ({err})") from err
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        c = np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])
    if not np.all(np.isfinite(c)):
        raise ValidationError(f"{source}: the cubic spline overflows")
    return PiecewisePolynomial(c, x)


def read_table_csv(path: str, columns: str) -> np.ndarray:
    """Rows of a two-column numeric CSV file ('#' starts a comment), after
    a first row naming the `columns` if there is one.  A file that cannot
    be read, holds other non-numeric text, a non-finite entry or another
    column count raises ValidationError naming the file."""
    try:
        with open(path, encoding="utf-8-sig") as file:
            head = [name.strip() for name in file.readline().split(",")]
        with warnings.catch_warnings():
            # an empty file warns; the column check below reports it
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2,
                              encoding="utf-8-sig",
                              skiprows=int(head == columns.split(",")))
    except (OSError, ValueError) as err:
        raise ValidationError(f"cannot read table {path}: {err}") from err
    if data.shape[1] != 2:
        raise ValidationError(f"{path}: expected two columns {columns}")
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{path}: non-finite entry in columns {columns}")
    return data


# name -> builder (T, alpha_end) of the built-in profiles
EXPONENTS = {
    "exp-example1": lambda T, alpha_end: example_exponent_1(T),
    "exp-example2": lambda T, alpha_end: example_exponent_2(T),
    "exp-figure1": figure_transition_exponent,
    "zero": lambda T, alpha_end: zero_exponent(),
}


def exponent_by_name(name: str, T: float,
                     alpha_end: float = 0.4) -> VariableExponent:
    """A built-in profile of EXPONENTS, or else the spline through the
    t,alpha table at the path name, which must reach the final time T."""
    if name in EXPONENTS:
        return EXPONENTS[name](T, alpha_end)
    data = read_table_csv(name, "t,alpha")
    exp = tabulated_exponent(data[:, 0], data[:, 1], name)
    last = float(data[-1, 0])
    if T > last:
        raise ValidationError(
            f"{name}: the last exponent sample is at t = {last}, "
            f"before the final time T = {T}; the spline would "
            "extrapolate")
    return exp
