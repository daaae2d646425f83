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
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError

# |alpha'(0)| or |alpha''(0)| below this threshold counts as zero for the
# case classification: well above double-precision noise, well below any
# physically meaningful derivative.
ZERO_DERIVATIVE_TOL = 1e-10

_ALPHA_AT_ZERO_TOL = 1e-14
_FD_REL_TOL = 1e-6
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


class CaseClass(enum.Enum):
    CASE1 = "case1"
    CASE2 = "case2"
    CASE3 = "case3"
    UNCLASSIFIED = "unclassified"


@dataclass
class VariableExponent:
    """alpha(t) together with its first two derivatives and bounds.

    alpha_star bounds alpha from above on [0, T]; deriv_bound bounds
    |alpha'| and |alpha''|.  case_class is filled in by
    validate_assumption_a.
    """

    name: str
    alpha: Callable[[np.ndarray], np.ndarray]
    alpha_d1: Callable[[np.ndarray], np.ndarray]
    alpha_d2: Callable[[np.ndarray], np.ndarray]
    alpha_star: float
    deriv_bound: float
    case_class: CaseClass = CaseClass.UNCLASSIFIED


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the admissibility check on a sample grid."""

    name: str
    horizon: float
    n_samples: int
    alpha_at_zero: float
    max_alpha: float
    max_abs_d1: float
    max_abs_d2: float
    fd_err_d1: float
    fd_err_d2: float
    case_class: CaseClass


def validate_assumption_a(exp: VariableExponent, T: float,
                          n_samples: int = 2001) -> ValidationReport:
    """Check admissibility of an exponent on [0, T] and classify its case.

    Raises ValidationError when any clause fails: alpha(0) != 0,
    alpha_star >= 1, a non-finite sample of alpha, alpha' or alpha'',
    alpha(t) outside [0, alpha_star], a derivative exceeding
    deriv_bound, or a supplied derivative inconsistent with central
    finite differences of alpha.  On success the case
    classification is stored on the exponent and a report is returned.
    """
    if not 0.0 < T < math.inf:
        raise ValidationError(f"horizon must be positive and finite, got {T}")
    if n_samples < 2:
        raise ValidationError(f"need at least 2 samples, got {n_samples}")

    a0 = float(exp.alpha(np.float64(0.0)))
    if not abs(a0) <= _ALPHA_AT_ZERO_TOL:
        raise ValidationError(
            f"exponent {exp.name!r}: alpha(0) = {a0!r} must vanish")

    if not (0.0 <= exp.alpha_star < 1.0):
        raise ValidationError(
            f"exponent {exp.name!r}: alpha_star = {exp.alpha_star} "
            "must lie in [0, 1)")

    t = np.linspace(0.0, T, n_samples)
    a = np.asarray(exp.alpha(t), dtype=float)
    d1 = np.asarray(exp.alpha_d1(t), dtype=float)
    d2 = np.asarray(exp.alpha_d2(t), dtype=float)
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
    if not (np.abs(d1).max() <= bound + slack
            and np.abs(d2).max() <= bound + slack):
        raise ValidationError(
            f"exponent {exp.name!r}: derivative bound {bound} violated "
            f"(max |a'| = {np.abs(d1).max()}, max |a''| = {np.abs(d2).max()})")

    fd_err_d1, fd_err_d2 = _finite_difference_check(exp, T)
    if not (fd_err_d1 <= _FD_REL_TOL and fd_err_d2 <= _FD_REL_TOL):
        raise ValidationError(
            f"exponent {exp.name!r}: supplied derivatives disagree with "
            f"finite differences (rel errors {fd_err_d1:.2e}, {fd_err_d2:.2e})")

    case = classify_case(exp)
    exp.case_class = case
    return ValidationReport(
        name=exp.name,
        horizon=T,
        n_samples=n_samples,
        alpha_at_zero=a0,
        max_alpha=float(a.max()),
        max_abs_d1=float(np.abs(d1).max()),
        max_abs_d2=float(np.abs(d2).max()),
        fd_err_d1=fd_err_d1,
        fd_err_d2=fd_err_d2,
        case_class=case,
    )


def classify_case(exp: VariableExponent) -> CaseClass:
    """Case 1 if alpha'(0) != 0, case 2 if only alpha''(0) != 0, else case 3."""
    d1_0 = abs(float(exp.alpha_d1(np.float64(0.0))))
    d2_0 = abs(float(exp.alpha_d2(np.float64(0.0))))
    if d1_0 >= ZERO_DERIVATIVE_TOL:
        return CaseClass.CASE1
    if d2_0 >= ZERO_DERIVATIVE_TOL:
        return CaseClass.CASE2
    return CaseClass.CASE3


def _finite_difference_check(exp, T, n_points=41):
    """Scaled mismatch between supplied derivatives and central stencils.

    Slot i of n_points holds two candidate times T (i + f) / n_points,
    f = g and 1 - g for the golden ratio fraction g: irrational offsets
    miss the knots of a table sampled at rational times, and one knot
    cannot spoil both candidates (a spline's third derivative jumps at a
    knot, where a central stencil is first order).  The steps h run
    1e-2 max(T, 1) 10^-k, k = 0, 1, ..., down to 1e-5 T, for profiles on
    a unit time scale and on the time scale T; t +- h may leave [0, T].
    Each slot keeps its best candidate and step, so an exact derivative
    matches where truncation and rounding error are both small and a
    wrong one matches nowhere.  Returns the worst slot of
    |fd - d| / max(1, max |d|), inf where every stencil is non-finite.
    """
    decades = 3 + math.ceil(max(0.0, -math.log10(T)))
    h = 1e-2 * max(T, 1.0) * 10.0 ** -np.arange(decades + 1.0)[:, None]
    slot = np.arange(n_points)
    t = T / n_points * np.concatenate([slot + _GOLDEN, slot + 1.0 - _GOLDEN])
    a = np.asarray(exp.alpha(t), float)
    d1 = np.asarray(exp.alpha_d1(t), float)
    d2 = np.asarray(exp.alpha_d2(t), float)
    shifted = np.concatenate([t + h, t - h])
    up, down = np.split(
        np.asarray(exp.alpha(shifted.ravel()), float).reshape(shifted.shape),
        2)
    with np.errstate(all="ignore"):
        fd1 = (up - down) / (2.0 * h)
        fd2 = (up - 2.0 * a + down) / (h * h)
        return (_mismatch(fd1, d1, n_points), _mismatch(fd2, d2, n_points))


def _mismatch(fd, d, n_points):
    """Worst slot of the best candidate and step (fd rows are steps)."""
    err = np.abs(fd - d)
    err = np.where(np.isnan(err), np.inf, err).reshape(-1, n_points)
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
    if times.ndim != 1 or times.size < 4:
        raise ValidationError("need at least 4 samples for a cubic exponent")
    if times[0] != 0.0 or abs(values[0]) > _ALPHA_AT_ZERO_TOL:
        raise ValidationError("exponent samples must start at (0, 0)")
    if np.any(np.diff(times) <= 0.0):
        raise ValidationError("sample times must be strictly increasing")

    spline = cubic_spline(times, values, f"exponent {name!r}")
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


def cubic_spline(times, values, source: str):
    """CubicSpline through the samples; ValidationError naming source if
    the fit fails or overflows."""
    from scipy.interpolate import CubicSpline

    with np.errstate(all="ignore"):
        try:
            spline = CubicSpline(times, values)
        except (ValueError, np.linalg.LinAlgError) as err:
            raise ValidationError(f"{source}: {err}") from err
    if not np.all(np.isfinite(spline.c)):
        raise ValidationError(f"{source}: the cubic spline overflows")
    return spline


def read_table_csv(path: str, columns: str) -> np.ndarray:
    """Rows of a two-column numeric CSV file ('#' starts a comment).

    A file that cannot be read, holds non-numeric text, a non-finite
    entry or another column count raises ValidationError naming the file.
    """
    try:
        with warnings.catch_warnings():
            # an empty file warns; the column check below reports it
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", comments="#")
    except (OSError, ValueError) as err:
        raise ValidationError(f"cannot read table {path}: {err}") from err
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValidationError(f"{path}: expected two columns {columns}")
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{path}: non-finite entry in columns {columns}")
    return data


def exponent_by_name(name: str, T: float, alpha_end: float = 0.4,
                     table_path: Optional[str] = None) -> VariableExponent:
    """Build one of the named profiles used by the CLI."""
    if name == "exp-example1":
        return example_exponent_1(T)
    if name == "exp-example2":
        return example_exponent_2(T)
    if name == "exp-figure1":
        return figure_transition_exponent(T, alpha_end)
    if name == "zero":
        return zero_exponent()
    if name == "table":
        if table_path is None:
            raise ValidationError("profile 'table' needs an exponent-table file")
        data = read_table_csv(table_path, "t,alpha")
        last = float(data[-1, 0])
        if T > last:
            raise ValidationError(
                f"{table_path}: the last exponent sample is at t = {last}, "
                f"before the final time T = {T}; the spline would "
                "extrapolate")
        try:
            return tabulated_exponent(data[:, 0], data[:, 1])
        except ValidationError as err:
            raise ValidationError(f"{table_path}: {err}") from err
    raise ValidationError(f"unknown exponent profile {name!r}")
