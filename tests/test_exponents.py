import math

import numpy as np
import pytest

from msdiff.errors import ValidationError
from msdiff.exponents import (CaseClass, VariableExponent,
                              example_exponent_1, example_exponent_2,
                              exponent_by_name, figure_transition_exponent,
                              tabulated_exponent, validate_assumption_a,
                              zero_exponent)


def test_example1_is_valid_case1():
    exp = example_exponent_1(1.0)
    report = validate_assumption_a(exp, 1.0)
    assert report.case_class is CaseClass.CASE1
    assert report.max_alpha <= exp.alpha_star
    assert report.fd_err_d1 < 1e-6 and report.fd_err_d2 < 1e-6


def test_example2_is_valid_case1():
    exp = example_exponent_2(1.0)
    report = validate_assumption_a(exp, 1.0)
    assert report.case_class is CaseClass.CASE1


def test_zero_exponent_is_case3():
    report = validate_assumption_a(zero_exponent(), 1.0)
    assert report.case_class is CaseClass.CASE3
    assert report.max_alpha == 0.0


def test_figure_profile_is_case3():
    # the sine term kills alpha' and alpha'' at both endpoints
    exp = figure_transition_exponent(8.0, 0.4)
    report = validate_assumption_a(exp, 8.0)
    assert report.case_class is CaseClass.CASE3


def test_figure_profile_endpoint_values():
    exp = figure_transition_exponent(8.0, 0.4)
    assert float(exp.alpha(0.0)) == pytest.approx(0.0, abs=1e-14)
    assert float(exp.alpha(8.0)) == pytest.approx(0.4, abs=1e-14)
    assert float(exp.alpha_d1(0.0)) == pytest.approx(0.0, abs=1e-14)
    assert float(exp.alpha_d1(8.0)) == pytest.approx(0.0, abs=1e-14)
    # monotone ramp
    t = np.linspace(0.0, 8.0, 200)
    assert np.all(np.diff(exp.alpha(t)) >= -1e-15)


def test_case2_profile_classification():
    exp = VariableExponent(
        name="quadratic",
        alpha=lambda t: 0.5 * np.asarray(t, float) ** 2,
        alpha_d1=lambda t: np.asarray(t, float),
        alpha_d2=lambda t: np.ones_like(np.asarray(t, float)),
        alpha_star=0.5,
        deriv_bound=1.0,
    )
    assert validate_assumption_a(exp, 1.0).case_class is CaseClass.CASE2


def test_rejects_nonzero_alpha_at_origin():
    exp = VariableExponent(
        name="offset",
        alpha=lambda t: 0.1 + 0.0 * np.asarray(t, float),
        alpha_d1=lambda t: 0.0 * np.asarray(t, float),
        alpha_d2=lambda t: 0.0 * np.asarray(t, float),
        alpha_star=0.2,
        deriv_bound=0.0,
    )
    with pytest.raises(ValidationError, match="alpha\\(0\\)"):
        validate_assumption_a(exp, 1.0)


def test_rejects_alpha_star_at_or_above_one():
    exp = VariableExponent(
        name="steep",
        alpha=lambda t: 1.05 * np.asarray(t, float),
        alpha_d1=lambda t: 1.05 + 0.0 * np.asarray(t, float),
        alpha_d2=lambda t: 0.0 * np.asarray(t, float),
        alpha_star=1.05,
        deriv_bound=1.05,
    )
    with pytest.raises(ValidationError, match="alpha_star"):
        validate_assumption_a(exp, 1.0)


def test_rejects_exponent_leaving_declared_range():
    exp = VariableExponent(
        name="liar",
        alpha=lambda t: 0.9 * np.asarray(t, float),
        alpha_d1=lambda t: 0.9 + 0.0 * np.asarray(t, float),
        alpha_d2=lambda t: 0.0 * np.asarray(t, float),
        alpha_star=0.5,  # claims less than the actual sup 0.9
        deriv_bound=1.0,
    )
    with pytest.raises(ValidationError, match="leaves"):
        validate_assumption_a(exp, 1.0)


def test_rejects_inconsistent_derivative():
    exp = VariableExponent(
        name="wrong-slope",
        alpha=lambda t: 1.0 - np.exp(-np.asarray(t, float)),
        alpha_d1=lambda t: 0.5 * np.exp(-np.asarray(t, float)),  # off by 2x
        alpha_d2=lambda t: -np.exp(-np.asarray(t, float)),
        alpha_star=1.0 - math.exp(-1.0),
        deriv_bound=1.0,
    )
    with pytest.raises(ValidationError, match="finite differences"):
        validate_assumption_a(exp, 1.0)


def test_rejects_a_derivative_above_its_bound():
    exp = example_exponent_1(1.0)
    exp.deriv_bound = 0.5  # |alpha'(0)| = 1
    with pytest.raises(ValidationError, match="derivative bound 0.5 violated"):
        validate_assumption_a(exp, 1.0)


def test_rejects_bad_sampling_parameters(exp_ex1):
    with pytest.raises(ValidationError):
        validate_assumption_a(exp_ex1, -1.0)
    with pytest.raises(ValidationError):
        validate_assumption_a(exp_ex1, math.inf)


def test_example2_invalid_beyond_pi():
    # sin(t) goes negative after t = pi, violating 0 <= alpha
    exp = example_exponent_2(3.5)
    with pytest.raises(ValidationError):
        validate_assumption_a(exp, 3.5)


def test_tabulated_exponent_tracks_its_samples():
    t = np.linspace(0.0, 1.0, 33)
    exp = tabulated_exponent(t, 1.0 - np.exp(-t))
    report = validate_assumption_a(exp, 1.0)
    assert report.case_class is CaseClass.CASE1
    # spline reproduces the sampled values
    assert float(exp.alpha(0.5)) == pytest.approx(1.0 - math.exp(-0.5),
                                                  abs=1e-6)


def test_tabulated_exponent_rejects_bad_samples():
    with pytest.raises(ValidationError):
        tabulated_exponent([0.0, 0.5, 1.0], [0.0, 0.1, 0.2])  # too few
    with pytest.raises(ValidationError):
        tabulated_exponent([0.1, 0.5, 0.8, 1.0], [0.0, 0.1, 0.15, 0.2])
    with pytest.raises(ValidationError, match="overflows"):
        tabulated_exponent([0.0, 1e-200, 0.5, 1.0], [0.0, 0.1, 0.2, 0.3])
    with pytest.raises(ValidationError, match="strictly increasing"):
        tabulated_exponent([0.0, 0.5, 0.25, 1.0], [0.0, 0.1, 0.2, 0.3])


def test_exponent_registry_names(tmp_path):
    for name in ("exp-example1", "exp-example2", "zero"):
        exp = exponent_by_name(name, 1.0)
        assert exp.name == name
    exp = exponent_by_name("exp-figure1", 8.0, alpha_end=0.4)
    assert float(exp.alpha(8.0)) == pytest.approx(0.4)
    # any other name is the path of a sample file
    with pytest.raises(ValidationError, match="cannot read table"):
        exponent_by_name(str(tmp_path / "nope"), 1.0)


def test_tabulated_exponent_with_knots_around_a_sample_validates():
    # knot pairs 0.003 apart bracket T (2 + g) / 41 and T (3 - g) / 41,
    # both golden-ratio times of slot 2: a second difference of alpha
    # across a knot is first order, so checking alpha'' by one would
    # refuse this admissible table
    g = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = (3.0 - g) / 41.0, (2.0 + g) / 41.0
    exp = tabulated_exponent([0.0, a - 0.003, a, b, b + 0.003, 0.6, 1.0],
                             [0.0, 0.1, 0.102, 0.108, 0.11, 0.5, 0.8])
    report = validate_assumption_a(exp, 1.0)
    assert report.fd_err_d1 <= 1e-6 and report.fd_err_d2 <= 1e-6


def test_tabulated_bounds_cover_the_knots():
    # alpha'' of a cubic spline is linear between knots, so its peak
    # sits on a knot that an evenly spaced grid can step over
    exp = tabulated_exponent([0.0, 0.1, 0.3, 0.7, 1.0],
                             [0.0, 0.1, 0.3, 0.6, 0.8])
    report = validate_assumption_a(exp, 1.0)
    assert report.max_abs_d2 <= exp.deriv_bound


@pytest.mark.parametrize("which,label", [("alpha", "alpha"),
                                         ("alpha_d1", "alpha'"),
                                         ("alpha_d2", "alpha''")])
def test_rejects_non_finite_samples(which, label):
    # NaN fails every comparison, so range, bound and stencil checks
    # alone would let it through
    exp = example_exponent_1(1.0)
    clean = getattr(exp, which)

    def holed(t):
        t = np.asarray(t, float)
        return np.where(np.abs(t - 0.5) < 0.01, np.nan, clean(t))

    setattr(exp, which, holed)
    with pytest.raises(ValidationError,
                       match=f"{label} is not finite at t = 0.49"):
        validate_assumption_a(exp, 1.0)


@pytest.mark.parametrize("T", [1e-12, 1e-8, 1e-4, 1e-2, 0.1, 1.0])
@pytest.mark.parametrize("name", ["exp-example1", "exp-example2",
                                  "exp-figure1", "zero"])
def test_builtin_profiles_validate_on_any_horizon(name, T):
    report = validate_assumption_a(exponent_by_name(name, T), T)
    assert report.fd_err_d1 <= 1e-6 and report.fd_err_d2 <= 1e-6


@pytest.mark.parametrize("name,T", [
    ("exp-example1", 0.01), ("exp-example1", 1.0), ("exp-example1", 8.0),
    ("exp-example2", 0.01), ("exp-example2", 1.0),
    ("exp-figure1", 0.01), ("exp-figure1", 1.0), ("exp-figure1", 8.0),
])
@pytest.mark.parametrize("which", ["alpha_d1", "alpha_d2"])
def test_rejects_derivative_off_by_two(name, T, which):
    exp = exponent_by_name(name, T)
    exact = getattr(exp, which)
    setattr(exp, which, lambda t: 2.0 * exact(t))
    exp.deriv_bound *= 2.0  # leave the stencil check to find it
    with pytest.raises(ValidationError, match="finite differences"):
        validate_assumption_a(exp, T)


def test_stencils_may_leave_the_horizon():
    # undefined before t = 0: the coarse steps of the points near 0 see
    # NaN, the fine ones match
    exp = VariableExponent(
        name="one-sided",
        alpha=lambda t: np.where(np.asarray(t, float) < 0.0, np.nan,
                                 0.5 * np.asarray(t, float)),
        alpha_d1=lambda t: 0.5 + 0.0 * np.asarray(t, float),
        alpha_d2=lambda t: 0.0 * np.asarray(t, float),
        alpha_star=0.5e-3,
        deriv_bound=0.5,
    )
    report = validate_assumption_a(exp, 1e-3)
    assert report.fd_err_d1 <= 1e-6 and report.fd_err_d2 <= 1e-6


def test_figure_profile_rejects_a_horizon_whose_curvature_overflows():
    with pytest.raises(ValidationError, match="too short"):
        figure_transition_exponent(1e-300, 0.4)


@pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
def test_figure_profile_rejects_horizons_outside_the_positive_reals(T):
    with pytest.raises(ValidationError, match="final time"):
        figure_transition_exponent(T, 0.4)
