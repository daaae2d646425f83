import math

import numpy as np
import pytest

from msdiff.errors import ValidationError
from msdiff.special import EULER_GAMMA, digamma, gamma

from oracles import lanczos_gamma, quad_digamma

# psi values from the quadrature oracle, computed ahead of the build
PSI_FROZEN = {
    0.1: -10.42375494041108,
    0.25: -4.2274535333762735,
    0.5: -1.963510026021419,
    0.75: -1.0858608797864722,
    1.0: -0.5772156649015329,
}


def test_digamma_at_one_is_minus_euler():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)


def test_digamma_integral_term_vanishes_at_one():
    # the integrand (1 - t^0)/(1 - t) is identically zero
    assert quad_digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-15)


def test_digamma_half_against_frozen_oracle():
    assert digamma(0.5) == pytest.approx(PSI_FROZEN[0.5], abs=1e-12)
    # closed form -euler - 2 ln 2 as a second, fully independent anchor
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0),
                                         abs=1e-13)


@pytest.mark.parametrize("kappa", sorted(PSI_FROZEN))
def test_digamma_matches_integral_formula(kappa):
    assert digamma(kappa) == pytest.approx(PSI_FROZEN[kappa], abs=1e-12)
    assert digamma(kappa) == pytest.approx(quad_digamma(kappa), abs=1e-12)


def test_array_arguments_match_scalar_calls():
    xs = np.array([1e-3] + sorted(PSI_FROZEN) + [7.5, 12.0, 170.0])
    assert np.array_equal(digamma(xs), [digamma(x) for x in xs])
    assert np.array_equal(gamma(xs), [math.gamma(x) for x in xs])
    with pytest.raises(ValidationError):
        digamma(np.array([0.5, 0.0]))
    with pytest.raises(ValidationError):
        gamma(np.array([0.5, -1.0]))


@pytest.mark.parametrize("fn", [gamma, digamma])
def test_scalar_argument_gives_a_scalar(fn):
    for x in (0.5, np.float64(0.5), np.array(0.5), 2):
        value = fn(x)
        assert isinstance(value, float) and not isinstance(value, np.ndarray)
        assert value == fn(np.array([x]))[0]
    grid = np.linspace(0.05, 3.0, 12).reshape(3, 4)
    assert fn(grid).shape == (3, 4)
    assert np.array_equal(fn(grid).ravel(), fn(grid.ravel()))


@pytest.mark.parametrize("bad", [0.0, -0.5, -3.0])
def test_digamma_rejects_nonpositive(bad):
    with pytest.raises(ValidationError):
        digamma(bad)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_gamma_rejects_nonpositive(bad):
    with pytest.raises(ValidationError):
        gamma(bad)


@pytest.mark.parametrize("x", [0.1, 0.2, 0.37, 0.5, 0.75, 1.0, 1.5, 2.0])
def test_gamma_against_lanczos_oracle(x):
    assert gamma(x) == pytest.approx(lanczos_gamma(x), rel=1e-12)


def test_gamma_below_one_is_within_4_ulp_of_math_gamma():
    # the weights' whole range (0, 1]: a dense grid, small arguments
    # down to 1e-20 and the last thousand doubles below 1.  gamma is
    # math.gamma on every entry, so the gap is not just within 4 ulp
    # but zero
    grids = (np.linspace(2.0 ** -20, 1.0, 1_000_001),
             np.geomspace(1e-20, 2.0 ** -20, 20_001),
             np.nextafter(1.0, 0.0) - np.arange(1000) * 2.0 ** -53)
    for xs in grids:
        assert np.array_equal(gamma(xs), [math.gamma(x) for x in xs])


def test_gamma_outside_the_sum_is_math_gamma():
    # 1 itself, arguments above 1 and those below 1e-20 are math.gamma's
    # bits too, with its overflow for subnormal arguments
    xs = np.array([1e-300, 1e-21, np.nextafter(1e-20, 0.0), 1e-20, 1.0,
                   np.nextafter(1.0, 2.0), 1.5, 3.0, 170.5])
    assert np.array_equal(gamma(xs), [math.gamma(x) for x in xs])
    assert gamma(1.0) == 1.0
    with pytest.raises(OverflowError):
        gamma(np.array([0.5, 1e-310]))
    with pytest.raises(ValidationError):
        gamma(np.array([0.5, np.nan]))
