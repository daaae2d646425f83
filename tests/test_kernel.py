import math

import numpy as np
import pytest

from msdiff.errors import ValidationError
from msdiff.exponents import VariableExponent
from msdiff.kernel import (_RATIO_LIMIT_TIME, kernel_prefactor,
                           kernel_value, log_derivative_factor,
                           smooth_factor)
from msdiff.special import EULER_GAMMA

from oracles import dyadic_quad, lanczos_gamma


def test_zero_exponent_degenerates(exp_zero):
    # p(t) = 1 and g(t) = 0 for every t: the Fickian limit
    for t in (1e-6, 0.1, 0.5, 1.0):
        assert kernel_prefactor(exp_zero, t) == pytest.approx(1.0, abs=1e-15)
        assert kernel_value(exp_zero, t) == 0.0


def test_prefactor_limit_near_zero(exp_ex1):
    assert abs(kernel_prefactor(exp_ex1, 1e-8) - 1.0) < 1e-6


def test_prefactor_monotone_convergence(exp_ex1):
    gaps = [abs(kernel_prefactor(exp_ex1, 10.0 ** -k) - 1.0)
            for k in range(2, 9)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6


def test_prefactor_against_independent_gamma(exp_ex1):
    t = 0.5
    a = float(exp_ex1.alpha(t))
    oracle = t ** (-a) / lanczos_gamma(1.0 - a)
    assert kernel_prefactor(exp_ex1, t) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("t", [0.0, -0.1])
def test_positive_time_required(exp_ex1, t):
    for fn in (kernel_prefactor, log_derivative_factor, kernel_value):
        with pytest.raises(ValidationError):
            fn(exp_ex1, t)


def test_factor_matches_prefactor_derivative(exp_ex1):
    # g = d/dt p, so p*G must match a central difference of p
    t, step = 0.25, 1e-6
    fd = (kernel_prefactor(exp_ex1, t + step)
          - kernel_prefactor(exp_ex1, t - step)) / (2.0 * step)
    assert kernel_value(exp_ex1, t) == pytest.approx(fd, rel=1e-5)


def test_smooth_factor_limit_at_zero(exp_ex1):
    # -alpha'(0)(1 + euler_gamma) with alpha'(0) = 1
    assert smooth_factor(exp_ex1, 0.0) == pytest.approx(
        -(1.0 + EULER_GAMMA), abs=1e-13)


def test_factor_log_bound_case1(exp_ex1):
    # |G(t)| <= C |ln t| on t in [1e-4, 0.5]; C from the coarse grid must
    # not grow under refinement
    def fit(n):
        t = np.logspace(-4, math.log10(0.5), n)
        G = np.array([log_derivative_factor(exp_ex1, ti) for ti in t])
        return np.max(np.abs(G) / np.abs(np.log(t)))

    c0 = fit(33)
    for n in (65, 129, 257):
        assert fit(n) <= 1.05 * c0


def test_antiderivative_identity(exp_ex1):
    # int_0^t g = p(t) - 1 (integrable log singularity at 0)
    t = 0.5
    integral = dyadic_quad(lambda s: kernel_value(exp_ex1, s), 0.0, t)
    assert integral == pytest.approx(kernel_prefactor(exp_ex1, t) - 1.0,
                                     abs=1e-8)


def _case2_exponent():
    return VariableExponent(
        name="case2",
        alpha=lambda t: 0.5 * np.asarray(t, float) ** 2,
        alpha_d1=lambda t: np.asarray(t, float),
        alpha_d2=lambda t: np.ones_like(np.asarray(t, float)),
        alpha_star=0.5,
        deriv_bound=1.0,
    )


def _case3_exponent():
    return VariableExponent(
        name="case3",
        alpha=lambda t: 0.5 * np.asarray(t, float) ** 3,
        alpha_d1=lambda t: 1.5 * np.asarray(t, float) ** 2,
        alpha_d2=lambda t: 3.0 * np.asarray(t, float),
        alpha_star=0.5,
        deriv_bound=3.0,
    )


def _fit_constant(exp, envelope, values_fn, n):
    t = np.logspace(-6, 0, n)
    vals = np.array([values_fn(exp, ti) for ti in t])
    return np.max(np.abs(vals) / envelope(t))


def _g_prime(exp, t):
    step = 1e-4 * t
    return (kernel_value(exp, t + step) - kernel_value(exp, t - step)) \
        / (2.0 * step)


@pytest.mark.parametrize("case,builder,g_env,gp_env", [
    ("case1", None, lambda t: 1.0 + np.abs(np.log(t)), lambda t: 1.0 / t),
    ("case2", _case2_exponent, lambda t: np.ones_like(t),
     lambda t: 1.0 + np.abs(np.log(t))),
    ("case3", _case3_exponent, lambda t: np.ones_like(t),
     lambda t: np.ones_like(t)),
])
def test_kernel_case_bounds_stable_under_refinement(case, builder, g_env,
                                                    gp_env, exp_ex1):
    # near t = 1 the raw |ln t| envelope vanishes, so the case-1 bound is
    # checked against 1 + |ln t|, its t->0 equivalent
    # base grids dense enough to resolve the interior maxima of the
    # ratio; refinement must then leave the fitted constants stable
    exp = exp_ex1 if builder is None else builder()
    c_g = [_fit_constant(exp, g_env, kernel_value, n) for n in (201, 401, 801)]
    c_gp = [_fit_constant(exp, gp_env, _g_prime, n) for n in (201, 401, 801)]
    assert max(c_g) <= 1.1 * c_g[0]
    assert max(c_gp) <= 1.1 * c_gp[0]



_KERNEL_FUNCTIONS = (kernel_prefactor, smooth_factor, log_derivative_factor,
                     kernel_value)


@pytest.mark.parametrize("fn", _KERNEL_FUNCTIONS)
def test_array_of_times_matches_scalar_calls_bit_for_bit(fn, exp_ex1,
                                                         exp_ex2, exp_fig1,
                                                         exp_zero):
    base = np.concatenate([np.logspace(-14, 0, 57), [3e-13, 0.5, 0.875]])
    if fn is smooth_factor:
        # the t -> 0 limit applies below _RATIO_LIMIT_TIME, t = 0 included
        base = np.concatenate([[0.0, 1e-15, 0.5 * _RATIO_LIMIT_TIME], base])
    for exp, T in ((exp_ex1, 1.0), (exp_ex2, 1.0), (exp_fig1, 8.0),
                   (exp_zero, 1.0), (_case2_exponent(), 1.0)):
        t = T * base
        got = fn(exp, t)
        assert got.shape == t.shape
        want = np.array([fn(exp, ti) for ti in t])
        assert got.tobytes() == want.tobytes(), exp.name
        grid = fn(exp, t[:60].reshape(6, 10))
        assert grid.shape == (6, 10)
        assert grid.tobytes() == got[:60].tobytes(), exp.name


@pytest.mark.parametrize("fn", _KERNEL_FUNCTIONS)
def test_scalar_time_gives_a_scalar(fn, exp_ex1):
    for t in (0.25, np.float64(0.25), np.array(0.25), 1):
        value = fn(exp_ex1, t)
        assert isinstance(value, float) and not isinstance(value, np.ndarray)
    assert fn(exp_ex1, np.array([0.25])).shape == (1,)


@pytest.mark.parametrize("fn", _KERNEL_FUNCTIONS)
def test_any_bad_entry_of_an_array_is_rejected(fn, exp_ex1):
    # t = 0 is the one non-positive time smooth_factor accepts
    bad = [-1e-300, np.nan] + ([] if fn is smooth_factor else [0.0])
    for value in bad:
        t = np.array([0.5, 0.25, value, 0.125])
        with pytest.raises(ValidationError):
            fn(exp_ex1, t)
        with pytest.raises(ValidationError):
            fn(exp_ex1, t.reshape(2, 2))
