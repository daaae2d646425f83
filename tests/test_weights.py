import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from msdiff.errors import SolverError, ValidationError
from hypothesis import given, settings

from msdiff.exponents import (VariableExponent, example_exponent_1,
                              example_exponent_2, figure_transition_exponent,
                              validate_assumption_a, zero_exponent)
from msdiff.fem import Mesh1D
from msdiff.kernel import kernel_prefactor, smooth_factor
from msdiff.reference import sin_pi
from msdiff.special import EULER_GAMMA
from msdiff.stepper import SolverConfig, solve, solve_ladder
from msdiff.weights import assemble_weights, exponent_factors

from oracles import mp_lag_weights, quad_memory_weight
from test_properties import admissible_spline, spline_tables


# alpha = 0 with alpha' = 1 (a probe, not an admissible exponent): every
# panel has P = tau, L = int ln x dx and R = psi(1) = -euler_gamma, and
# the diagonal R(0) = -(1 + euler_gamma), so each lag has a closed form
_LOG_PROBE = VariableExponent(
    name="log-probe", alpha=np.zeros_like, alpha_d1=np.ones_like,
    alpha_d2=np.zeros_like, alpha_star=0.0, deriv_bound=1.0)


def _log_integral(lo, hi):
    return hi * (math.log(hi) - 1.0) - (lo * (math.log(lo) - 1.0)
                                        if lo > 0.0 else 0.0)


def test_log_moment_zero_exponent_reduces_to_log_integral():
    # int_{0.2}^{0.3} ln x dx = 0.3(ln 0.3 - 1) - 0.2(ln 0.2 - 1)
    expected = 0.3 * (math.log(0.3) - 1.0) - 0.2 * (math.log(0.2) - 1.0)
    lag = assemble_weights(3, 0.1, _LOG_PROBE)
    assert lag[2] == pytest.approx(-expected - EULER_GAMMA * 0.1, rel=1e-14)


def test_log_moment_diagonal_limit(exp_ex1):
    # x ln x -> 0 kills the lower bracket: L = tau (ln tau - 1); with
    # alpha(0) = 0, alpha'(0) = 1, P = tau and R(0) = -(1 + euler_gamma)
    tau = 0.25
    expected = -tau * (math.log(tau) - 1.0) - (1.0 + EULER_GAMMA) * tau
    assert assemble_weights(4, tau, exp_ex1)[0] == pytest.approx(
        expected, rel=1e-14)


def test_power_moment_diagonal_and_flat():
    tau = 0.125
    lag = assemble_weights(10, tau, _LOG_PROBE)
    want = [-_log_integral(j * tau, (j + 1) * tau)
            - (EULER_GAMMA + (j == 0)) * tau for j in range(10)]
    assert lag == pytest.approx(want, rel=1e-14)


def test_smooth_factor_trivial_and_diagonal(exp_zero, exp_ex1):
    assert smooth_factor(exp_zero, 0.25) == 0.0
    # alpha'(0) = 1 for 1 - exp(-t): R_diag = -(1 + euler_gamma)
    assert smooth_factor(exp_ex1, 0.0) == pytest.approx(
        -(1.0 + EULER_GAMMA), abs=1e-13)


def test_smooth_factor_against_high_precision(exp_ex1):
    # lag 0.5
    with mp.workdps(40):
        a = mp.mpf(1) - mp.e ** (-mp.mpf(1) / 2)
        d1 = mp.e ** (-mp.mpf(1) / 2)
        oracle = float(-a / mp.mpf("0.5") + mp.digamma(1 - a) * d1)
    assert smooth_factor(exp_ex1, 0.5) == pytest.approx(oracle, rel=1e-13)


def test_assembled_table_matches_quadrature_everywhere(exp_ex1):
    tau = 0.25
    lag = assemble_weights(4, tau, exp_ex1)
    for n in range(1, 5):
        for k in range(1, n + 1):
            oracle = quad_memory_weight(n, k, tau, exp_ex1)
            assert lag[n - k] == pytest.approx(oracle, rel=1e-10, abs=1e-14)


def test_zero_exponent_table_is_identically_zero(exp_zero):
    lag = assemble_weights(8, 0.125, exp_zero)
    assert lag.shape == (8,)
    assert np.all(lag == 0.0)


def test_table_entries_finite_for_all_profiles(exp_ex1, exp_ex2, exp_fig1,
                                               exp_zero):
    for exp, T in ((exp_ex1, 1.0), (exp_ex2, 1.0), (exp_fig1, 8.0),
                   (exp_zero, 1.0)):
        lag = assemble_weights(16, T / 16.0, exp)
        assert lag.shape == (16,)
        assert np.all(np.isfinite(lag))


@pytest.mark.parametrize("N", [1, 7, 1024, 65536])
def test_vectorised_assembly_matches_scalar_weights(exp_ex1, exp_ex2,
                                                    exp_fig1, N):
    # lag 0 and 40 log-spaced lags (every lag for small N) against the
    # 40-digit evaluation of the same float64 exponent samples; the
    # plain differences e^(1-a) - d^(1-a) in L and P read 1.5e-12 to
    # 3.7e-12 here at N = 65536 and 2.7e-14 to 1.1e-13 at N = 1024
    lags = np.unique(np.geomspace(1, N, 40).astype(int) - 1)
    for exp, T in ((exp_ex1, 1.0), (exp_ex2, 1.0), (exp_fig1, 8.0)):
        got = assemble_weights(N, T / N, exp)
        want = mp_lag_weights(T / N, exp, lags)
        assert np.abs(got[lags] - want).max() <= 1e-14 * np.abs(got).max()


@pytest.mark.parametrize("N", [8, 16])
def test_weight_magnitude_decays_with_lag(exp_ex2, N):
    # the signed weight crosses zero near the diagonal, so |b| first dips,
    # peaks, and from the peak on decays monotonically toward the
    # (t_n - s)^(-(a*+1)/2) envelope tail
    mags = np.abs(assemble_weights(N, 1.0 / N, exp_ex2))
    peak = 1 + int(np.argmax(mags[1:]))
    assert peak <= N // 2
    assert np.all(np.diff(mags[peak:]) < 0.0)


def test_envelope_bound_stable_under_step_halving(exp_ex1):
    def fitted_constant(N):
        tau = 1.0 / N
        lag = assemble_weights(N, tau, exp_ex1)
        power = 0.5 * (exp_ex1.alpha_star + 1.0)
        cs = []
        for n in range(1, N + 1):
            for k in range(1, n + 1):
                lo, hi = (n - k) * tau, (n - k + 1) * tau
                env = ((hi ** (1.0 - power) - lo ** (1.0 - power))
                       / (1.0 - power))
                cs.append(abs(lag[n - k]) / env)
        return max(cs)

    c8 = fitted_constant(8)
    assert fitted_constant(16) <= 1.1 * c8
    assert fitted_constant(32) <= 1.1 * c8


def test_entries_depend_only_on_node_times(exp_ex1):
    # b(n, k) depends on the lag alone, so a longer grid with the same
    # step only appends lags
    tau = 0.125
    assert np.array_equal(assemble_weights(8, tau, exp_ex1),
                          assemble_weights(13, tau, exp_ex1)[:8])


def test_row_sums_approach_kernel_integral(exp_ex1):
    # sum_k b(n,k) is a first-order approximation of int_0^{t_n} g
    # = p(t_n) - 1; the gap must shrink roughly linearly in tau
    t_n = 0.5
    target = kernel_prefactor(exp_ex1, t_n) - 1.0
    gaps = []
    for N in (8, 16, 32, 64):
        tau = t_n / N
        # row N, b(N, k) for k = 1..N, is the whole lag vector
        gaps.append(abs(assemble_weights(N, tau, exp_ex1).sum() - target))
    assert gaps[-1] < gaps[0] / 4.0


def test_assembly_propagates_failures():
    broken = VariableExponent(
        name="broken",
        alpha=lambda t: np.where(np.asarray(t, float) > 0.4, 2.0,
                                 np.asarray(t, float)),
        alpha_d1=lambda t: np.ones_like(np.asarray(t, float)),
        alpha_d2=lambda t: np.zeros_like(np.asarray(t, float)),
        alpha_star=0.9,
        deriv_bound=1.0,
    )
    # alpha jumps above 1, so Gamma(1 - alpha) would be evaluated at a
    # negative argument for large lags; lag 4 (d = 0.5) is the first
    with pytest.raises(SolverError, match="at lag 4 "):
        assemble_weights(8, 0.125, broken)


def test_gamma_range_is_checked_before_weights_are_evaluated():
    # alpha is NaN at lag 5 alone; alpha' is infinite at lag 2, so lag 2
    # would be the first non-finite weight, but the Gamma range comes
    # first and names lag 5
    def alpha(t):
        t = np.asarray(t, float)
        return np.where(np.isclose(t, 0.625), np.nan, 0.5 * t)

    def alpha_d1(t):
        t = np.asarray(t, float)
        return np.where(np.isclose(t, 0.25), np.inf, 0.5 + 0.0 * t)

    probe = VariableExponent(
        name="nan-at-lag-5", alpha=alpha, alpha_d1=alpha_d1,
        alpha_d2=lambda t: np.zeros_like(np.asarray(t, float)),
        alpha_star=0.5, deriv_bound=1.0)
    with pytest.raises(SolverError,
                       match=r"at lag 5 .*Gamma\(1 - alpha\) out of range "
                             r"for alpha = nan"):
        assemble_weights(8, 0.125, probe)
    # with alpha finite everywhere the infinite alpha' surfaces as the
    # non-finite weight of lag 2
    finite = dataclasses.replace(
        probe, alpha=lambda t: 0.5 * np.asarray(t, float))
    with pytest.raises(SolverError, match="non-finite memory weight at lag 2 "):
        assemble_weights(8, 0.125, finite)


def test_assembly_parameter_validation(exp_ex1):
    with pytest.raises(ValidationError):
        assemble_weights(0, 0.1, exp_ex1)
    with pytest.raises(ValidationError):
        assemble_weights(4, 0.0, exp_ex1)
    # else lag 0 reads 0 * inf = NaN and fails as a Gamma range fault
    with pytest.raises(ValidationError, match=r"^step size inf is not in"):
        assemble_weights(3, float("inf"), exp_ex1)


def test_a_subnormal_step_is_refused(exp_ex1):
    # as SolverConfig refuses T / N: M / tau would overflow in a solve
    for tau in (1e-320 / 3, np.nextafter(np.finfo(float).tiny, 0.0)):
        with pytest.raises(ValidationError, match=r"^step size .* underflows$"):
            assemble_weights(3, tau, exp_ex1)


_BUILT_IN = [example_exponent_1(1.0), example_exponent_2(1.0),
             figure_transition_exponent(8.0, 0.4), zero_exponent()]


def _counting(exp):
    """exp, and a dict counting its alpha, alpha' and alpha'' calls on
    arrays, and under "scalar" its calls of any of them on a scalar."""
    names = ("alpha", "alpha_d1", "alpha_d2")
    calls = dict.fromkeys(names + ("scalar",), 0)

    def counted(name):
        real = getattr(exp, name)

        def call(t):
            calls[name if np.ndim(t) > 0 else "scalar"] += 1
            return real(t)
        return call

    return dataclasses.replace(
        exp, **{name: counted(name) for name in names}), calls


@pytest.mark.parametrize("exp", _BUILT_IN, ids=lambda e: e.name)
def test_exponent_factors_call_the_exponent_once_per_array(exp):
    counting, calls = _counting(exp)
    exponent_factors(0.01 * np.arange(64), counting)
    assert calls == {"alpha": 1, "alpha_d1": 1, "alpha_d2": 0, "scalar": 0}


# validation samples alpha, alpha' and alpha'' once on its grid, and its
# finite-difference check calls alpha and alpha' against alpha', alpha'
# against alpha'': 7 calls; each chain of step counts that share an odd
# part adds alpha and alpha' at its lags; none is a call on a scalar
@pytest.mark.parametrize("exp", _BUILT_IN, ids=lambda e: e.name)
def test_a_run_calls_the_exponent_on_arrays_only(exp):
    counting, calls = _counting(exp)
    validate_assumption_a(counting, 1.0)
    assert calls == {"alpha": 2, "alpha_d1": 3, "alpha_d2": 2, "scalar": 0}

    counting, calls = _counting(exp)
    solve(SolverConfig(1.0, 64, Mesh1D(8), counting, sin_pi))
    assert calls == {"alpha": 3, "alpha_d1": 4, "alpha_d2": 2, "scalar": 0}

    counting, calls = _counting(exp)
    solve_ladder([SolverConfig(1.0, n, Mesh1D(8), counting, sin_pi)
                  for n in (8, 12, 16)])  # two chains: 8 and 16, and 12
    assert calls == {"alpha": 4, "alpha_d1": 5, "alpha_d2": 2, "scalar": 0}


@pytest.mark.parametrize("tau", [0.01, 3e-14], ids=["grid", "below-1e-12"])
@pytest.mark.parametrize("exp", _BUILT_IN, ids=lambda e: e.name)
def test_exponent_factors_smooth_part_is_smooth_factor(exp, tau):
    # 3e-14 puts lags 0..33 under the 1e-12 switch to the alpha'(0) limit
    d = tau * np.arange(64)
    assert np.array_equal(exponent_factors(d, exp)[2], smooth_factor(exp, d))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(table=spline_tables())
def test_exponent_factors_smooth_part_is_smooth_factor_on_splines(table):
    exp, T = admissible_spline(table)
    for d in (T / 64 * np.arange(64), 3e-14 * np.arange(64)):
        assert np.array_equal(exponent_factors(d, exp)[2],
                              smooth_factor(exp, d))
