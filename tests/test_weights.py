import math

import numpy as np
import pytest

from msdiff.errors import SolverError, ValidationError
from msdiff.exponents import VariableExponent
from msdiff.kernel import kernel_prefactor
from msdiff.special import EULER_GAMMA
from msdiff.weights import (assemble_weights, memory_weight,
                            weight_log_moment, weight_power_moment,
                            weight_smooth_factor)

from oracles import quad_memory_weight


def test_log_moment_zero_exponent_reduces_to_log_integral(exp_zero):
    # int_0^{0.1} ln(0.3 - s) ds = 0.3(ln 0.3 - 1) - 0.2(ln 0.2 - 1)
    expected = 0.3 * (math.log(0.3) - 1.0) - 0.2 * (math.log(0.2) - 1.0)
    assert weight_log_moment(3, 1, 0.1, exp_zero) == pytest.approx(
        expected, rel=1e-14)


def test_log_moment_diagonal_limit(exp_ex1):
    # x ln x -> 0 kills the lower bracket: tau (ln tau - 1)
    tau = 0.25
    expected = tau * (math.log(tau) - 1.0)
    assert weight_log_moment(5, 5, tau, exp_ex1) == pytest.approx(
        expected, rel=1e-14)


def test_power_moment_diagonal_and_flat(exp_ex1, exp_zero):
    assert weight_power_moment(7, 7, 0.5, exp_ex1) == pytest.approx(0.5)
    for n, k in ((3, 1), (10, 4)):
        assert weight_power_moment(n, k, 0.125, exp_zero) == pytest.approx(
            0.125, rel=1e-14)


def test_smooth_factor_trivial_and_diagonal(exp_zero, exp_ex1):
    assert weight_smooth_factor(4, 2, 0.25, exp_zero) == 0.0
    # alpha'(0) = 1 for 1 - exp(-t): R_diag = -(1 + euler_gamma)
    assert weight_smooth_factor(6, 6, 0.1, exp_ex1) == pytest.approx(
        -(1.0 + EULER_GAMMA), abs=1e-13)


def test_smooth_factor_against_high_precision(exp_ex1):
    # n - k = 4 at tau = 1/8: lag 0.5
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    a = mp.mpf(1) - mp.e ** (-mp.mpf(1) / 2)
    d1 = mp.e ** (-mp.mpf(1) / 2)
    oracle = float(-a / mp.mpf("0.5") + mp.digamma(1 - a) * d1)
    assert weight_smooth_factor(5, 1, 0.125, exp_ex1) == pytest.approx(
        oracle, rel=1e-13)


@pytest.mark.parametrize("n,k,tau", [(0, 1, 0.1), (3, 4, 0.1), (3, 0, 0.1),
                                     (3, 1, 0.0), (3, 1, -0.5)])
def test_index_validation(exp_ex1, n, k, tau):
    for fn in (weight_log_moment, weight_power_moment, weight_smooth_factor,
               memory_weight):
        with pytest.raises(ValidationError):
            fn(n, k, tau, exp_ex1)


def test_single_weights_match_quadrature(exp_ex1, exp_ex2):
    w = memory_weight(5, 2, 0.125, exp_ex1)
    assert w == pytest.approx(quad_memory_weight(5, 2, 0.125, exp_ex1),
                              rel=1e-10)
    w = memory_weight(10, 3, 1.0 / 16.0, exp_ex2)
    assert w == pytest.approx(quad_memory_weight(10, 3, 1.0 / 16.0, exp_ex2),
                              rel=1e-10)


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


@pytest.mark.parametrize("N", [1, 7, 1024])
def test_vectorised_assembly_matches_scalar_weights(exp_ex1, exp_ex2,
                                                    exp_fig1, N):
    # the array pass reorders no sums, but numpy's array log and pow
    # may differ from libm by an ulp, and the log moment cancels at
    # large lags by up to a factor of order N
    for exp, T in ((exp_ex1, 1.0), (exp_ex2, 1.0), (exp_fig1, 8.0)):
        tau = T / N
        got = assemble_weights(N, tau, exp)
        want = np.array([memory_weight(j + 1, 1, tau, exp)
                         for j in range(N)])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
    # shifting both indices leaves the weight unchanged (uniform grid)
    tau = 0.125
    for n, k in ((3, 1), (5, 2), (8, 8)):
        assert memory_weight(n, k, tau, exp_ex1) == memory_weight(
            n + 5, k + 5, tau, exp_ex1)


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


def test_assembly_parameter_validation(exp_ex1):
    with pytest.raises(ValidationError):
        assemble_weights(0, 0.1, exp_ex1)
    with pytest.raises(ValidationError):
        assemble_weights(4, 0.0, exp_ex1)
