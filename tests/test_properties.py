"""Invariants checked on randomly drawn inputs (hypothesis, derandomized)."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msdiff.exponents import (tabulated_exponent, validate_assumption_a,
                              zero_exponent)
from msdiff.fem import Mesh1D, discrete_l2_norm
from msdiff.harness import RateRow, RateTable, emit_table, parse_rate_table
from msdiff.stepper import SolverConfig, solve
from msdiff.weights import assemble_weights

from oracles import mp_heat_modes, mp_lag_weights

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


@st.composite
def spline_tables(draw):
    """(times, values) built from positive increments, values below 0.9."""
    k = draw(st.integers(3, 8))
    steps = draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k))
    rises = draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k))
    scale = 10.0 ** draw(st.floats(-3.0, 1.0))
    peak = draw(st.floats(0.05, 0.85))
    times = scale * np.concatenate([[0.0], np.cumsum(steps)])
    values = peak * np.concatenate([[0.0], np.cumsum(rises)]) / sum(rises)
    return times, values


def admissible_spline(table):
    """(exponent, horizon) of a drawn table; rejects the draw unless the
    spline stays in [0, 1) (rising samples do not guarantee that)."""
    times, values = table
    exp = tabulated_exponent(times, values)
    T = float(times[-1])
    assume(exp.alpha(np.linspace(0.0, T, 4001)).min() >= 0.0
           and exp.alpha_star < 1.0)
    return exp, T


@_SETTINGS
@given(table=spline_tables(), n_steps=st.integers(1, 64))
def test_random_spline_exponents_validate_and_weigh(table, n_steps):
    exp, T = admissible_spline(table)
    validate_assumption_a(exp, T)
    tau = T / n_steps
    lag = assemble_weights(n_steps, tau, exp)
    assert lag.shape == (n_steps,) and np.all(np.isfinite(lag))
    want = mp_lag_weights(tau, exp, np.arange(n_steps))
    assert np.abs(lag - want).max() <= 1e-14 * np.abs(want).max()


@_SETTINGS
@given(table=spline_tables(), n_steps=st.integers(1, 64),
       m_cells=st.integers(2, 32),
       modes=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4)
       .filter(lambda c: max(map(abs, c)) > 0.1))
def test_solution_norm_never_exceeds_initial_norm(table, n_steps, m_cells,
                                                  modes):
    # each sine mode obeys (mu + c lam) u_n = mu u_{n-1}
    # - lam sum_j lag[j] u_{n-j} with c = 1 + lag[0] and mu, lam > 0, so
    # c >= sum_{j>=1} |lag[j]| keeps |u_n| <= max_{k<n} |u_k| in every
    # mode; without it coarse steps do grow (6.3x at N = 2, c = 0.14)
    exp, T = admissible_spline(table)
    lag = assemble_weights(n_steps, T / n_steps, exp)
    assume(1.0 + lag[0] >= np.abs(lag[1:]).sum())

    def initial(x):
        return sum(c * np.sin((k + 1) * np.pi * x)
                   for k, c in enumerate(modes))

    config = SolverConfig(T=T, n_steps=n_steps, mesh=Mesh1D(m_cells),
                          exponent=exp, initial=initial)
    snaps = solve(config).snapshots
    norms = [discrete_l2_norm(u, config.mesh.h) for u in snaps]
    assert max(norms) <= norms[0]


@_SETTINGS
@given(m_cells=st.integers(2, 64), n_steps=st.integers(1, 64),
       log_T=st.floats(-3.0, 1.0), data=st.data())
def test_zero_exponent_reproduces_exact_discrete_heat_solution(
        m_cells, n_steps, log_T, data):
    ks = data.draw(st.lists(st.integers(1, m_cells - 1), min_size=1,
                            max_size=4, unique=True), "modes")
    cs = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(ks),
                            max_size=len(ks))
                   .filter(lambda c: max(map(abs, c)) > 0.1), "coefficients")
    modes = dict(zip(ks, cs))

    def initial(x):
        return sum(c * np.sin(k * np.pi * x) for k, c in modes.items())

    config = SolverConfig(T=10.0 ** log_T, n_steps=n_steps,
                          mesh=Mesh1D(m_cells), exponent=zero_exponent(),
                          initial=initial)
    got = solve(config).snapshots
    want = mp_heat_modes(config.tau, n_steps, m_cells, modes)
    # worst seen: 6.8e-14 of max |c_k| in 11000 draws of this strategy,
    # 1.1e-13 in 15000 draws of four modes of size 0.9..1 at M >= 56
    assert np.abs(got - want).max() <= 2e-13 * max(map(abs, cs))


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@_SETTINGS
@given(kind=st.sampled_from(["convergence-time", "convergence-space"]),
       fixed=st.sampled_from(["M=32", "N=64", ""]),
       rows=st.lists(st.tuples(st.integers(0, 10 ** 6), _ANY_FLOAT,
                               st.none() | _ANY_FLOAT),
                     min_size=1, max_size=8))
def test_rate_table_csv_round_trips(kind, fixed, rows):
    table = RateTable(
        kind=kind, param_name="N", error_name="E2", exponent="exp-example1",
        u0="sin-pi", fixed=fixed,
        rows=tuple(RateRow(level=i, param=p, error=e, rate=r)
                   for i, (p, e, r) in enumerate(rows)))
    # repr tells NaN, -0.0 and None apart and shows every float exactly
    assert repr(parse_rate_table(emit_table(table, "csv"))) == repr(table)
