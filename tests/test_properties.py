"""Invariants checked on randomly drawn inputs (hypothesis, derandomized)."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msdiff.exponents import tabulated_exponent, validate_assumption_a
from msdiff.harness import RateRow, RateTable, emit_table, parse_rate_table
from msdiff.weights import assemble_weights, memory_weight

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


@_SETTINGS
@given(table=spline_tables(), n_steps=st.integers(1, 64))
def test_random_spline_exponents_validate_and_weigh(table, n_steps):
    times, values = table
    exp = tabulated_exponent(times, values)
    T = float(times[-1])
    # rising samples do not keep a cubic spline inside [0, 1)
    assume(exp.alpha(np.linspace(0.0, T, 4001)).min() >= 0.0
           and exp.alpha_star < 1.0)
    validate_assumption_a(exp, T)
    tau = T / n_steps
    lag = assemble_weights(n_steps, tau, exp)
    assert lag.shape == (n_steps,) and np.all(np.isfinite(lag))
    want = np.array([memory_weight(j + 1, 1, tau, exp)
                     for j in range(n_steps)])
    assert np.abs(lag - want).max() <= 1e-12 * np.abs(want).max()


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
