"""The numpy not-a-knot spline of sampled tables against scipy's
CubicSpline, and the ways a table is refused."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from msdiff.cli import main
from msdiff.errors import ValidationError
from msdiff.exponents import cubic_spline, tabulated_exponent


def _random_table(rng):
    """2-60 knots whose steps span two decades, over a width of 1e-2 to
    1e2, with values in [-1, 1]."""
    n = int(rng.integers(2, 61))
    steps = 10.0 ** rng.uniform(-2.0, 0.0, n - 1)
    width = 10.0 ** rng.uniform(-2.0, 2.0)
    times = width * np.concatenate([[0.0], np.cumsum(steps)]) / steps.sum()
    return times, rng.uniform(-1.0, 1.0, n)


def test_spline_matches_scipy_cubic_spline():
    # worst gaps over 20000 tables of this kind, relative to the largest
    # reference value: 7.0e-13 (value), 1.0e-12 (alpha'), 1.3e-12
    # (alpha''), 2.0e-12 (each row of .c), so 1e-11 leaves a factor 5.
    # Rows that vanish in exact arithmetic (the cubic row of 2 or 3
    # samples, the quadratic row of 2) read at most 2.3e-14 of max |y|
    # over a piece, bound 1e-13.  With steps spanning four decades
    # instead, both fits sit 5e-9 from a 50-digit solve of the rows and
    # differ from each other by up to 2.5e-9
    rng = np.random.default_rng(17)
    for _ in range(1000):
        x, y = _random_table(rng)
        want, got = CubicSpline(x, y), cubic_spline(x, y, "table")
        width = x[-1] - x[0]
        t = np.linspace(x[0] - 0.1 * width, x[-1] + 0.1 * width, 1201)
        for k in range(3):
            a = want.derivative(k)(t) if k else want(t)
            b = got.derivative(k)(t) if k else got(t)
            assert np.abs(a - b).max() <= 1e-11 * np.abs(a).max(), (k, x, y)
        zero = max(0, 4 - x.size)
        gap = np.abs(want.c[zero:] - got.c[zero:]).max(axis=1)
        assert np.all(gap <= 1e-11 * np.abs(want.c[zero:]).max(axis=1))
        powers = np.diff(x) ** np.arange(3, 3 - zero, -1)[:, None]
        assert np.all(np.abs(got.c[:zero]) * powers
                      <= 1e-13 * np.abs(y).max())


@pytest.mark.parametrize("times,values,message", [
    ([], [], "at least 2 samples"),
    ([0.0], [0.0], "at least 2 samples"),
    ([0.0, 1.0], [0.0, 1.0, 2.0], "at least 2 samples"),
    ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], "strictly increasing"),
    ([0.0, 0.5, 0.25, 1.0], [0.0, 0.1, 0.2, 0.3], "strictly increasing"),
    ([0.0, 1e-200, 0.5, 1.0], [0.0, 0.1, 0.2, 0.3], "overflows"),
    ([0.0, 1e-305, 2e-305, 1.0], [0.0, 0.0, 0.0, 0.5], "knots too close"),
], ids=["empty", "one", "unequal", "repeated", "decreasing", "overflow",
        "close-knots"])
def test_spline_refuses_what_it_cannot_fit(times, values, message):
    with pytest.raises(ValidationError, match=message) as err:
        cubic_spline(times, values, "samples.csv")
    assert str(err.value).startswith("samples.csv: ")


@pytest.mark.parametrize("values,message", [
    ([0.0, 0.0, 0.0, 0.5], "near-zero pivot 1e-305 at row 0"),
    ([], "one value per time"),
    ([0.0, 0.1, 0.2], "one value per time"),
], ids=["close-knots", "no-values", "fewer-values"])
def test_the_exponent_refuses_what_it_cannot_fit(values, message):
    with pytest.raises(ValidationError, match=message):
        tabulated_exponent([0.0, 1e-305, 2e-305, 1.0], values)


@pytest.mark.parametrize("flag,content,message", [
    ("exponent", "0,0\n", "need at least 4 samples"),
    ("u0", "0,0\n", "need at least 2 samples"),
    ("exponent", "0,0\n1e-305,0\n2e-305,0\n1,0.5\n", "knots too close"),
    ("u0", "0,0\n1e-305,0\n2e-305,0.1\n1,0\n", "knots too close"),
], ids=["exponent-one-row", "u0-one-row", "exponent-close-knots",
        "u0-close-knots"])
def test_cli_refuses_a_table_it_cannot_fit(tmp_path, capsys, flag, content,
                                           message):
    path = tmp_path / "table.csv"
    path.write_text(content)
    argv = ["solve", "--N", "8", "--M", "4", "--T", "1",
            "--out", str(tmp_path / "out.csv"), "--" + flag, str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"msd: invalid input: {path}: ")
    assert message in err and "two columns" not in err
    assert not (tmp_path / "out.csv").exists()
