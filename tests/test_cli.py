"""The msd option surface: which kind reads which flag, and fuzzed runs."""

import argparse
import contextlib
import io
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msdiff.cli import _build_parser, main
from msdiff.harness import KINDS, OPTIONS

_EVERY_KIND = {"--alpha-end", "--T", "--N", "--out"}
_EXPONENT = {"--exponent", "--exponent-table"}
_DATA = {"--u0", "--u0-table", "--M"}
_STUDY = {"--levels", "--format"}

# the flags each kind reads, written out independently of harness.OPTIONS
EXPECTED_FLAGS = {
    "solve": _EVERY_KIND | _EXPONENT | _DATA,
    "convergence-time": _EVERY_KIND | _EXPONENT | _DATA | _STUDY,
    "convergence-space": _EVERY_KIND | _EXPONENT | _DATA | _STUDY,
    "figure1": _EVERY_KIND | _DATA,
    "weights-dump": _EVERY_KIND | _EXPONENT,
}

# (kind, config key, value): every option a kind does not read
DROPPED_PAIRS = [
    ("figure1", "exponent", "zero"),
    ("figure1", "exponent_table", "alpha.csv"),
    ("weights-dump", "u0", "custom-table"),
    ("weights-dump", "u0_table", "u0.csv"),
    ("weights-dump", "M", "1"),
    ("solve", "levels", "7"),
    ("solve", "format", "markdown"),
    ("figure1", "levels", "99"),
    ("figure1", "format", "markdown"),
    ("weights-dump", "levels", "7"),
    ("weights-dump", "format", "markdown"),
]


def _kind_parsers():
    parser = _build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flag(key):
    return "--" + key.replace("_", "-")


def test_each_kind_accepts_exactly_its_flags():
    parsers = _kind_parsers()
    assert set(parsers) == set(KINDS) == set(EXPECTED_FLAGS)
    for kind, sub in parsers.items():
        flags = {s for a in sub._actions for s in a.option_strings
                 if s not in ("-h", "--help", "--config")}
        assert flags == EXPECTED_FLAGS[kind], kind
    assert len(DROPPED_PAIRS) == sum(
        len(set().union(*EXPECTED_FLAGS.values()) - flags)
        for flags in EXPECTED_FLAGS.values())


@pytest.mark.parametrize("kind,key,value", DROPPED_PAIRS)
def test_option_the_kind_does_not_read_exits_2(tmp_path, capsys, kind, key,
                                               value):
    out = ["--out", str(tmp_path / "out.csv")]
    with pytest.raises(SystemExit) as exc:
        main([kind, _flag(key), value] + out)
    assert exc.value.code == 2
    assert _flag(key) in capsys.readouterr().err

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main([kind, "--config", str(cfg)] + out) == 2
    err = capsys.readouterr().err
    assert "msd: invalid input" in err
    assert repr(key) in err and repr(kind) in err
    assert not (tmp_path / "out.csv").exists()


def test_extreme_horizons_run_or_exit_2(tmp_path, capsys):
    out = ["--out", str(tmp_path / "out.csv")]
    # the built-in profiles validate on any horizon
    assert main(["figure1", "--T", "0.1", "--N", "8", "--M", "4"] + out) == 0
    # a zero error on the coarsest level leaves the first rate undefined
    assert main(["convergence-space", "--T", "1e-100", "--N", "8", "--M",
                 "4", "--levels", "2"] + out) == 0
    # where alpha'' or M/tau would overflow, the input is refused
    assert main(["solve", "--T", "1e-300", "--exponent", "exp-figure1"]
                + out) == 2
    assert main(["solve", "--T", "1e-310", "--N", "8"] + out) == 2
    assert main(["figure1", "--T", "inf"] + out) == 2
    assert main(["figure1", "--T", "1e308", "--N", "8", "--M", "4"]
                + out) in (2, 3)
    assert "Traceback" not in capsys.readouterr().err
    # numpy prints no warning on the way
    proc = subprocess.run(
        [sys.executable, "-m", "msdiff", "solve", "--T", "1e-300", "--N",
         "8", "--M", "4"] + out, capture_output=True, text=True)
    assert proc.returncode in (0, 2)
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def _write_tables(tmp_path):
    alpha = tmp_path / "alpha.csv"
    alpha.write_text("".join(f"{t},{0.05 * t}\n" for t in range(9)))
    u0 = tmp_path / "u0.csv"
    u0.write_text("x,value\n0,0\n0.25,0.1875\n0.5,0.25\n0.75,0.1875\n1,0\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("0,zero\n")
    nan = tmp_path / "nan.csv"
    nan.write_text("0,0\n0.25,0.1\n0.5,nan\n0.75,0.1\n1,0\n")
    return [str(alpha), str(u0), str(bad), str(nan),
            str(tmp_path / "missing.csv")]


def _values(key, tables, tmp_path):
    """Admissible and inadmissible values of one option, small sizes only."""
    sizes = {"N": 16, "M": 8, "levels": 3}
    if key in sizes:
        return st.integers(-2, sizes[key]).map(str)
    return {
        "exponent": st.sampled_from(["exp-example1", "exp-example2",
                                     "exp-figure1", "zero", "table",
                                     "mystery"]),
        "alpha_end": st.sampled_from(["0.4", "0.9", "0", "1", "-0.5"]),
        "exponent_table": st.sampled_from(tables),
        "u0": st.sampled_from(["sin-pi", "poly-x2-1mx2", "custom-table",
                               "gaussian"]),
        "u0_table": st.sampled_from(tables),
        "T": st.sampled_from(["1", "0.5", "8", "0", "-1"]),
        "out": st.sampled_from([str(tmp_path / "out.csv"),
                                str(tmp_path / "no-dir" / "out.csv")]),
        "format": st.sampled_from(["csv", "markdown", "yaml"]),
    }[key]


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(KINDS),
       keys=st.lists(st.sampled_from([opt.key for opt in OPTIONS]),
                     unique=True, max_size=6),
       data=st.data())
def test_fuzzed_command_lines_exit_cleanly(tmp_path, kind, keys, data):
    tables = _write_tables(tmp_path)
    argv = [kind, "--out", str(tmp_path / "out.csv")]
    for key in keys:
        argv += [_flag(key), data.draw(_values(key, tables, tmp_path), key)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
