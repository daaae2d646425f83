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
from msdiff.errors import ValidationError
from msdiff.harness import KINDS, OPTIONS, ExperimentConfig, options_for

_EVERY_KIND = {"--alpha-end", "--T", "--N", "--out"}
_EXPONENT = {"--exponent"}
_DATA = {"--u0", "--M"}
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
    ("weights-dump", "u0", "custom-table"),
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


@pytest.mark.parametrize("kind", KINDS)
def test_kind_help_lists_every_option(kind, capsys):
    # the help of each kind shows every option that kind reads
    with pytest.raises(SystemExit) as exc:
        main([kind, "--help"])
    assert exc.value.code == 0
    shown = capsys.readouterr().out
    for flag in ["--config"] + [opt.flag for opt in options_for(kind)]:
        assert flag in shown, (kind, flag)


def test_unknown_kind_exits_2(capsys):
    for argv in (["mystery"], ["mystery", "--N", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'mystery'" in capsys.readouterr().err


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    # every main call parses with the one parser built on first use:
    # the top-level parser and one subparser per kind
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _build_parser.cache_clear()
    out = ["--out", str(tmp_path / "out.csv")]
    for argv in (["weights-dump", "--N", "4"] + out,
                 ["solve", "--N", "4", "--M", "4"] + out,
                 ["convergence-space", "--N", "4", "--M", "4",
                  "--levels", "2"] + out):
        assert main(argv) == 0, argv
    for argv in (["figure1", "--help"], ["mystery"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert len(built) == 1 + len(KINDS)
    assert _build_parser() is _build_parser()


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
    assert f"msd: invalid input: {cfg}:1: " in err
    assert repr(key) in err and repr(kind) in err
    assert not (tmp_path / "out.csv").exists()


# (kind, config text, line, reason): each kind of bad line, after good ones
CONFIG_ERRORS = [
    ("solve", "N = 8\n\nmystery = 3\n", 3, "unknown key 'mystery'"),
    ("weights-dump", "# steps\nN = 8\nM = 4\n", 3,
     "option 'M' is not read by kind 'weights-dump'"),
    ("solve", "N = 8\nM = 4\nN = 8\n", 3, "key 'N' given twice"),
    ("solve", "T = 1\nN = eight\n", 2, "bad value for 'N'"),
    ("convergence-time", "N = 8\nformat = yaml\n", 2,
     "bad value for 'format': 'yaml' is not one of ('csv', 'markdown')"),
]


@pytest.mark.parametrize("kind,text,line,reason", CONFIG_ERRORS,
                         ids=["unknown", "not-read", "twice", "type",
                              "choices"])
def test_config_file_errors_name_their_line(tmp_path, capsys, kind, text,
                                            line, reason):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"msd: invalid input: {cfg}:{line}: {reason}"), err
    assert "Traceback" not in err
    assert not out.exists()


# (config key, value): inadmissible values, each refused by its option's
# check as a flag, as a config line and as an ExperimentConfig field
BAD_VALUES = [("N", "0"), ("M", "0"), ("T", "-1"), ("levels", "1"),
              ("format", "yaml"), ("exponent", "mystery"),
              ("u0", "gaussian"), ("exponent", "missing.csv"),
              ("u0", "missing.csv")]


@pytest.mark.parametrize("key,value", BAD_VALUES,
                         ids=[f"{key}={value}" for key, value in BAD_VALUES])
def test_a_bad_value_is_refused_wherever_it_enters(tmp_path, monkeypatch,
                                                   capsys, key, value):
    monkeypatch.chdir(tmp_path)  # missing.csv is a relative path
    opt = next(o for o in OPTIONS if o.key == key)
    out = ["--out", "out.csv"]
    assert main(["convergence-time", opt.flag, value] + out) == 2
    assert capsys.readouterr().err.startswith(
        f"msd: invalid input: bad value for {opt.flag!r}: ")

    (tmp_path / "run.cfg").write_text(f"# line 1\n{key} = {value}\n")
    assert main(["convergence-time", "--config", "run.cfg"] + out) == 2
    assert capsys.readouterr().err.startswith(
        f"msd: invalid input: run.cfg:2: bad value for {key!r}: ")
    assert not (tmp_path / "out.csv").exists()

    with pytest.raises(ValidationError,
                       match=f"^bad value for {opt.field!r}: "):
        ExperimentConfig("convergence-time", **{opt.field: value})


@pytest.mark.parametrize("argv,flag", [
    (["weights-dump", "--N", "2", "--N", "3"], "--N"),
    (["solve", "--exponent", "zero", "--M", "4", "--exponent", "zero"],
     "--exponent"),
], ids=["N", "exponent"])
def test_a_flag_given_twice_exits_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"msd: invalid input: {flag} given twice\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,code", [
    (["figure1", "--T", "2", "--M", "4"], 0),
    (["solve", "--exponent", "exp-figure1", "--M", "4"], 0),
    (["weights-dump", "--exponent", "exp-figure1"], 0),
    (["solve", "--M", "4"], 2),
    (["convergence-time", "--exponent", "zero", "--M", "4", "--levels", "2"],
     2),
    (["weights-dump", "--exponent", "exp-example2"], 2),
], ids=["figure1", "solve-figure1", "weights-figure1", "solve", "study",
        "weights"])
def test_alpha_end_is_refused_where_it_has_no_effect(tmp_path, capsys, argv,
                                                     code):
    (tmp_path / "run.cfg").write_text("alpha_end = 0.6\n")
    argv += ["--N", "8", "--out", str(tmp_path / "out.csv")]
    assert main(argv + ["--alpha-end", "0.6"]) == code
    assert main(argv + ["--config", str(tmp_path / "run.cfg")]) == code
    refusals = capsys.readouterr().err.count(
        "alpha_end (--alpha-end) has an effect only on figure1")
    assert refusals == (2 if code else 0)  # by flag and by config line


def test_config_file_may_start_with_a_bom(tmp_path):
    # a spreadsheet's "UTF-8" text export starts with a byte-order mark
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\ufeffN = 8\nM = 4\n", encoding="utf-8")
    outputs = []
    for argv in (["--config", str(cfg)], ["--N", "8", "--M", "4"]):
        out = tmp_path / "out.csv"
        assert main(["solve", "--out", str(out)] + argv) == 0, argv
        outputs.append(out.read_bytes())
        out.unlink()
    assert outputs[0] == outputs[1]


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
    # runs whose arrays numpy cannot size are refused before allocating
    for huge in (str(2 ** 62), str(10 ** 400)):  # 10**400: past float range
        for argv in (["solve", "--N", huge, "--M", "4"],
                     ["solve", "--N", "4", "--M", huge],
                     ["weights-dump", "--N", huge],
                     ["figure1", "--N", huge, "--M", "4"],
                     ["convergence-space", "--N", "4", "--M", huge,
                      "--levels", "2"]):
            assert main(argv + out) == 2, argv
    assert "Traceback" not in capsys.readouterr().err
    # numpy prints no warning on the way
    proc = subprocess.run(
        [sys.executable, "-m", "msdiff", "solve", "--T", "1e-300", "--N",
         "8", "--M", "4"] + out, capture_output=True, text=True)
    assert proc.returncode in (0, 2)
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("kind", ["solve", "weights-dump"])
def test_a_subnormal_step_exits_2(tmp_path, capsys, kind):
    # T / N = 3.3e-321 is subnormal: weights-dump printed it with 7
    # significant digits while solve refused it
    out = tmp_path / "out.csv"
    assert main([kind, "--T", "1e-320", "--N", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(" underflows\n")
    assert not out.exists()


@pytest.mark.parametrize("args,config,code,reason", [
    (["--N", "1", "--M", "2", "--T", "1.5", "--exponent", "exp-example2"],
     None, 3, "implicit memory coefficient -0.474"),
    ([], "N 8\n", 2, "expected 'key = value'"),
    ([], "N = eight\n", 2, "bad value for 'N'"),
], ids=["step-too-long", "config-no-equals", "config-bad-int"])
def test_failed_solve_names_its_reason(tmp_path, capsys, args, config, code,
                                       reason):
    argv = ["solve", "--out", str(tmp_path / "out.csv")] + args
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "no-dir" / "out.csv"
    assert main(["solve", "--N", "8", "--M", "4", "--out", str(out)]) == 2
    assert f"msd: invalid input: cannot write {out}" in capsys.readouterr().err


def test_table_path_with_a_line_break_exits_2(tmp_path, capsys):
    # a CSV rate table names its exponent on one header line, so a path
    # holding a line break could not be read back
    alpha = tmp_path / "a\nb.csv"
    alpha.write_text("0,0\n0.25,0.1\n0.5,0.15\n0.75,0.18\n1,0.2\n")
    out = tmp_path / "time.csv"
    assert main(["convergence-time", "--exponent", str(alpha), "--T", "1",
                 "--N", "8", "--M", "4", "--levels", "2", "--format", "csv",
                 "--out", str(out)]) == 2
    assert "holds a line break" in capsys.readouterr().err
    assert not out.exists()


_WITHOUT_SCIPY = """
import sys
from msdiff.cli import main
out = ["--out", sys.argv[1]]
small = ["--N", "8", "--M", "4"]
runs = [["solve", "--exponent", "exp-figure1"] + small,
        ["convergence-time", "--exponent", "exp-example2", "--levels", "2"]
        + small,
        ["convergence-space", "--levels", "2"] + small,
        ["figure1", "--T", "2"] + small,
        ["weights-dump", "--exponent", "zero", "--N", "8"],
        ["solve", "--exponent", sys.argv[2], "--T", "1"] + small,
        ["solve", "--u0", sys.argv[3]] + small]
for argv in runs:
    assert main(argv + out) == 0, argv
print(",".join(sorted({name.split(".")[0] for name in sys.modules})))
"""


def test_built_in_profiles_run_without_loading_scipy(tmp_path):
    # importing scipy.special, scipy.fft or scipy.linalg adds 50-56 MB of
    # resident memory to a run of msd, scipy.interpolate about 50 MB, so
    # no run loads scipy: neither the built-in profiles nor the cubic
    # splines of an exponent table and an initial-data table
    alpha, u0 = tmp_path / "alpha.csv", tmp_path / "u0.csv"
    alpha.write_text("0,0\n0.25,0.1\n0.5,0.15\n0.75,0.18\n1,0.2\n")
    u0.write_text("0,0\n0.25,0.1875\n0.5,0.25\n0.75,0.1875\n1,0\n")
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path / "out.csv"),
         str(alpha), str(u0)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip().split(",")
    assert "msdiff" in loaded and "numpy" in loaded
    assert "scipy" not in loaded


@pytest.mark.parametrize("message,shown", [
    ("Unable to allocate 7.45 GiB for an array",
     "Unable to allocate 7.45 GiB for an array"),
    ("", "out of memory")], ids=["numpy-message", "bare"])
def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, message,
                               shown):
    def exhausted(config):
        raise MemoryError(message)

    monkeypatch.setattr("msdiff.harness.solve", exhausted)
    assert main(["solve", "--out", str(tmp_path / "out.csv")]) == 3
    assert capsys.readouterr().err == f"msd: solver failure: {shown}\n"
    assert not (tmp_path / "out.csv").exists()


def _write_tables(tmp_path):
    """The fuzzed tables, each written once: rewriting a file costs far
    more than creating one on some disks, and the examples share them."""
    contents = {
        "alpha.csv": "".join(f"{t},{0.05 * t}\n" for t in range(9)),
        "u0.csv": "x,value\n0,0\n0.25,0.1875\n0.5,0.25\n0.75,0.1875\n1,0\n",
        "bad.csv": "0,zero\n",
        "nan.csv": "0,0\n0.25,0.1\n0.5,nan\n0.75,0.1\n1,0\n",
    }
    for name, text in contents.items():
        if not (tmp_path / name).exists():
            (tmp_path / name).write_text(text)
    return [str(tmp_path / name) for name in contents] + [
        str(tmp_path / "missing.csv")]


def _values(key, tables, tmp_path):
    """Admissible and inadmissible values of one option, small sizes only."""
    sizes = {"N": 16, "M": 8, "levels": 3}
    if key in sizes:
        return st.integers(-2, sizes[key]).map(str)
    return {
        "exponent": st.sampled_from(["exp-example1", "exp-example2",
                                     "exp-figure1", "zero", "mystery"]
                                    + tables),
        "alpha_end": st.sampled_from(["0.4", "0.9", "0", "1", "-0.5"]),
        "u0": st.sampled_from(["sin-pi", "poly-x2-1mx2", "gaussian"]
                              + tables),
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
    (tmp_path / "out.csv").unlink(missing_ok=True)  # create, not rewrite
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
