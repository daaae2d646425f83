import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from msdiff.cli import main
from msdiff.errors import ValidationError
from msdiff.harness import (ExperimentConfig, RateRow, RateTable,
                            emit_comparison_csv, emit_solution_csv,
                            emit_table, emit_weights_csv, format_sig5,
                            load_config_file, parse_rate_table,
                            run_convergence_space, run_convergence_time)
from msdiff.reference import ComparisonSeries
from msdiff.weights import assemble_weights


def small_time_cfg(**kw):
    base = dict(kind="convergence-time", exponent="exp-example1", u0="sin-pi",
                T=1.0, n_steps=32, m_cells=8, levels=3)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation_rules():
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="mystery")
    with pytest.raises(ValidationError):
        small_time_cfg(levels=1)
    with pytest.raises(ValidationError):
        small_time_cfg(fmt="yaml")
    with pytest.raises(ValidationError):
        small_time_cfg(u0="gaussian")
    with pytest.raises(ValidationError):
        small_time_cfg(T=-1.0)


def test_rate_rows_follow_log2_definition():
    table = run_convergence_time(small_time_cfg())
    errs = table.errors()
    rates = [r.rate for r in table.rows]
    assert rates[0] is None
    for j in range(1, len(errs)):
        assert rates[j] == pytest.approx(math.log2(errs[j - 1] / errs[j]),
                                         abs=1e-12)
    # first-order scheme: self-convergence errors decrease
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_levels_are_independent():
    joint = run_convergence_time(small_time_cfg(levels=3))
    single0 = run_convergence_time(small_time_cfg(levels=2))
    assert joint.rows[0] == single0.rows[0]
    assert joint.rows[1] == single0.rows[1]
    shifted = run_convergence_time(small_time_cfg(n_steps=64, levels=2))
    assert joint.rows[1].error == shifted.rows[0].error
    # identical up to the positional level ordinal
    assert (joint.rows[2].param, joint.rows[2].error, joint.rows[2].rate) \
        == (shifted.rows[1].param, shifted.rows[1].error, shifted.rows[1].rate)


def test_space_study_labels_and_errors():
    table = run_convergence_space(ExperimentConfig(
        kind="convergence-space", exponent="exp-example1", u0="sin-pi",
        T=1.0, n_steps=16, m_cells=8, levels=3))
    assert [r.param for r in table.rows] == [8, 16, 32]
    assert table.param_name == "M"
    assert table.fixed == "N=16"
    rates = table.rates()
    assert all(1.7 < r < 2.2 for r in rates)


def test_base_resolution_must_be_even():
    with pytest.raises(ValidationError):
        run_convergence_time(small_time_cfg(n_steps=33))
    with pytest.raises(ValidationError):
        run_convergence_space(ExperimentConfig(
            kind="convergence-space", n_steps=16, m_cells=6 + 1, levels=2))


def test_format_sig5_matches_table_style():
    assert format_sig5(1.7768e-4) == "1.7768e-4"
    assert format_sig5(5.9240e-6) == "5.9240e-6"
    assert format_sig5(1.4650e-3) == "1.4650e-3"
    assert format_sig5(1.0) == "1.0000e0"


def _toy_table():
    rows = (RateRow(0, 128, 1.7768e-4, None),
            RateRow(1, 256, 9.9362e-5, 0.8385))
    return RateTable(kind="convergence-time", param_name="N",
                     error_name="E2", exponent="exp-example1", u0="sin-pi",
                     fixed="M=32", rows=rows)


def test_csv_round_trip_is_exact():
    table = _toy_table()
    text = emit_table(table, "csv")
    assert parse_rate_table(text) == table
    assert "\r" not in text
    assert text.splitlines()[-1].split(",")[3] == "0.8385"



def test_csv_round_trip_of_numpy_floats_is_exact():
    # errors and rates computed by numpy print as plain floats
    table = _toy_table()
    rows = tuple(RateRow(r.level, r.param, np.float64(r.error),
                         None if r.rate is None else np.float64(r.rate) / 3.0)
                 for r in table.rows)
    table = dataclasses.replace(table, rows=rows)
    assert parse_rate_table(emit_table(table, "csv")) == table


# values whose shortest repr is long, signed zero, the smallest subnormal
# and normal numbers, the largest double, and a spread of magnitudes
_AWKWARD = np.concatenate((
    [0.1, 1.0 / 3.0, -0.0, 5e-324, 2.2250738585072014e-308,
     1.7976931348623157e308, -2.5e-17, 1e16, 123456789.12345679, math.pi],
    np.random.default_rng(7).standard_normal(30)
    * 10.0 ** np.arange(-290, 310, 20)))


def _same_floats(got, want):
    """Bit for bit, so that -0.0 and NaN count too."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


def _columns(text, header):
    lines = text.splitlines()
    assert lines[0] == header
    return [list(col) for col in zip(*(line.split(",") for line in lines[1:]))]


def test_every_csv_number_reads_back_to_the_same_float():
    # the four CSV emitters, each with its header unchanged
    values = _AWKWARD
    times, heat, multi, sub = (np.roll(values, i) for i in range(4))
    text = emit_comparison_csv(ComparisonSeries(times, heat, multi, sub))
    got = _columns(text, "t,heat,multiscale,subdiffusion")
    assert all(_same_floats([float(c) for c in col], want)
               for col, want in zip(got, (times, heat, multi, sub)))

    x, u = values, -values[::-1]
    got = _columns(emit_solution_csv(x, u), "x,value")
    assert all(_same_floats([float(c) for c in col], want)
               for col, want in zip(got, (x, u)))

    rows = tuple(RateRow(level, 2 ** level, err, None if level == 0 else rate)
                 for level, (err, rate) in enumerate(zip(
                     [math.nan, *values[1:].tolist()], values[::-1].tolist())))
    table = RateTable("convergence-space", "M", "G2", "exp-example2",
                      "poly-x2-1mx2", "N=64", rows)
    text = emit_table(table, "csv")
    assert text.splitlines()[:7] == [
        "# kind=convergence-space", "# param=M", "# error=G2",
        "# exponent=exp-example2", "# u0=poly-x2-1mx2", "# fixed=N=64",
        "level,param,error,rate"]
    back = parse_rate_table(text)
    assert _same_floats(back.errors(), table.errors())
    assert _same_floats(back.rates(), table.rates())
    assert [r.rate is None for r in back.rows] == [r.rate is None
                                                   for r in rows]

    cfg = ExperimentConfig(kind="weights-dump", n_steps=40, T=1.0)
    lag = assemble_weights(40, 1.0 / 40, cfg.build_exponent())
    n, k, b = _columns(emit_weights_csv(cfg), "n,k,b")
    n, k = np.array(n, int), np.array(k, int)
    assert n.size == 40 * 41 // 2 and np.all((1 <= k) & (k <= n))
    assert _same_floats([float(c) for c in b], lag[n - k])


def test_csv_marks_first_rate_with_star():
    text = emit_table(_toy_table(), "csv")
    first_data = [l for l in text.splitlines() if l.startswith("0,")][0]
    assert first_data.endswith(",*")


def test_markdown_renders_reference_strings():
    text = emit_table(_toy_table(), "markdown")
    assert "1.7768e-4" in text
    assert "0.8385" in text
    assert "| * |" in text


def test_emit_rejects_empty_table():
    empty = RateTable(kind="convergence-time", param_name="N",
                      error_name="E2", exponent="e", u0="u", fixed="M=1",
                      rows=())
    with pytest.raises(ValidationError):
        emit_table(empty, "csv")


def test_table_formatting_refuses_what_it_cannot_render():
    assert format_sig5(math.nan) == "nan"
    with pytest.raises(ValidationError, match="unknown output format"):
        emit_table(_toy_table(), "yaml")
    text = emit_table(_toy_table(), "csv").replace("# kind=", "# sort=")
    with pytest.raises(ValidationError,
                       match="malformed table header: missing 'kind'"):
        parse_rate_table(text)


@pytest.mark.parametrize("name", ["a\nb.csv", "a\rb.csv", "a.csv\r\n",
                                  "a\u2028b.csv"])
def test_csv_refuses_a_header_value_with_a_line_break(name):
    table = dataclasses.replace(_toy_table(), exponent=name)
    with pytest.raises(ValidationError, match="holds a line break"):
        emit_table(table, "csv")


@pytest.mark.parametrize("row", ["0,128,1e-4", "0,128,1e-4,*,5",
                                 "x,128,1e-4,*", "0,128,small,*",
                                 "0,1.5,1e-4,*"])
def test_rate_table_refuses_a_row_it_cannot_read(row):
    lines = emit_table(_toy_table(), "csv").splitlines()
    lines[-1] = row
    with pytest.raises(ValidationError,
                       match=f"malformed table row {len(lines)}"):
        parse_rate_table("\n".join(lines))


def test_identical_configs_give_byte_identical_output():
    a = emit_table(run_convergence_time(small_time_cfg()), "csv")
    b = emit_table(run_convergence_time(small_time_cfg()), "csv")
    assert a == b


def test_config_file_loading_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# demo configuration\n"
        "exponent = exp-example2\n"
        "u0 = poly-x2-1mx2\n"
        "T = 1.0\n"
        "N = 32   # base steps\n"
        "M = 8\n"
        "levels = 2\n"
        "format = markdown\n")
    values = load_config_file(str(cfg_file), "convergence-time")
    assert values["exponent"] == "exp-example2"
    assert values["n_steps"] == 32
    assert values["fmt"] == "markdown"

    # flags override the file, and the file fills in every other option
    out = tmp_path / "table.out"
    argv = ["convergence-time", "--config", str(cfg_file), "--out", str(out)]
    assert main(argv) == 0
    text = out.read_text()
    assert text.startswith("Self-convergence (convergence-time), exponent "
                           "exp-example2, u0 poly-x2-1mx2, M=8.")
    assert "| 32 |" in text and "| 64 |" in text and "| 128 |" not in text
    assert main(argv + ["--N", "64", "--format", "csv"]) == 0
    table = parse_rate_table(out.read_text())
    assert [r.param for r in table.rows] == [64, 128]
    assert (table.exponent, table.u0, table.fixed) == (
        "exp-example2", "poly-x2-1mx2", "M=8")

    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 3\n")
    with pytest.raises(ValidationError):
        load_config_file(str(bad), "solve")
    with pytest.raises(ValidationError):
        load_config_file(str(tmp_path / "missing.cfg"), "solve")


def test_cli_convergence_run_writes_csv(tmp_path):
    out = tmp_path / "table.csv"
    rc = main(["convergence-time", "--N", "32", "--M", "8", "--levels", "2",
               "--out", str(out)])
    assert rc == 0
    table = parse_rate_table(out.read_text())
    assert [r.param for r in table.rows] == [32, 64]


def test_cli_weights_dump(tmp_path):
    out = tmp_path / "w.csv"
    rc = main(["weights-dump", "--N", "4", "--T", "1.0",
               "--exponent", "exp-example1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,k,b"
    assert len(lines) == 1 + 10  # full lower triangle of N=4


def test_cli_solve_and_figure1(tmp_path):
    out = tmp_path / "u.csv"
    rc = main(["solve", "--N", "16", "--M", "8", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,value"
    # plot-ready numbers, no numpy scalar reprs
    x0, v0 = lines[1].split(",")
    assert float(x0) == 0.0 and float(v0) == 0.0

    fig = tmp_path / "fig.csv"
    rc = main(["figure1", "--N", "32", "--M", "8", "--T", "8.0",
               "--out", str(fig)])
    assert rc == 0
    lines = fig.read_text().splitlines()
    assert lines[0] == "t,heat,multiscale,subdiffusion"
    assert all(float(cell) is not None for cell in lines[1].split(","))
    assert len(lines) == 1 + 33


def test_cli_validation_failure_exits_2(capsys):
    assert main(["convergence-time", "--levels", "1"]) == 2
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--exponent"], ["--u0"]])
@pytest.mark.parametrize("content", [
    None,
    "t,alpha\n0,zero\n",
    "0,0\n0.25,0.1\n0.5,nan\n0.75,0.1\n1,0\n",
    "0,0\n0.25,0.1\n0.5,0.1\n0.75,0.1\ninf,0\n",
    "0,0\n5e-324,0\n1e-323,0\n1,0\n",
    "# no rows\n",
    "0,0\n0.5,0.1\n0.25,0.1\n1,0\n",
])
@pytest.mark.filterwarnings("error")
def test_cli_unreadable_table_exits_2(tmp_path, capsys, flags, content):
    path = tmp_path / "table.csv"
    if content is not None:
        path.write_text(content)
    assert main(["solve", "--N", "8", "--M", "4"] + flags + [str(path)]) == 2
    err = capsys.readouterr().err
    assert "msd: invalid input" in err and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags,rows", [
    (["--exponent"], "0,0\n0.25,0.1\n0.5,0.15\n0.75,0.18\n1,0.2\n"),
    (["--u0"],
     "0,0\n0.25,0.1875\n0.5,0.25\n0.75,0.1875\n1,0\n"),
], ids=["exponent-table", "u0-table"])
def test_cli_reads_a_table_that_starts_with_a_bom(tmp_path, flags, rows):
    # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
    outputs = []
    for name, text in (("plain.csv", rows), ("bom.csv", "\ufeff" + rows)):
        (tmp_path / name).write_text(text, encoding="utf-8")
        out = tmp_path / (name + ".out")
        assert main(["solve", "--N", "8", "--M", "4", "--out", str(out)]
                    + flags + [str(tmp_path / name)]) == 0, name
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_table_ends_are_judged_relative_to_the_data(tmp_path, capsys):
    # 1e6 sin(pi x) with exact zeros at the ends: its spline reads
    # 1.8e-12 at x = 1, far below 1e-12 times the data
    path = tmp_path / "u0.csv"
    args = ["solve", "--u0", str(path),
            "--N", "8", "--M", "4", "--out", str(tmp_path / "out.csv")]
    for end, code in ((0.0, 0), (1e-7, 0), (1e-5, 2)):
        values = [1e6 * math.sin(math.pi * i / 10) for i in range(11)]
        values[0], values[-1] = 0.0, end
        path.write_text("".join(f"{i / 10!r},{v!r}\n"
                                for i, v in enumerate(values)))
        assert main(args) == code, end
    assert "must vanish at the ends" in capsys.readouterr().err


def test_cli_module_entry_point(tmp_path):
    out = tmp_path / "t.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "msdiff", "convergence-time", "--N", "16",
         "--M", "4", "--levels", "2", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()


def test_cli_table_ending_before_final_time_exits_2(tmp_path, capsys):
    path = tmp_path / "alpha.csv"
    path.write_text("".join(f"{t},{0.3 * t}\n" for t in (0.0, 0.25, 0.5,
                                                          0.75, 1.0)))
    args = ["solve", "--exponent", str(path), "--N", "8", "--M", "4"]
    assert main(args + ["--T", "1"]) == 0
    capsys.readouterr()
    assert main(args + ["--T", "3"]) == 2
    err = capsys.readouterr().err
    assert "msd: invalid input" in err
    assert "last exponent sample is at t = 1.0" in err and "extrapolate" in err
    assert "Traceback" not in err
