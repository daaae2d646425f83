import math
import subprocess
import sys

import pytest

from msdiff.cli import main
from msdiff.errors import ValidationError
from msdiff.harness import (ExperimentConfig, RateRow, RateTable,
                            build_experiment, emit_table, format_sig5,
                            load_config_file, parse_rate_table,
                            run_convergence_space, run_convergence_time)


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
    values = load_config_file(str(cfg_file))
    assert values["exponent"] == "exp-example2"
    assert values["n_steps"] == 32
    assert values["fmt"] == "markdown"
    cfg = build_experiment("convergence-time", values, {"n_steps": 64})
    assert cfg.n_steps == 64          # CLI override wins
    assert cfg.exponent == "exp-example2"

    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 3\n")
    with pytest.raises(ValidationError):
        load_config_file(str(bad))
    with pytest.raises(ValidationError):
        load_config_file(str(tmp_path / "missing.cfg"))


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


@pytest.mark.parametrize("flags", [
    ["--exponent", "table", "--exponent-table"],
    ["--u0", "custom-table", "--u0-table"],
])
@pytest.mark.parametrize("content", [
    None,
    "t,alpha\n0,zero\n",
    "0,0\n0.25,0.1\n0.5,nan\n0.75,0.1\n1,0\n",
    "0,0\n0.25,0.1\n0.5,0.1\n0.75,0.1\ninf,0\n",
    "0,0\n5e-324,0\n1e-323,0\n1,0\n",
    "# no rows\n",
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
    args = ["solve", "--exponent", "table", "--exponent-table", str(path),
            "--N", "8", "--M", "4"]
    assert main(args + ["--T", "1"]) == 0
    capsys.readouterr()
    assert main(args + ["--T", "3"]) == 2
    err = capsys.readouterr().err
    assert "msd: invalid input" in err
    assert "last exponent sample is at t = 1.0" in err and "extrapolate" in err
    assert "Traceback" not in err
