"""Experiment orchestration: convergence studies, model comparison, exports.

Self-convergence tables follow the usual reporting convention: the row
labelled with resolution P (steps N or cells M) holds the discrete L2
difference between the runs at P/2 and at P, measured at final time on
the coarse interior nodes; for spatial studies the norm weight is the
refined mesh width 1/P.  The rate on row i is log2 of the ratio of the
errors on rows i-1 and i, and the first row carries no rate (printed
as '*').

CSV output is machine-oriented (full double precision, so tables
round-trip exactly through parse_rate_table); markdown output renders
errors with 5 significant digits and rates with 4 decimals, the layout
used in the reference tables.
"""

import io
import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import SolverError, ValidationError
from .exponents import (VariableExponent, cubic_spline, exponent_by_name,
                        read_table_csv)
from .fem import Mesh1D, discrete_l2_diff
from .reference import ComparisonSeries, figure_transition_profiles
from .stepper import SolverConfig, solve
from .weights import assemble_weights

KINDS = ("solve", "convergence-time", "convergence-space", "figure1",
         "weights-dump")
FORMATS = ("csv", "markdown")
U0_NAMES = ("sin-pi", "poly-x2-1mx2", "custom-table")


@dataclass(frozen=True)
class Option:
    """One run setting, declared once for config files and CLI flags.

    key is the config-file key; the flag is '--' + key with '_' turned
    into '-'.  field is the ExperimentConfig attribute it sets and kinds
    the experiment kinds that read it; any other kind rejects it.
    """

    key: str
    field: str
    type: type
    help: str
    kinds: tuple = KINDS
    choices: Optional[tuple] = None

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


_STUDIES = ("convergence-time", "convergence-space")
_EXPONENT_READERS = ("solve",) + _STUDIES + ("weights-dump",)
_DATA_READERS = ("solve",) + _STUDIES + ("figure1",)

OPTIONS = (
    Option("exponent", "exponent", str,
           "exp-example1|exp-example2|exp-figure1|zero|table",
           _EXPONENT_READERS),
    Option("alpha_end", "alpha_end", float,
           "terminal exponent of exp-figure1 / constant order"),
    Option("exponent_table", "exponent_table", str,
           "CSV of t,alpha samples for the 'table' profile",
           _EXPONENT_READERS),
    Option("u0", "u0", str, "|".join(U0_NAMES), _DATA_READERS),
    Option("u0_table", "u0_table", str,
           "CSV of x,value samples for custom-table", _DATA_READERS),
    Option("T", "T", float, "final time"),
    Option("N", "n_steps", int, "time steps"),
    Option("M", "m_cells", int, "mesh cells", _DATA_READERS),
    Option("levels", "levels", int,
           "refinement levels of a convergence study", _STUDIES),
    Option("out", "out", str, "output path (stdout when omitted)"),
    Option("format", "fmt", str, "output format", _STUDIES, FORMATS),
)


def options_for(kind: str) -> tuple:
    """The options that runs of this kind read, in table order."""
    return tuple(opt for opt in OPTIONS if kind in opt.kinds)


@dataclass
class ExperimentConfig:
    """Declarative description of one CLI run."""

    kind: str
    exponent: str = "exp-example1"
    alpha_end: float = 0.4
    exponent_table: Optional[str] = None
    u0: str = "sin-pi"
    u0_table: Optional[str] = None
    T: float = 1.0
    n_steps: int = 128
    m_cells: int = 32
    levels: int = 4
    out: Optional[str] = None
    fmt: str = "csv"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown experiment kind {self.kind!r}")
        if self.fmt not in FORMATS:
            raise ValidationError(f"unknown output format {self.fmt!r}")
        if self.u0 not in U0_NAMES:
            raise ValidationError(f"unknown initial profile {self.u0!r}")
        for label, value in (("T", self.T), ("N", self.n_steps),
                             ("M", self.m_cells), ("levels", self.levels)):
            if not 0 < value < math.inf:
                raise ValidationError(f"{label} = {value} is not in (0, inf)")
        if self.kind in ("convergence-time", "convergence-space") \
                and self.levels < 2:
            raise ValidationError(
                f"convergence studies need at least 2 levels, got {self.levels}")

    def build_exponent(self) -> VariableExponent:
        return exponent_by_name(self.exponent, self.T, self.alpha_end,
                                self.exponent_table)

    def build_initial(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.u0 == "sin-pi":
            return lambda x: np.sin(math.pi * np.asarray(x, float))
        if self.u0 == "poly-x2-1mx2":
            def poly(x):
                x = np.asarray(x, float)
                return x * x * (1.0 - x) ** 2
            return poly
        if self.u0_table is None:
            raise ValidationError("this run needs --u0-table")
        data = read_table_csv(self.u0_table, "x,value")
        if abs(data[0, 1]) > 1e-12 or abs(data[-1, 1]) > 1e-12:
            raise ValidationError(
                f"{self.u0_table}: sampled initial data must vanish at the ends")
        return cubic_spline(data[:, 0], data[:, 1], self.u0_table)


@dataclass(frozen=True)
class RateRow:
    level: int
    param: int
    error: float
    rate: Optional[float]


@dataclass(frozen=True)
class RateTable:
    kind: str
    param_name: str     # 'N' or 'M'
    error_name: str     # 'E2' or 'G2'
    exponent: str
    u0: str
    fixed: str          # e.g. 'M=32' or 'N=64'
    rows: tuple

    def errors(self) -> List[float]:
        return [r.error for r in self.rows]

    def rates(self) -> List[float]:
        return [r.rate for r in self.rows if r.rate is not None]


def _solve(cfg: ExperimentConfig, exponent: VariableExponent, initial,
           n_steps: int, m_cells: int):
    return solve(SolverConfig(T=cfg.T, n_steps=n_steps, mesh=Mesh1D(m_cells),
                              exponent=exponent, initial=initial))


def _refinement_errors(base: int, levels: int, solve_at, diff) -> list:
    """(P, error) rows for P = base, 2 base, ..., base 2^(levels-1).

    Row P compares the final snapshots at P/2 and P, so the ladder
    base/2, base, ..., base 2^(levels-1) is solved once and each run
    serves two neighbouring rows.  A run that raises SolverError leaves
    None (printed as NaN) in every row that uses it.
    """
    finals = []
    for p in (base // 2 * 2 ** i for i in range(levels + 1)):
        try:
            finals.append(solve_at(p))
        except SolverError:
            finals.append(None)
    entries = []
    for lvl, (coarse, fine) in enumerate(zip(finals, finals[1:])):
        p = base * 2 ** lvl
        err = None if coarse is None or fine is None else diff(coarse, fine, p)
        entries.append((p, err))
    return entries


def _attach_rates(kind, param_name, error_name, cfg, fixed, entries):
    rows = []
    prev = None
    for level, (param, err) in enumerate(entries):
        rate = None
        if prev is not None and err is not None \
                and 0.0 < prev < math.inf and 0.0 < err < math.inf:
            rate = math.log2(prev / err)
        rows.append(RateRow(level=level, param=param,
                            error=math.nan if err is None else err,
                            rate=rate))
        prev = err
    return RateTable(kind=kind, param_name=param_name, error_name=error_name,
                     exponent=cfg.exponent, u0=cfg.u0, fixed=fixed,
                     rows=tuple(rows))


def run_convergence_time(cfg: ExperimentConfig) -> RateTable:
    """Temporal self-convergence at fixed mesh.

    Row with label N compares the N/2-step and N-step runs at final
    time.  A solver failure marks the rows of its run (NaN error) and
    the study continues.
    """
    if cfg.n_steps % 2 != 0:
        raise ValidationError("base N must be even (the coarse mate is N/2)")
    exponent, initial = cfg.build_exponent(), cfg.build_initial()
    h = 1.0 / cfg.m_cells
    entries = _refinement_errors(
        cfg.n_steps, cfg.levels,
        lambda n: _solve(cfg, exponent, initial, n, cfg.m_cells).final(),
        lambda coarse, fine, n: discrete_l2_diff(coarse, fine,
                                                 "time-refined", h))
    return _attach_rates("convergence-time", "N", "E2", cfg,
                         f"M={cfg.m_cells}", entries)


def run_convergence_space(cfg: ExperimentConfig) -> RateTable:
    """Spatial self-convergence at fixed step count.

    Row with label M compares the M/2-cell and M-cell runs on the
    shared coarse nodes, normed with the fine width 1/M.
    """
    if cfg.m_cells % 2 != 0 or cfg.m_cells < 4:
        raise ValidationError("base M must be even and >= 4")
    exponent, initial = cfg.build_exponent(), cfg.build_initial()
    entries = _refinement_errors(
        cfg.m_cells, cfg.levels,
        lambda m: _solve(cfg, exponent, initial, cfg.n_steps, m).final(),
        lambda coarse, fine, m: discrete_l2_diff(coarse, fine,
                                                 "space-refined", 1.0 / m))
    return _attach_rates("convergence-space", "M", "G2", cfg,
                         f"N={cfg.n_steps}", entries)


def run_figure_comparison(cfg: ExperimentConfig) -> ComparisonSeries:
    """Centre-point series of the three models for the transition plot."""
    return figure_transition_profiles(T=cfg.T, alpha_end=cfg.alpha_end,
                                      n_steps=cfg.n_steps,
                                      m_cells=cfg.m_cells,
                                      initial=cfg.build_initial())


def run_single_solve(cfg: ExperimentConfig):
    """One multiscale run; returns (x nodes incl. boundary, final values)."""
    hist = _solve(cfg, cfg.build_exponent(), cfg.build_initial(),
                  cfg.n_steps, cfg.m_cells)
    x = np.concatenate(([0.0], hist.config.mesh.interior_nodes(), [1.0]))
    u = np.concatenate(([0.0], hist.final(), [0.0]))
    return x, u


# ---------------------------------------------------------------------------
# Formatting


def format_sig5(x: float) -> str:
    """5 significant digits in the compact e-notation of the tables,
    e.g. 1.7768e-4."""
    if not math.isfinite(x):
        return "nan"
    s = f"{x:.4e}"
    mantissa, expo = s.split("e")
    return f"{mantissa}e{int(expo)}"


def emit_table(table: RateTable, fmt: str) -> str:
    """Serialize a rate table; CSV round-trips exactly, markdown matches
    the reference layout (5-digit errors, 4-decimal rates, '*' first)."""
    if not table.rows:
        raise ValidationError("refusing to emit an empty table")
    if fmt == "csv":
        out = io.StringIO()
        out.write(f"# kind={table.kind}\n")
        out.write(f"# param={table.param_name}\n")
        out.write(f"# error={table.error_name}\n")
        out.write(f"# exponent={table.exponent}\n")
        out.write(f"# u0={table.u0}\n")
        out.write(f"# fixed={table.fixed}\n")
        out.write("level,param,error,rate\n")
        for r in table.rows:
            rate = "*" if r.rate is None else repr(r.rate)
            out.write(f"{r.level},{r.param},{r.error!r},{rate}\n")
        return out.getvalue()
    if fmt == "markdown":
        rate_name = "rate^t" if table.param_name == "N" else "rate^x"
        lines = [
            f"Self-convergence ({table.kind}), exponent {table.exponent}, "
            f"u0 {table.u0}, {table.fixed}.",
            "",
            f"| {table.param_name} | {table.error_name} | {rate_name} |",
            "| --- | --- | --- |",
        ]
        for r in table.rows:
            rate = "*" if r.rate is None else f"{r.rate:.4f}"
            lines.append(f"| {r.param} | {format_sig5(r.error)} | {rate} |")
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unknown output format {fmt!r}")


def parse_rate_table(text: str) -> RateTable:
    """Inverse of emit_table(..., 'csv')."""
    meta = {}
    rows = []
    lines = text.splitlines()
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line and line != "level,param,error,rate":
            level, param, error, rate = line.split(",")
            rows.append(RateRow(level=int(level), param=int(param),
                                error=float(error),
                                rate=None if rate == "*" else float(rate)))
    try:
        return RateTable(kind=meta["kind"], param_name=meta["param"],
                         error_name=meta["error"], exponent=meta["exponent"],
                         u0=meta["u0"], fixed=meta["fixed"], rows=tuple(rows))
    except KeyError as err:
        raise ValidationError(f"malformed table header: missing {err}") from err


def emit_comparison_csv(series: ComparisonSeries) -> str:
    out = io.StringIO()
    out.write("t,heat,multiscale,subdiffusion\n")
    for t, a, b, c in zip(series.times, series.heat, series.multiscale,
                          series.subdiffusion):
        out.write(f"{float(t)!r},{float(a)!r},{float(b)!r},{float(c)!r}\n")
    return out.getvalue()


def emit_solution_csv(x: np.ndarray, u: np.ndarray) -> str:
    out = io.StringIO()
    out.write("x,value\n")
    for xi, ui in zip(x, u):
        out.write(f"{float(xi)!r},{float(ui)!r}\n")
    return out.getvalue()


def emit_weights_csv(cfg: ExperimentConfig) -> str:
    """Dump the lower-triangular table b(n, k) = lag[n - k] as n,k,b rows."""
    exp = cfg.build_exponent()
    from .exponents import validate_assumption_a
    validate_assumption_a(exp, cfg.T)
    lag = assemble_weights(cfg.n_steps, cfg.T / cfg.n_steps, exp).tolist()
    out = io.StringIO()
    out.write("n,k,b\n")
    for n in range(1, cfg.n_steps + 1):
        for k in range(1, n + 1):
            out.write(f"{n},{k},{lag[n - k]!r}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Flat key=value config files


def load_config_file(path: str) -> dict:
    """Parse a flat 'key = value' file; '#' starts a comment."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ValidationError(f"cannot read config {path}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        opt = next((o for o in OPTIONS if o.key == key), None)
        if opt is None:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[opt.field] = opt.type(value)
        except ValueError as err:
            raise ValidationError(
                f"{path}:{lineno}: bad value for {key!r}: {err}") from err
    return values


def build_experiment(kind: str, file_values: dict,
                     overrides: dict) -> ExperimentConfig:
    """Merge config-file values with CLI overrides (overrides win).

    Both map ExperimentConfig fields to values; a field that runs of
    this kind do not read is rejected.
    """
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    read = {opt.field for opt in options_for(kind)}
    for field in merged:
        if field not in read:
            key = next((o.key for o in OPTIONS if o.field == field), field)
            raise ValidationError(
                f"option {key!r} is not read by kind {kind!r}")
    return ExperimentConfig(kind=kind, **merged)


def write_text(text: str, path: Optional[str]) -> None:
    """Write to path with LF endings, or to stdout when path is None."""
    if path is None:
        print(text, end="")
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        raise ValidationError(f"cannot write {path}: {err}") from err
