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

import math
import operator
import os
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import ValidationError
from .exponents import (EXPONENTS, VariableExponent, cubic_spline,
                        exponent_by_name, read_table_csv,
                        validate_assumption_a)
from .fem import Mesh1D, discrete_l2_norm, end_tolerance
from .reference import (ComparisonSeries, figure_transition_profiles,
                        sin_pi)
from .stepper import SolverConfig, solve, solve_ladder
from .weights import assemble_weights

KINDS = ("solve", "convergence-time", "convergence-space", "figure1",
         "weights-dump")
FORMATS = ("csv", "markdown")


def _poly_x2_1mx2(x):
    x = np.asarray(x, float)
    return x * x * (1.0 - x) ** 2


INITIAL_DATA = {"sin-pi": sin_pi, "poly-x2-1mx2": _poly_x2_1mx2}


def _checked(convert, admits, reason: str):
    """Option check: convert(value), refused for reason unless admitted."""
    def check(value):
        value = convert(value)
        if not admits(value):
            raise ValueError(f"{value!r} {reason}")
        return value
    return check


def _integer(value) -> int:
    """int of a decimal string or of an integer (8.5 is not truncated)."""
    return int(value) if isinstance(value, str) else operator.index(value)


def _positive(convert):
    return _checked(convert, lambda v: 0 < v < math.inf, "is not in (0, inf)")


def _profile(names):
    return _checked(str, lambda v: v in names or os.path.isfile(v),
                    f"is neither a built-in profile ({', '.join(names)}) "
                    "nor a file")


@dataclass(frozen=True)
class Option:
    """One run setting, declared once for config files, CLI flags and
    ExperimentConfig.  key is the config-file key, and the flag is '--'
    + key with '_' turned into '-'.  check converts a value of the
    ExperimentConfig field or raises ValueError or TypeError, and kinds
    are the experiment kinds that read it; any other kind rejects it."""

    key: str
    field: str
    check: Callable
    help: str
    kinds: tuple = KINDS

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")

    def parse(self, value, name: str):
        """check(value), or ValidationError naming the option as name."""
        try:
            return self.check(value)
        except (TypeError, ValueError) as err:
            raise ValidationError(f"bad value for {name!r}: {err}") from err


_STUDIES = ("convergence-time", "convergence-space")
_EXPONENT_READERS = ("solve",) + _STUDIES + ("weights-dump",)
_DATA_READERS = ("solve",) + _STUDIES + ("figure1",)

OPTIONS = (
    Option("exponent", "exponent", _profile(EXPONENTS),
           f"{'|'.join(EXPONENTS)}, or a CSV file of t,alpha samples",
           _EXPONENT_READERS),
    Option("alpha_end", "alpha_end", float,
           "terminal exponent of exp-figure1 / constant order of figure1"),
    Option("u0", "u0", _profile(INITIAL_DATA),
           f"{'|'.join(INITIAL_DATA)}, or a CSV file of x,value samples",
           _DATA_READERS),
    Option("T", "T", _positive(float), "final time"),
    Option("N", "n_steps", _positive(_integer), "time steps"),
    Option("M", "m_cells", _positive(_integer), "mesh cells", _DATA_READERS),
    Option("levels", "levels", _checked(_integer, lambda v: v >= 2,
                                        "is fewer than the 2 a study needs"),
           "refinement levels of a convergence study", _STUDIES),
    Option("out", "out", str, "output path (stdout when omitted)"),
    Option("format", "fmt",
           _checked(str, FORMATS.__contains__, f"is not one of {FORMATS}"),
           "output format", _STUDIES),
)


def options_for(kind: str) -> tuple:
    """The options that runs of this kind read, in table order."""
    return tuple(opt for opt in OPTIONS if kind in opt.kinds)


@dataclass
class ExperimentConfig:
    """Declarative description of one CLI run; every field but kind is
    checked by its row of OPTIONS."""

    kind: str
    exponent: str = "exp-example1"
    alpha_end: float = 0.4
    u0: str = "sin-pi"
    T: float = 1.0
    n_steps: int = 128
    m_cells: int = 32
    levels: int = 4
    out: Optional[str] = None
    fmt: str = "csv"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown experiment kind {self.kind!r}")
        for opt in OPTIONS:
            value = getattr(self, opt.field)
            if value is not None:
                setattr(self, opt.field, opt.parse(value, opt.field))

    def build_exponent(self) -> VariableExponent:
        return exponent_by_name(self.exponent, self.T, self.alpha_end)

    def build_initial(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.u0 in INITIAL_DATA:
            return INITIAL_DATA[self.u0]
        data = read_table_csv(self.u0, "x,value")
        if np.abs(data[[0, -1], 1]).max() > end_tolerance(data[1:-1, 1]):
            raise ValidationError(
                f"{self.u0}: sampled initial data must vanish at the ends")
        return cubic_spline(data[:, 0], data[:, 1], self.u0)


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


def _study(cfg: ExperimentConfig, base: int, grid, diff, names: tuple,
           fixed: str) -> RateTable:
    """Rate table of the rows P = base, 2 base, ..., base 2^(levels-1).

    Row P holds diff(final at P/2, final at P, P), grid(P) giving the
    (N, M) of the run at P, so the ladder base/2, ..., base 2^(levels-1)
    is solved once, by stepper.solve_ladder, and each run serves two
    rows.  A failed run leaves NaN in every row that uses it.  names
    are (kind, parameter, error) of the table.
    """
    exponent, initial = cfg.build_exponent(), cfg.build_initial()
    params = [base // 2 * 2 ** i for i in range(cfg.levels + 1)]
    finals = solve_ladder([
        SolverConfig(T=cfg.T, n_steps=n, mesh=Mesh1D(m), exponent=exponent,
                     initial=initial) for n, m in map(grid, params)])
    rows, prev = [], math.nan
    for level, p in enumerate(params[1:]):
        coarse, fine = finals[level], finals[level + 1]
        err = math.nan if coarse is None or fine is None \
            else diff(coarse, fine, p)
        rate = math.log2(prev / err) if 0.0 < prev < math.inf \
            and 0.0 < err < math.inf else None
        rows.append(RateRow(level=level, param=p, error=err, rate=rate))
        prev = err
    return RateTable(*names, cfg.exponent, cfg.u0, fixed, tuple(rows))


def run_convergence_time(cfg: ExperimentConfig) -> RateTable:
    """Temporal self-convergence at fixed mesh.

    Row with label N compares the N/2-step and N-step runs at final
    time.  A solver failure marks the rows of its run (NaN error) and
    the study continues.
    """
    if cfg.n_steps % 2 != 0:
        raise ValidationError("base N must be even (the coarse mate is N/2)")
    h = 1.0 / cfg.m_cells
    return _study(cfg, cfg.n_steps, lambda n: (n, cfg.m_cells),
                  lambda coarse, fine, n: discrete_l2_norm(coarse - fine, h),
                  ("convergence-time", "N", "E2"), f"M={cfg.m_cells}")


def run_convergence_space(cfg: ExperimentConfig) -> RateTable:
    """Spatial self-convergence at fixed step count.

    Row with label M compares the M/2-cell and M-cell runs on the
    shared coarse nodes, normed with the fine width 1/M.
    """
    if cfg.m_cells % 2 != 0 or cfg.m_cells < 4:
        raise ValidationError("base M must be even and >= 4")
    return _study(cfg, cfg.m_cells, lambda m: (cfg.n_steps, m),
                  lambda coarse, fine, m: discrete_l2_norm(coarse - fine[1::2],
                                                           1.0 / m),
                  ("convergence-space", "M", "G2"), f"N={cfg.n_steps}")


def run_figure_comparison(cfg: ExperimentConfig) -> ComparisonSeries:
    """Centre-point series of the three models for the transition plot."""
    return figure_transition_profiles(T=cfg.T, alpha_end=cfg.alpha_end,
                                      n_steps=cfg.n_steps,
                                      m_cells=cfg.m_cells,
                                      initial=cfg.build_initial())


def run_single_solve(cfg: ExperimentConfig):
    """One multiscale run; returns (x nodes incl. boundary, final values)."""
    hist = solve(SolverConfig(cfg.T, cfg.n_steps, Mesh1D(cfg.m_cells),
                              cfg.build_exponent(), cfg.build_initial()))
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
    mantissa, expo = f"{x:.4e}".split("e")
    return f"{mantissa}e{int(expo)}"


# (key, RateTable field) of the '# key=value' header lines of a CSV table
_HEADER = (("kind", "kind"), ("param", "param_name"), ("error", "error_name"),
           ("exponent", "exponent"), ("u0", "u0"), ("fixed", "fixed"))


def emit_table(table: RateTable, fmt: str) -> str:
    """Serialize a rate table; CSV round-trips exactly, markdown matches
    the reference layout (5-digit errors, 4-decimal rates, '*' first)."""
    if not table.rows:
        raise ValidationError("refusing to emit an empty table")
    if fmt == "csv":
        head = [f"# {key}={getattr(table, field)}" for key, field in _HEADER]
        for line in head:
            if "".join(line.splitlines()) != line:
                raise ValidationError(f"table header value {line[2:]!r} "
                                      "holds a line break")
        return _csv("\n".join(head + ["level,param,error,rate"]), *zip(*(
            (r.level, r.param, r.error, "*" if r.rate is None
             else repr(float(r.rate))) for r in table.rows)))
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
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line and line != "level,param,error,rate":
            try:
                level, param, error, rate = line.split(",")
                rows.append(RateRow(level=int(level), param=int(param),
                                    error=float(error),
                                    rate=None if rate == "*" else float(rate)))
            except ValueError as err:
                raise ValidationError(
                    f"malformed table row {number}: {line!r}") from err
    try:
        return RateTable(rows=tuple(rows),
                         **{field: meta[key] for key, field in _HEADER})
    except KeyError as err:
        raise ValidationError(f"malformed table header: missing {err}") from err


def _csv(header: str, *columns) -> str:
    """Header line(s), then a line per row of the columns; via .tolist(),
    str of each float is its repr, so every number reads back exactly."""
    cells = zip(*[map(str, np.asarray(col).tolist()) for col in columns])
    return "\n".join([header, *map(",".join, cells), ""])


def emit_comparison_csv(series: ComparisonSeries) -> str:
    return _csv("t,heat,multiscale,subdiffusion", series.times, series.heat,
                series.multiscale, series.subdiffusion)


def emit_solution_csv(x: np.ndarray, u: np.ndarray) -> str:
    return _csv("x,value", x, u)


def emit_weights_csv(cfg: ExperimentConfig) -> str:
    """Dump the lower-triangular table b(n, k) = lag[n - k] as n,k,b rows."""
    exp = cfg.build_exponent()
    validate_assumption_a(exp, cfg.T)
    steps = cfg.n_steps
    # assemble_weights refuses a step count past 2**60 before it reads
    # the step size, which T / N cannot give past the float range
    lag = assemble_weights(steps, cfg.T / min(steps, 2 ** 62), exp)
    n, k = np.tril_indices(steps)
    return _csv("n,k,b", n + 1, k + 1, lag[n - k])


# ---------------------------------------------------------------------------
# Flat key=value config files


def load_config_file(path: str, kind: str) -> dict:
    """ExperimentConfig fields of a flat 'key = value' file; '#' starts a
    comment and a leading BOM is skipped.  A key may appear once, if runs
    of this kind read it, with a value its option admits; each error
    names its line."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as err:
        raise ValidationError(f"cannot read config {path}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ValidationError(
                f"{where}: expected 'key = value', got {raw!r}")
        key, _, value = map(str.strip, line.partition("="))
        opt = next((o for o in OPTIONS if o.key == key), None)
        if opt is None:
            raise ValidationError(f"{where}: unknown key {key!r}")
        if kind not in opt.kinds:
            raise ValidationError(
                f"{where}: option {key!r} is not read by kind {kind!r}")
        if opt.field in values:
            raise ValidationError(f"{where}: key {key!r} given twice")
        try:
            values[opt.field] = opt.parse(value, key)
        except ValidationError as err:
            raise ValidationError(f"{where}: {err}") from err
    return values


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
