"""Command line front end.

    msd solve|convergence-time|convergence-space|figure1|weights-dump
        [--config FILE] [--out PATH] [--format csv|markdown] [overrides...]

Config files are flat 'key = value' text; every key can be overridden
by the matching flag.  Exit codes: 0 success, 2 validation error,
3 solver failure.
"""

import argparse
import sys

from .errors import SolverError, ValidationError
from .harness import (KINDS, build_experiment, emit_comparison_csv,
                      emit_solution_csv, emit_table, emit_weights_csv,
                      load_config_file, run_convergence_space,
                      run_convergence_time, run_figure_comparison,
                      run_single_solve, write_text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msd",
        description="Multiscale diffusion solver and experiment harness")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--exponent",
                       help="exp-example1|exp-example2|exp-figure1|zero|table")
        p.add_argument("--alpha-end", dest="alpha_end", type=float,
                       help="terminal exponent of exp-figure1 / constant order")
        p.add_argument("--exponent-table", dest="exponent_table",
                       help="CSV of t,alpha samples for the 'table' profile")
        p.add_argument("--u0", help="sin-pi|poly-x2-1mx2|custom-table")
        p.add_argument("--u0-table", dest="u0_table",
                       help="CSV of x,value samples for custom-table")
        p.add_argument("--T", dest="T", type=float, help="final time")
        p.add_argument("--N", dest="n_steps", type=int, help="time steps")
        p.add_argument("--M", dest="m_cells", type=int, help="mesh cells")
        p.add_argument("--levels", type=int,
                       help="refinement levels of a convergence study")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", dest="fmt", choices=("csv", "markdown"),
                       help="output format")
    return parser


def _run(args) -> str:
    file_values = load_config_file(args.config) if args.config else {}
    overrides = {name: getattr(args, name) for name in
                 ("exponent", "alpha_end", "exponent_table", "u0", "u0_table",
                  "T", "n_steps", "m_cells", "levels", "out", "fmt")}
    cfg = build_experiment(args.kind, file_values, overrides)
    if cfg.kind == "convergence-time":
        return emit_table(run_convergence_time(cfg), cfg.fmt), cfg.out
    if cfg.kind == "convergence-space":
        return emit_table(run_convergence_space(cfg), cfg.fmt), cfg.out
    if cfg.kind == "figure1":
        return emit_comparison_csv(run_figure_comparison(cfg)), cfg.out
    if cfg.kind == "weights-dump":
        return emit_weights_csv(cfg), cfg.out
    x, u = run_single_solve(cfg)
    return emit_solution_csv(x, u), cfg.out


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, out = _run(args)
        write_text(text, out)
    except ValidationError as err:
        print(f"msd: invalid input: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"msd: solver failure: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
