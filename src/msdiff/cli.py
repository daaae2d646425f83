"""Command line front end.

    msd solve|convergence-time|convergence-space|figure1|weights-dump
        [--config FILE] [--KEY VALUE ...]

Each subcommand takes exactly the flags of the options its kind reads
(`harness.OPTIONS`); `--exponent` and `--u0` take a profile name or a
CSV table path.  Config files are flat 'key = value' text with the same
keys (`alpha_end` is `--alpha-end`).  A flag or key may be given once,
and a flag overrides the file; `Option.parse` checks each value, and an
error names the flag or the file's line.  A flag or key the kind does
not read is invalid input, as is `alpha_end` outside figure1 and
exp-figure1, which `ExperimentConfig` refuses wherever it is set.  The
parser is built once per process.  Exit codes: 0 success, 2 invalid
input, 3 solver failure (including out of memory).
"""

import argparse
import functools
import sys

from .errors import SolverError, ValidationError
from .harness import (KINDS, ExperimentConfig, emit_comparison_csv,
                      emit_solution_csv, emit_table, emit_weights_csv,
                      load_config_file, options_for, run_convergence_space,
                      run_convergence_time, run_figure_comparison,
                      run_single_solve, write_text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The msd parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="msd",
        description="Multiscale diffusion solver and experiment harness")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", help="flat key = value config file")
        for opt in options_for(kind):
            p.add_argument(opt.flag, dest=opt.field, action="append",
                           help=opt.help)
    return parser


def _run(args) -> tuple:
    values = load_config_file(args.config, args.kind) if args.config else {}
    for opt in options_for(args.kind):
        given = getattr(args, opt.field) or ()
        if len(given) > 1:  # as a repeated config key is
            raise ValidationError(f"{opt.flag} given twice")
        if given:
            values[opt.field] = opt.parse(given[0], opt.flag)
    cfg = ExperimentConfig(args.kind, **values)
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
    try:
        text, out = _run(_build_parser().parse_args(argv))
        write_text(text, out)
    except ValidationError as err:
        print(f"msd: invalid input: {err}", file=sys.stderr)
        return 2
    except (SolverError, MemoryError) as err:
        print(f"msd: solver failure: {str(err) or 'out of memory'}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
