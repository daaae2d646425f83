"""The benchmark workloads and their output gates.

Every workload drives the `msd` command in-process through
`msdiff.cli.main`, looked up on the module at each call so that the
traced run sees its wrapper.  Outputs go to CSV files in a scratch
directory and are checked after each pass:

- tables: the four reference studies (Tables 1 and 2 of the paper);
  every error must equal the published value at five significant digits
  and every rate must lie within RATE_TOL of the published rate.
- transition: the heat / multiscale / constant-order comparison; the
  three criterion-8 checks must hold and every series must match the
  values recorded at the commit that introduced the benchmark within
  RECORDED_RTOL (relative, max norm over each series).

The sizes are fixed; nothing is drawn at random.
"""

import json
from pathlib import Path

import numpy as np

from msdiff import cli
from msdiff.harness import format_sig5, parse_rate_table

REFERENCE = Path(__file__).resolve().parent / "reference"
RATE_TOL = 1e-4
RECORDED_RTOL = 1e-12

# (output name, msd arguments, key in reference/tables.json)
_STUDIES = (
    ("ex1-time", ["convergence-time", "--exponent", "exp-example1",
                  "--u0", "sin-pi", "--T", "1", "--N", "128", "--M", "32",
                  "--levels", "5"], "table1_time"),
    ("ex1-space", ["convergence-space", "--exponent", "exp-example1",
                   "--u0", "sin-pi", "--T", "1", "--N", "64", "--M", "8",
                   "--levels", "5"], "table1_space"),
    ("ex2-time", ["convergence-time", "--exponent", "exp-example2",
                  "--u0", "poly-x2-1mx2", "--T", "1", "--N", "128",
                  "--M", "32", "--levels", "5"], "table2_time"),
    ("ex2-space", ["convergence-space", "--exponent", "exp-example2",
                   "--u0", "poly-x2-1mx2", "--T", "1", "--N", "64",
                   "--M", "16", "--levels", "5"], "table2_space"),
)

TRANSITION_ARGS = ["figure1", "--T", "8", "--alpha-end", "0.4",
                   "--N", "1024", "--M", "128"]


class Workload:
    """One closed-loop client: run_pass() calls msd, check() gates it."""

    name = ""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.runs = []  # (msd argv, output path)

    def _add_run(self, args, stem):
        path = self.out_dir / f"{self.name}-{stem}.csv"
        self.runs.append((list(args) + ["--out", str(path)], path))

    def clear(self) -> None:
        """Remove earlier outputs so a stale file can never pass a gate."""
        for _, path in self.runs:
            path.unlink(missing_ok=True)

    def run_pass(self) -> None:
        for argv, _ in self.runs:
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"msd {argv[0]} exited with code {code}")

    def outputs(self) -> list:
        """Raw text of every output, in run order."""
        return [path.read_text(encoding="utf-8") for _, path in self.runs]

    def check(self) -> list:
        """Problems found in the outputs of the last pass; empty if correct."""
        raise NotImplementedError


def _rel_max_gap(values, reference) -> float:
    return float(np.max(np.abs(values - reference)) / np.max(np.abs(reference)))


def _load_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Tables(Workload):
    name = "tables"

    def __init__(self, out_dir):
        super().__init__(out_dir)
        refs = json.loads((REFERENCE / "tables.json").read_text())
        self.expected = []
        for stem, args, key in _STUDIES:
            self._add_run(args, stem)
            self.expected.append((stem, refs[key]))

    def check(self):
        problems = []
        for (stem, ref), text in zip(self.expected, self.outputs()):
            table = parse_rate_table(text)
            errors, rates = table.errors(), table.rates()
            if [r.param for r in table.rows] != ref["params"]:
                problems.append(f"{stem}: rows {[r.param for r in table.rows]}")
            got = [format_sig5(e) for e in errors]
            if got != ref["errors"]:
                problems.append(f"{stem}: errors {got} != {ref['errors']}")
            if len(rates) != len(ref["rates"]) or any(
                    not abs(r - p) <= RATE_TOL
                    for r, p in zip(rates, ref["rates"])):
                problems.append(f"{stem}: rates {rates} vs {ref['rates']}")
        return problems


def transition_checks(t, heat, multi, sub) -> dict:
    """The three criterion-8 checks of the model transition."""
    early = t <= 0.8
    tail = t >= 4.0
    return {
        "early-fickian": bool(np.all(
            np.abs(multi[early] - heat[early])
            <= np.abs(multi[early] - sub[early]))),
        "late-subdiffusive":
            bool(abs(multi[-1] - sub[-1]) < abs(multi[-1] - heat[-1])),
        "tail-ordering": bool(np.all(
            (heat[tail] <= multi[tail] + 1e-15)
            & (multi[tail] <= sub[tail] + 1e-15))),
    }


class Transition(Workload):
    name = "transition"

    def __init__(self, out_dir):
        super().__init__(out_dir)
        self._add_run(TRANSITION_ARGS, "figure1")
        self.reference = _load_csv(REFERENCE / "transition.csv")

    def check(self):
        got = _load_csv(self.runs[0][1])
        if got.shape != self.reference.shape:
            return [f"series shape {got.shape} != {self.reference.shape}"]
        problems = [f"criterion 8 {name} fails"
                    for name, ok in transition_checks(*got.T).items() if not ok]
        if not np.array_equal(got[:, 0], self.reference[:, 0]):
            problems.append("time grid differs from the recording")
        for col, series in enumerate(("heat", "multiscale", "subdiffusion"), 1):
            gap = _rel_max_gap(got[:, col], self.reference[:, col])
            if not gap <= RECORDED_RTOL:
                problems.append(f"{series} relative max gap {gap:.3e}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Tables, Transition)}
