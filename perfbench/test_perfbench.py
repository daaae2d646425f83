"""Tests of the benchmark itself (run with: python3 -m pytest perfbench).

Tracing must not change what the program computes, and must leave no
wrapper behind.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import run

run.cap_threads()
run.import_program()

import numpy as np  # noqa: E402
from msdiff import fem  # noqa: E402
from msdiff.errors import SolverError  # noqa: E402
from spans import TARGETS, Tracer, _owner, layer_metrics, memsum_counts  # noqa: E402
from workloads import WORKLOADS, transition_checks  # noqa: E402


def _originals():
    found = {}
    for module_name, path, _, _ in TARGETS:
        owner, attr = _owner(module_name, path)
        found[(module_name, path)] = vars(owner)[attr]
    return found


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_are_bitwise_identical(name, tmp_path):
    workload = WORKLOADS[name](tmp_path)
    before = _originals()

    workload.run_pass()
    plain = workload.outputs()
    assert workload.check() == []

    tracer = Tracer()
    with tracer:
        assert _originals() != before
        tracer.traced_pass(workload.run_pass)
    traced = workload.outputs()

    assert traced == plain
    assert tracer.missing == []
    assert _originals() == before
    metrics = layer_metrics(tracer)
    assert len(metrics) == 1 and metrics[0]["cli.main_s"] > 0


def test_wrappers_removed_when_a_wrapped_call_raises():
    singular = fem.TriDiagonalMatrix(sub=np.zeros(1), diag=np.zeros(2),
                                     sup=np.zeros(1))
    before = _originals()
    tracer = Tracer()
    with pytest.raises(SolverError):
        with tracer:
            tracer.traced_pass(singular.factor)
    assert _originals() == before
    cols = tracer.columns()
    assert [tracer.names[i] for i in cols["name"]] == ["pass", "fem.factor"]
    assert list(cols["parent"]) == [-1, 0]
    assert (cols["end"] >= cols["start"]).all() and tracer.stack == [-1]


def test_spans_link_parents_and_count_exactly(tmp_path):
    workload = WORKLOADS["tables"](tmp_path)
    tracer = Tracer()
    with tracer:
        for _ in range(2):
            tracer.traced_pass(workload.run_pass)
    first, second = layer_metrics(tracer)
    counts = [k for k, v in first.items() if isinstance(v, int)]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["stepper.solve_calls"] == first["harness.solves"] == 40
    assert first["exponents.validate_calls"] == 40
    time_runs = [(n, 32) for lvl in range(5) for n in (64 << lvl, 128 << lvl)]
    runs = (2 * time_runs
            + [(64, m) for lvl in range(5) for m in (4 << lvl, 8 << lvl)]
            + [(64, m) for lvl in range(5) for m in (8 << lvl, 16 << lvl)])
    assert first["stepper.memsum_flops"] == sum(
        memsum_counts(n, m)[0] for n, m in runs)
    cols = tracer.columns()
    assert (cols["dur"] >= 0).all() and (cols["self"] >= -1e-9).all()
    roots = cols["parent"] < 0
    assert [tracer.names[i] for i in cols["name"][roots]] == ["pass", "pass"]


def test_memsum_counts_small_case():
    # N = 3, M = 4: steps n = 2, 3 combine 1 and 2 history rows of 3
    # unknowns; they read 1 + 2 lags and 3 + 6 values and write 3 + 3
    flops, nbytes = memsum_counts(3, 4)
    assert flops == 2 * (3 + 6)
    assert nbytes == 8 * ((1 + 2) + (3 + 6) + (3 + 3))


def test_transition_checks_detect_a_swapped_series():
    t = np.linspace(0.0, 8.0, 9)
    heat = np.exp(-t)
    sub = 1.0 / (1.0 + t)
    multi = np.where(t <= 0.8, heat, sub - 1e-3)
    assert all(transition_checks(t, heat, multi, sub).values())
    assert not all(transition_checks(t, sub, multi, heat).values())


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.HERE).glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (Path(run.ROOT) / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_each_pass_is_divided_by_the_kernel_runs_around_it():
    class Stub:
        def clear(self):
            pass

        def run_pass(self):
            pass

        def check(self):
            return []

    calls = []
    records = run.run_passes(Stub(), 0.0, lambda: calls.append(1))
    assert len(records) == run.MIN_PASSES
    assert len(calls) == run.MIN_PASSES + 1
    assert all(r.passed for r in records)
