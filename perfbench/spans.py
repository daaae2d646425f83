"""Span tracing of msdiff from outside the library.

A Tracer patches public names of msdiff where their callers look them
up (a module attribute the caller reads at call time, or a method on a
class), records one span per call with a parent link, and restores
every original object when its `with` block ends.  Spans live in
compact in-memory arrays and are written once, by save(), when the run
ends.  The library itself is not modified.

A target that no longer exists is skipped and listed in `missing`, so a
refactor of the library degrades the per-layer report instead of
breaking the run.
"""

import functools
import importlib
import json
from array import array
from time import perf_counter

import numpy as np


def _solve_work(config, *args, **kwargs):
    """(N, M) of a stepper.solve call: the inputs of the memory-sum counts."""
    return (config.n_steps, config.mesh.m_cells)


def _weights_work(n_steps, *args, **kwargs):
    """Lags assembled by an assemble_weights call."""
    return (n_steps,)


# (module, attribute path where the caller looks it up, span name, work)
TARGETS = (
    ("msdiff.cli", "main", "cli.main", None),
    ("msdiff.cli", "run_convergence_time", "harness.study", None),
    ("msdiff.cli", "run_convergence_space", "harness.study", None),
    ("msdiff.cli", "emit_table", "harness.emit", None),
    ("msdiff.cli", "emit_comparison_csv", "harness.emit", None),
    ("msdiff.cli", "emit_solution_csv", "harness.emit", None),
    ("msdiff.cli", "write_text", "harness.emit", None),
    ("msdiff.harness", "solve", "stepper.solve", _solve_work),
    ("msdiff.reference", "solve", "stepper.solve", _solve_work),
    ("msdiff.reference", "sample_solution", "stepper.sample", None),
    ("msdiff.reference", "heat_solve", "reference.heat", None),
    ("msdiff.reference", "constant_subdiffusion_solve", "reference.cq", None),
    ("msdiff.reference", "cq_weights", "reference.cq_weights", None),
    ("msdiff.stepper", "validate_assumption_a", "exponents.validate", None),
    ("msdiff.stepper", "assemble_weights", "weights.assemble", _weights_work),
    ("msdiff.fem", "TriDiagonalMatrix.factor", "fem.factor", None),
    ("msdiff.fem", "TriDiagonalMatrix.matvec", "fem.matvec", None),
    ("msdiff.fem", "TriFactor.solve", "fem.trisolve", None),
)

PASS = "pass"


def _owner(module_name, path):
    """(object holding the attribute, attribute name) or None if absent."""
    obj = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        obj = vars(obj).get(part)
        if obj is None:
            return None
    if attr not in vars(obj):
        return None
    return obj, attr


class Tracer:
    """Context manager that installs span wrappers and keeps the spans."""

    def __init__(self):
        self.names = [PASS]
        self.name = array("i")
        self.parent = array("q")
        self.pass_no = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = {}          # span id -> tuple of exact counts
        self.stack = [-1]
        self.current_pass = -1
        self.patched = []       # (owner, attr, original object)
        self.missing = []

    # -- recording -------------------------------------------------------

    def _open(self, name_index):
        sid = len(self.start)
        self.name.append(name_index)
        self.parent.append(self.stack[-1])
        self.pass_no.append(self.current_pass)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self, sid, t0, t1):
        self.start[sid] = t0
        self.end[sid] = t1
        self.stack.pop()

    def _wrap(self, fn, name, work):
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = None if work is None else work(*args, **kwargs)
            sid = self._open(index)
            if counts is not None:
                self.work[sid] = counts
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, t0, perf_counter())
        return traced

    def traced_pass(self, run):
        """Run one benchmark pass under a root span."""
        self.current_pass += 1
        sid = self._open(0)
        t0 = perf_counter()
        try:
            run()
        finally:
            self._close(sid, t0, perf_counter())

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        for module_name, path, name, work in TARGETS:
            found = _owner(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr = found
            original = vars(owner)[attr]
            self.patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, work))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()
        return False

    # -- analysis ----------------------------------------------------------

    def columns(self):
        """Copies of the span arrays as numpy columns, plus self times."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        return {"name": name, "parent": parent,
                "pass_no": np.array(self.pass_no, dtype=np.int32),
                "start": start, "end": end, "dur": dur,
                "self": dur - child_time}

    def has_ancestor(self, sid, name):
        """Whether span sid runs, at any depth, inside a span called name."""
        sid = self.parent[sid]
        while sid >= 0:
            if self.names[self.name[sid]] == name:
                return True
            sid = self.parent[sid]
        return False

    def save(self, path, meta):
        """Write every span, the work counts and the run metadata."""
        cols = self.columns()
        np.savez_compressed(
            path, names=np.array(self.names), name=cols["name"],
            parent=cols["parent"], pass_no=cols["pass_no"],
            start=cols["start"], end=cols["end"],
            work=np.array(json.dumps(self.work)),
            meta=np.array(json.dumps(meta)))


def memsum_counts(n_steps, m_cells):
    """Computed (not measured) flops and bytes of the direct memory sum.

    Step n = 2..N forms sum_{k=1..n-1} lag[n-k] U_k over the M-1
    unknowns: (n-1)(M-1) multiply-adds, reading n-1 lag values and
    (n-1)(M-1) history values of 8 bytes and writing M-1 results.
    """
    pairs = n_steps * (n_steps - 1) // 2
    unknowns = m_cells - 1
    return 2 * pairs * unknowns, 8 * (pairs * m_cells + (n_steps - 1) * unknowns)


def layer_metrics(tracer):
    """Per-layer metrics of each traced pass, as a list of dicts.

    Times are span totals in seconds (self_s: minus the time of wrapped
    children); counts are exact and repeat from pass to pass.
    """
    cols = tracer.columns()
    index = {label: i for i, label in enumerate(tracer.names)}
    result = []
    for p in range(tracer.current_pass + 1):
        in_pass = cols["pass_no"] == p

        def spans(label):
            return in_pass & (cols["name"] == index.get(label, -1))

        def total(label, column="dur"):
            return float(cols[column][spans(label)].sum())

        def count(label):
            return int(spans(label).sum())

        solves = np.flatnonzero(spans("stepper.solve"))
        flops = bytes_ = 0
        for sid in solves:
            f, b = memsum_counts(*tracer.work[int(sid)])
            flops += f
            bytes_ += b
        lags = sum(tracer.work[int(sid)][0]
                   for sid in np.flatnonzero(spans("weights.assemble")))
        stepper_self = total("stepper.solve", "self")
        trisolve_s, trisolves = total("fem.trisolve"), count("fem.trisolve")
        assemble_s = total("weights.assemble")
        result.append({
            "stepper.self_s": stepper_self,
            "stepper.solve_calls": len(solves),
            "stepper.memsum_flops": flops,
            "stepper.memsum_bytes": bytes_,
            "stepper.memsum_gflops":
                flops / stepper_self / 1e9 if stepper_self > 0 else 0.0,
            "fem.trisolve_s": trisolve_s,
            "fem.trisolve_calls": trisolves,
            "fem.trisolve_us_per_call":
                1e6 * trisolve_s / trisolves if trisolves else 0.0,
            "fem.matvec_s": total("fem.matvec"),
            "fem.matvec_calls": count("fem.matvec"),
            "fem.factor_s": total("fem.factor"),
            "weights.assemble_s": assemble_s,
            "weights.lags": lags,
            "weights.us_per_lag": 1e6 * assemble_s / lags if lags else 0.0,
            "exponents.validate_s": total("exponents.validate"),
            "exponents.validate_calls": count("exponents.validate"),
            "harness.study_s": total("harness.study"),
            "harness.study_self_s": total("harness.study", "self"),
            "harness.solves": sum(
                tracer.has_ancestor(int(sid), "harness.study")
                for sid in solves),
            "reference.heat_self_s": total("reference.heat", "self"),
            "reference.cq_self_s": total("reference.cq", "self"),
            "reference.cq_weights_s": total("reference.cq_weights"),
            "stepper.sample_s": total("stepper.sample"),
            "stepper.sample_calls": count("stepper.sample"),
            "cli.main_s": total("cli.main"),
            "harness.emit_s": total("harness.emit"),
        })
    return result
