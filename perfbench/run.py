#!/usr/bin/env python3
"""Benchmark of the msdiff solver through its `msd` command.

    python3 perfbench/run.py --workload tables|transition \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports msdiff from
./src (there is nothing to compile) and exits non-zero when the sources
are absent.  One process, one caller, passes back to back (closed loop,
one client); BLAS/OpenMP pools are capped at the usable CPU count.
Every pass is checked against a reference (see workloads.py); a pass
that raises, exits non-zero or fails its check counts as failed and the
run goes on.

--trace 0 prints the end-to-end metrics: setup_s (median over
SETUP_PROBES fresh processes of the time from process start to inputs
built, i.e. to the first timed pass), wall_rel and cpu_rel (median over
passing passes of the pass's wall and process CPU time divided by those
of the reference kernel run just before and just after it),
peak_rss_mb (process peak) and pass_frac (passed / attempted); it also
prints the median and fastest pass times in seconds, the highest
percentile with 10 passes beyond it and failed_frac.  Pass times are
gated relative to the kernel because the shared machines the benchmark
runs on change speed by up to 1.7x for seconds to minutes at a time;
the kernel, which does not touch msdiff, slows with them, so the ratio
stays steady where seconds do not (see README.md).  --trace 1 spends
the first half of the time on untraced passes and the second half on
passes traced by spans.Tracer, and prints the per-layer metrics (lower
medians over traced passes) plus trace.overhead_s, the difference of
the median kernel-relative pass times, traced minus untraced, in
seconds of the median kernel run.
Scratch outputs, the span file and a result record with the
machine description go to .perfbench_out/ in the checkout.  The last
line of standard output is the JSON result.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 3
SETUP_PROBES = 7


def cap_threads() -> int:
    """Cap BLAS/OpenMP thread pools at the usable CPUs (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_program():
    """Import msdiff from the checkout's src/, never from elsewhere."""
    package = SRC / "msdiff"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"run.py: no msdiff sources at {package}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import msdiff
    if Path(msdiff.__file__).resolve().parent != package:
        raise SystemExit(f"run.py: imported msdiff from {msdiff.__file__}")


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its inputs being built."""
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - t0


class ReferenceKernel:
    """Fixed work timed next to every pass, in the proportions a pass
    of either workload spends its time on: an interpreter loop, small
    numpy products and history-style sums over a 1 MB array.  It does not
    touch msdiff, so a change to the program leaves it alone, while a
    machine that slows down for a while slows it about as much as a
    pass."""

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self.matrix = rng.random((64, 256))
        self.vector = rng.random(256)
        self.history = rng.random((1025, 127))
        self.lags = rng.random(1025)

    def __call__(self) -> float:
        total = 0
        for i in range(150_000):
            total += i * i % 7
        for _ in range(1_500):
            total += float((self.matrix @ self.vector)[3])
        for n in range(2, 1025, 8):
            total += float((self.lags[1:n][::-1] @ self.history[1:n])[0])
        return total


def timed(fn):
    """(wall_s, cpu_s) of one call of fn."""
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    fn()
    return time.perf_counter() - wall0, time.process_time() - cpu0


class Pass(NamedTuple):
    wall: float
    cpu: float
    passed: bool
    kernel_wall: float  # mean of the kernel runs just before and after
    kernel_cpu: float


def run_passes(workload, seconds, kernel, runner=None):
    """Passes back to back until `seconds` have gone by (at least
    MIN_PASSES), the reference kernel timed before the first pass and
    after each one; returns one Pass per pass."""
    records = []
    before = timed(kernel)
    stop = time.perf_counter() + seconds
    while len(records) < MIN_PASSES or time.perf_counter() < stop:
        workload.clear()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            if runner is None:
                workload.run_pass()
            else:
                runner(workload.run_pass)
            problems = []
        except (Exception, SystemExit):  # argparse exits on bad arguments
            problems = [traceback.format_exc()]
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if not problems:
            try:
                problems = workload.check()
            except Exception:
                problems = [traceback.format_exc()]
        for problem in problems:
            print(f"pass {len(records)} failed: {problem}", file=sys.stderr)
        after = timed(kernel)
        records.append(Pass(wall, cpu, not problems,
                            (before[0] + after[0]) / 2,
                            (before[1] + after[1]) / 2))
        before = after
    return records


def tail_percentile(values):
    """(p, value) of the highest percentile with at least 10 samples
    beyond it, or None when there are too few samples for one above p50."""
    n = len(values)
    p = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs")
                      .glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed, nproc):
    """Machine and software description recorded with every result."""
    import platform
    from importlib import metadata

    import numpy

    info = {"seed": seed, "nproc": nproc, "cpu_model": None, "caches": {},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": metadata.version("scipy"), "blas": None,
            "blas_threads": blas_threads(),
            "thread_caps": {var: os.environ[var] for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "platform": platform.platform()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                            .glob("index*")):
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
            info["caches"][f"L{level} {kind}"] = size
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return info


def declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _passed(records):
    """Records of the passes that passed, or all of them if none did."""
    return [r for r in records if r.passed] or records


def _wall_rel(records):
    return statistics.median(r.wall / r.kernel_wall for r in records)


def measure_end_to_end(workload, args):
    setup = [probe_setup(args.workload, args.seed)
             for _ in range(SETUP_PROBES)]
    records = run_passes(workload, args.seconds, ReferenceKernel())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    good = _passed(records)
    walls = [r.wall for r in good]
    cpus = [r.cpu for r in good]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_rel": _wall_rel(good),
        "cpu_rel": statistics.median(r.cpu / r.kernel_cpu for r in good),
        "peak_rss_mb": peak_rss_mb,
        "pass_frac": sum(r.passed for r in records) / len(records),
    }
    info = {"wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "wall_min_s": (min(walls), "s"),
            "cpu_min_s": (min(cpus), "s"),
            "kernel_wall_s": (statistics.median(
                r.kernel_wall for r in records), "s")}
    tail = tail_percentile(walls)
    if tail is not None:
        info[f"wall_p{tail[0]}_s"] = (tail[1], "s")
    return metrics, records, info, {"setup_samples_s": setup}


def measure_layers(workload, args):
    from spans import Tracer, layer_metrics

    kernel = ReferenceKernel()
    plain = run_passes(workload, args.seconds / 2, kernel)
    tracer = Tracer()
    with tracer:
        traced = run_passes(workload, args.seconds / 2, kernel,
                            tracer.traced_pass)
    per_pass = layer_metrics(tracer)
    metrics = {name: statistics.median_low(p[name] for p in per_pass)
               for name in per_pass[0]}
    metrics["trace.overhead_s"] = (
        (_wall_rel(_passed(traced)) - _wall_rel(_passed(plain)))
        * statistics.median(r.kernel_wall for r in plain + traced))
    notes = {"untraced_passes": len(plain), "traced_passes": len(traced),
             "missing_targets": tracer.missing}
    return metrics, plain + traced, {}, notes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="tables or transition")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded; the workloads have fixed inputs")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = cap_threads()
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](OUT / "work")
    if args.setup_probe:
        print(repr(time.time()))
        return 0

    units = declared_metrics(args.trace)
    if args.trace:
        metrics, records, info, notes, tracer = measure_layers(workload, args)
    else:
        metrics, records, info, notes = measure_end_to_end(workload, args)
    if set(metrics) != set(units):
        raise SystemExit(f"run.py: measured {sorted(metrics)} but "
                         f"BENCHMARK.json declares {sorted(units)}")

    failed = sum(not r.passed for r in records)
    info["failed_frac"] = (failed / len(records), "fraction")
    env = environment(args.seed, nproc)
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "env": env, "info": info,
              "notes": notes,
              "passes": [r._asdict() for r in records],
              "metrics": metrics}
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tracer.save(OUT / f"spans-{args.workload}.npz", record)

    print(f"# workload {args.workload}: {len(records)} passes, "
          f"{failed} failed, closed loop, 1 client")
    for name, value in metrics.items():
        print(f"{name:>28} {value:.6g} {units[name]}")
    for name, (value, unit) in info.items():
        print(f"{name:>28} {value:.6g} {unit} (not gated)")
    for key, value in notes.items():
        print(f"# {key}: {json.dumps(value)}")
    print(f"# env: {json.dumps(env)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
