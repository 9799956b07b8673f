"""gausskey benchmark: certification, the covariance-matrix pipeline and the CLI.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload {certify|pipeline|cli} --seed N --seconds S --trace {0|1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end figures; with ``--trace 1`` half the run is
untraced and half traced, and the metrics are the per-layer figures.  See
bench/README.md for what each workload does and why.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Host settings the benchmark fixes for itself (and its child processes):
# one BLAS thread, because two OpenBLAS threads burn about 25% more CPU
# than wall time on 8x8 matrices, and a fixed hash seed.
FIXED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 3
CALIBRATION_LOOPS = 200_000
# op_s.p90 needs ten samples beyond it.
MIN_OPS = 100


def _fix_environment(argv: list[str]) -> None:
    """Re-execute this interpreter once with FIXED_ENV (hash seed is read at start-up)."""
    if all(os.environ.get(k) == v for k, v in FIXED_ENV.items()):
        return
    env = {**os.environ, **FIXED_ENV}
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def _child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        **FIXED_ENV,
        "GAUSSKEY_THREADS": "1",
        "PYTHONPATH": str(SRC) + (os.pathsep + path if path else ""),
    }


def _import_program() -> None:
    """Import gausskey from this checkout's src/ and nowhere else."""
    if not (SRC / "gausskey" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no gausskey sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import gausskey

    if Path(gausskey.__file__).resolve().parent != SRC / "gausskey":
        raise SystemExit(f"benchmark: imported gausskey from {gausskey.__file__}, not {SRC}")


def measure_setup(workload) -> float:
    """Median set-up time over fresh interpreters (see the workload's setup_argv)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *workload.setup_argv],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise SystemExit(f"benchmark: set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]) if workload.setup_reports_time else wall)
    return statistics.median(samples)


def measure_imports() -> dict[str, float]:
    """Cumulative import time of gausskey.cli, split into numpy and gausskey's own modules."""
    totals, numpy_ms = [], []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gausskey.cli"],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) / 1e3
        totals.append(cumulative["gausskey"])
        numpy_ms.append(cumulative["numpy"])
    total, numpy = statistics.median(totals), statistics.median(numpy_ms)
    return {"cli.import_ms": total, "cli.import_ms.numpy": numpy, "cli.import_ms.gausskey": total - numpy}


def calibrate() -> float:
    """Loop iterations per second of a fixed pure-Python loop (no program code)."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return CALIBRATION_LOOPS / (time.perf_counter() - start)


class Tally:
    """Outcome of the timed passes of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.durations: list[float] = []
        self.pass_seconds: list[float] = []
        self.pass_rates: list[float] = []
        self.pass_points: list[int] = []


def run_pass(ops, tally: Tally | None) -> None:
    """Run every operation once; time each alone, then check it."""
    gc.collect()
    busy = 0.0
    points = 0
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # the program's failure is the operation's outcome
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        busy += elapsed
        if error is None:
            try:
                problems, op_points = op.check(result)
            except Exception as exc:  # malformed output
                problems, op_points = [f"check raised {type(exc).__name__}: {exc}"], 0
        else:
            problems, op_points = [error], 0
        if tally is None:
            continue
        tally.attempted += 1
        tally.durations.append(elapsed)
        if problems:
            tally.failed += 1
            text = "; ".join(problems)
            if op.fault is None or op.fault not in text:
                tally.unexpected.append(f"{op.kind}: {text}")
        else:
            points += op_points
    if tally is not None:
        tally.pass_seconds.append(busy)
        tally.pass_points.append(points)
        tally.pass_rates.append(points / busy)


def run_for(ops, seconds: float, tally: Tally, min_ops: int = 0) -> None:
    """Whole passes until `seconds` have gone and `min_ops` operations were timed."""
    deadline = time.perf_counter() + seconds
    while True:
        run_pass(ops, tally)
        if time.perf_counter() >= deadline and len(tally.durations) >= min_ops:
            return


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_s: float, tally: Tally) -> dict[str, float]:
    metrics = {
        "setup_s": setup_s,
        "points_per_s": statistics.median(tally.pass_rates),
        "op_s.p50": statistics.median(tally.durations),
        "op_s.p90": percentile(tally.durations, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units this run must print, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def traced(workload, seconds: float, tally: Tally) -> dict[str, float]:
    """Half the run untraced, half traced; per-layer figures of the traced half."""
    from spans import Tracer, layer_metrics

    calib = [calibrate() for _ in range(3)]
    run_for(workload.ops, seconds / 2, tally)
    plain = list(tally.pass_seconds)
    bytes_before = workload.output_bytes()
    tracer = Tracer()
    traced_tally = Tally()
    tracer.install()
    try:
        run_for(workload.ops, seconds / 2, traced_tally)
    finally:
        tracer.uninstall()
    calib += [calibrate() for _ in range(3)]
    passes = len(traced_tally.pass_seconds)
    tally.attempted += traced_tally.attempted
    tally.failed += traced_tally.failed
    tally.unexpected += traced_tally.unexpected
    metrics = layer_metrics(tracer, passes, traced_tally.pass_points[0])
    metrics["cli.output_bytes"] = (workload.output_bytes() - bytes_before) // passes
    metrics.update(measure_imports())
    metrics["host.calib_per_s"] = statistics.median(calib)
    metrics["trace.overhead_ratio"] = statistics.median(traced_tally.pass_seconds) / statistics.median(plain)
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "pipeline", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _fix_environment(argv)
    _import_program()
    os.environ["GAUSSKEY_THREADS"] = "1"

    import workloads

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        if args.workload == "cli":
            out_dir.mkdir(parents=True, exist_ok=True)
            workload = workloads.cli(args.seed, out_dir)
        else:
            workload = getattr(workloads, args.workload)(args.seed)
        setup_s = None if args.trace else measure_setup(workload)
        run_pass(workload.ops, None)  # warm-up; also fills the reference caches
        tally = Tally()
        if args.trace:
            metrics = traced(workload, args.seconds, tally)
        else:
            run_for(workload.ops, args.seconds, tally, MIN_OPS)
            metrics = end_to_end(setup_s, tally)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass
    for line in tally.unexpected[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    units = declared_metrics(bool(args.trace))
    if set(units) != set(metrics):
        raise SystemExit(f"benchmark: measured {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}")
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
