"""Time a parent revision against the working tree in one interpreter.

    python scripts/bench_inprocess.py --parent HEAD --rounds 40 [--output FILE]

Whole benchmark runs (``scripts/bench_pairs.py``) flip between host speeds
and cannot resolve a change of a few percent.  This script loads gausskey
three times in one process: the parent revision (exported by
``bench_pairs.export_revision``) as ``gausskey_parent``, the same tree
again as ``gausskey_control``, and this checkout's ``src/gausskey`` as
``gausskey_change``.  For each layer it runs ``--rounds`` rounds; a round
times one batch of calls on each of the three copies, in an order that
rotates from round to round.  Per round it forms change/parent and
control/parent, and it prints the median and quartiles of each ratio over
the rounds, with a verdict:

* ``unresolved``: the control's median lies outside 1 +- ``CONTROL_BAND``,
  so the host drifted more than the script can correct;
* ``faster``: the change's upper quartile lies below the control's lower
  one;
* ``slower``: the change's lower quartile lies above the control's upper
  one;
* ``level`` otherwise.

The layers are ``key_rate_numeric`` for each variant at one point (tau
0.44, omega 7.3, (g, g') = (0.3, -0.1), mu 1e4); a pipeline pass: every
variant at five mu values over 16 fixed lens points, as the benchmark's
``pipeline`` workload runs them; and the certification side at the same
(tau, omega): ``verify_minimality`` at resolutions 101 (``minimality``)
and 401 (``minimality401``) for each variant, ``critical_point_report``
and ``find_zero_rate_transmissivity`` over the variants, and
``key_rates`` over a 100 x 100 grid of lens points; and
the command line as two layers of ``cli.main`` calls at the same point,
each command in CSV and in JSON, stdout captured: ``cli:tables`` runs the
table commands (``scan`` and ``boundary`` at resolution 31, and
``converge``) and ``cli:records`` the record commands (``rate`` and
``critical``).  Before timing, each layer's results on the change must
equal the parent's bit for bit; a command-line layer's, its stdout
bytes.

The script pins its own process to one CPU, the lowest it may run on,
so that the three copies share one core's caches and clock; it changes
no setting of the machine.  The ``--output`` record names that CPU.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
from bench_pairs import export_revision, git, quartiles

ROOT = Path(__file__).resolve().parents[1]
COPIES = ("parent", "change", "control")
# The control's median must lie within this fraction of 1 for a verdict.
CONTROL_BAND = 0.03
POINT = (0.44, 7.3, 0.3, -0.1)
POINT_MU = 1e4
PIPELINE_MUS = (1e2, 1e3, 1e4, 1e5, 1e6)
# Calls per round and layer, about 10 ms a batch on a 2-vCPU x86 host.
NUMERIC_CALLS = 400
MINIMALITY_CALLS = 8  # per variant, at resolution 101
MINIMALITY401_CALLS = 1  # per variant, at resolution 401
CRITICAL_CALLS = 40  # per variant
ZERO_RATE_CALLS = 15  # per variant
GRID_CALLS = 5  # per variant, over 10,000 points
CLI_PASSES = 3  # over each command-line layer's runs
_BASE = ["--tau", str(POINT[0]), "--omega", str(POINT[1])]
_POINT = ["--g", str(POINT[2]), "--gprime", str(POINT[3])]
_FORMATS = (["--format", "csv"], ["--format", "json"])
# Each command-line layer's argv lists: every command in both formats.
CLI_RUNS = {
    "cli:tables": [
        [*command, *fmt]
        for command in (
            ["scan", *_BASE, "--grid-resolution", "31"],
            ["boundary", *_BASE, "--grid-resolution", "31"],
            ["converge", *_BASE, *_POINT],
        )
        for fmt in _FORMATS
    ],
    "cli:records": [
        [*command, *fmt]
        for command in (["rate", *_BASE, *_POINT], ["critical", *_BASE])
        for fmt in _FORMATS
    ],
}


def load(name: str, package_dir: Path):
    """Import the package in package_dir under the top-level name given."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def pin_to_one_cpu() -> int | None:
    """Pin this process to the lowest CPU it may run on and return it; None where os cannot."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def ratio_summary(base: list[float], other: list[float]) -> dict[str, float]:
    """Quartiles of the per-round ratios other/base."""
    return quartiles([b / a for a, b in zip(base, other)])


def verdict(change: dict[str, float], control: dict[str, float]) -> str:
    """unresolved, faster, slower or level, as the module docstring defines them."""
    if abs(control["median"] - 1.0) > CONTROL_BAND:
        return "unresolved"
    if change["q3"] < control["q1"]:
        return "faster"
    if change["q1"] > control["q3"]:
        return "slower"
    return "level"


def lens_points(gausskey, n: int) -> list[tuple[float, float, float, float]]:
    """n fixed (tau, omega, g, g') points inside the lens, away from its rim."""
    points = []
    for k in range(n):
        tau = 0.05 + 0.9 * (k + 0.5) / n
        omega = math.exp(math.log(100.0) * ((7 * k + 3) % n + 0.5) / n)
        reach = math.sqrt(omega * omega - 1.0)
        g = 0.6 * reach * math.sin(1.7 * k)
        lo, hi = -omega + 1.0 / (omega + g), omega - 1.0 / (omega - g)
        gp = lo + (hi - lo) * (0.2 + 0.6 * ((3 * k + 1) % n) / n)
        if gausskey.violated_constraint(gausskey.AttackParams(tau, omega, g, gp)) is not None:
            raise SystemExit(f"point {k} lies outside the lens")
        points.append((tau, omega, g, gp))
    return points


def result_bits(results) -> bytes:
    """The bits of a batch's results: floats, arrays and texts, nested in lists and tuples."""
    if isinstance(results, str):
        return results.encode()
    if isinstance(results, (list, tuple)):
        return b"".join(map(result_bits, results))
    return np.asarray(results, dtype=float).tobytes()


def layers(gausskey) -> dict[str, object]:
    """Each layer's batch on one copy of the package: a function of no arguments.

    A batch returns what result_bits reads: of a report, the arrays and
    floats that it computed; of the command line, its stdout.
    """
    params, spec = gausskey.AttackParams, gausskey.ProtocolSpec
    numeric = gausskey.key_rate_numeric
    tau, omega = POINT[:2]

    def point(variant):
        p, s = params(*POINT), spec(variant, mu=POINT_MU, asymptotic=False)
        return lambda: [numeric(p, s).rate for _ in range(NUMERIC_CALLS)]

    inputs = [
        (params(*x), spec(variant, mu=mu, asymptotic=False))
        for x in lens_points(gausskey, 16)
        for variant in gausskey.VARIANTS
        for mu in PIPELINE_MUS
    ]
    out = {f"numeric:{variant}": point(variant) for variant in gausskey.VARIANTS}
    out["pipeline"] = lambda: [numeric(p, s).rate for p, s in inputs]

    def minimality(variant, resolution, calls):
        def batch():
            reports = [gausskey.verify_minimality(variant, tau, omega, resolution) for _ in range(calls)]
            return [(r.g, r.g_prime, r.rate) for r in reports]
        return batch

    def critical():
        reports = [
            gausskey.critical_point_report(variant, tau, omega)
            for variant in gausskey.VARIANTS
            for _ in range(CRITICAL_CALLS)
        ]
        return [(r.gradient_at_origin, r.hessian_at_origin, r.analytic_det_h) for r in reports]

    # |g|, |g'| < omega - 1 keeps both attack products above 1: inside the lens
    axis = np.linspace(-0.99, 0.99, 100) * (omega - 1.0)
    grid_g, grid_gp = np.meshgrid(axis, axis, indexing="ij")
    for variant in gausskey.VARIANTS:
        out[f"minimality:{variant}"] = minimality(variant, 101, MINIMALITY_CALLS)
    for variant in gausskey.VARIANTS:
        out[f"minimality401:{variant}"] = minimality(variant, 401, MINIMALITY401_CALLS)
    out["critical"] = critical
    out["zero_rate"] = lambda: [
        gausskey.find_zero_rate_transmissivity(variant, omega)
        for variant in gausskey.VARIANTS
        for _ in range(ZERO_RATE_CALLS)
    ]
    out["key_rates"] = lambda: [
        gausskey.key_rates(variant, tau, omega, grid_g, grid_gp)
        for variant in gausskey.VARIANTS
        for _ in range(GRID_CALLS)
    ]
    main = importlib.import_module(f"{gausskey.__name__}.cli").main

    def cli(runs):
        def batch():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                for _ in range(CLI_PASSES):
                    for argv in runs:
                        main(argv)
            return stdout.getvalue()
        return batch

    for layer, runs in CLI_RUNS.items():
        out[layer] = cli(runs)
    return out


def time_rounds(batches: dict[str, object], rounds: int) -> dict[str, list[float]]:
    """Seconds per round for each copy's batch; the order rotates each round."""
    times = {copy: [] for copy in batches}
    for r in range(rounds):
        order = COPIES[r % 3:] + COPIES[: r % 3]
        gc.collect()
        for copy in order:
            start = time.perf_counter()
            batches[copy]()
            times[copy].append(time.perf_counter() - start)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("--rounds", type=int, default=40, help="rounds per layer (default 40)")
    parser.add_argument("--output", help="path of a JSON record to write")
    args = parser.parse_args(argv)
    cpu = pin_to_one_cpu()

    parent_rev = git("rev-parse", args.parent)
    with export_revision(parent_rev, "src") as parent_root:
        dirs = {"parent": parent_root / "src" / "gausskey", "control": parent_root / "src" / "gausskey",
                "change": ROOT / "src" / "gausskey"}
        packages = {copy: load(f"gausskey_{copy}", dirs[copy]) for copy in COPIES}
        # while the parent's files exist: layers imports each copy's cli
        batches = {copy: layers(package) for copy, package in packages.items()}
    summary = {}
    gc.disable()
    try:
        for layer in batches["parent"]:
            per_copy = {copy: batches[copy][layer] for copy in COPIES}
            if result_bits(per_copy["change"]()) != result_bits(per_copy["parent"]()):
                raise SystemExit(f"{layer}: the change's results differ from the parent's")
            times = time_rounds(per_copy, args.rounds)
            change = ratio_summary(times["parent"], times["change"])
            control = ratio_summary(times["parent"], times["control"])
            summary[layer] = {
                "parent_round_s": quartiles(times["parent"]),
                "change_over_parent": change,
                "control_over_parent": control,
                "verdict": verdict(change, control),
            }
            print(
                f"{layer}: change/parent {change['median']:.3f} [{change['q1']:.3f}, {change['q3']:.3f}], "
                f"control {control['median']:.3f} [{control['q1']:.3f}, {control['q3']:.3f}]: "
                f"{summary[layer]['verdict']}"
            )
    finally:
        gc.enable()
    if args.output:
        record = {
            "parent": parent_rev,
            "change": f"working tree on {git('rev-parse', 'HEAD')}",
            "host": {
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
                "cpu": cpu,
                "python": platform.python_version(),
            },
            "rounds": args.rounds,
            "summary": summary,
        }
        Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
