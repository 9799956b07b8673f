"""Time a parent revision against the working tree in one interpreter.

    python scripts/bench_inprocess.py --parent HEAD --rounds 40 [--output FILE]

Whole benchmark runs (``scripts/bench_pairs.py``) flip between host speeds
and cannot resolve a change of a few percent.  This script loads gausskey
three times in one process: the parent revision (exported with ``git
archive``) as ``gausskey_parent``, the same tree again as
``gausskey_control``, and this checkout's ``src/gausskey`` as
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
(tau, omega): ``verify_minimality`` at resolution 101 for each variant,
``critical_point_report`` and ``find_zero_rate_transmissivity`` over the
variants, and ``key_rates`` over a 100 x 100 grid of lens points.  Before
timing, each layer's results on the change must equal the parent's bit
for bit.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from bench_pairs import quartiles

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
CRITICAL_CALLS = 40  # per variant
ZERO_RATE_CALLS = 15  # per variant
GRID_CALLS = 5  # per variant, over 10,000 points


def load(name: str, package_dir: Path):
    """Import the package in package_dir under the top-level name given."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


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
    """The bits of a batch's results: floats and arrays, nested in lists and tuples."""
    if isinstance(results, (list, tuple)):
        return b"".join(map(result_bits, results))
    return np.asarray(results, dtype=float).tobytes()


def layers(gausskey) -> dict[str, object]:
    """Each layer's batch on one copy of the package: a function of no arguments.

    A batch returns what result_bits reads: of a report, the arrays and
    floats that it computed.
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

    def minimality(variant):
        def batch():
            reports = [gausskey.verify_minimality(variant, tau, omega, 101) for _ in range(MINIMALITY_CALLS)]
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
    out.update({f"minimality:{variant}": minimality(variant) for variant in gausskey.VARIANTS})
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


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("--rounds", type=int, default=40, help="rounds per layer (default 40)")
    parser.add_argument("--output", help="path of a JSON record to write")
    args = parser.parse_args(argv)

    parent_rev = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(prefix="bench-inprocess-") as tmp:
        archive = subprocess.run(["git", "archive", parent_rev, "src"], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        dirs = {"parent": Path(tmp) / "src" / "gausskey", "control": Path(tmp) / "src" / "gausskey",
                "change": ROOT / "src" / "gausskey"}
        packages = {copy: load(f"gausskey_{copy}", dirs[copy]) for copy in COPIES}
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
            "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
            "rounds": args.rounds,
            "summary": summary,
        }
        Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
