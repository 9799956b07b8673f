"""Benchmark a parent revision against the working tree in alternating pairs.

    python scripts/bench_pairs.py --parent HEAD --output BENCH_<pr>.json --first-seed 1000

Each pair runs the benchmark command of BENCHMARK.json (``bench/run.py``)
once on each side, for each workload, with one fresh seed per pair and
BENCHMARK.json's ``run_seconds``; pairs alternate which side runs first.
The parent is exported with ``git archive REV | tar -x`` into a temporary
directory (``export_revision``, which ``bench_inprocess.py`` shares); the
change is this checkout as it stands.  The output file
keeps the last JSON line of every run, and for each workload and
end-to-end metric each side's median and quartiles, the pairs the
change won (ties count for neither side), "better" as BENCHMARK.json
says, and a verdict, which is also printed:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's ``bound``, a fraction of the parent's median;
* ``unresolved``: the parent's quartile spread is wider than the bound,
  unless every change run beats every parent run;
* ``better``: the change won at least nine pairs in ten, and its median
  beats the parent's by more than the parent's quartile spread;
* ``level`` otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], higher: bool, bound: float, wins: int) -> str:
    """worse, unresolved, better or level, as the module docstring defines them."""
    base, ours = quartiles(parent), quartiles(change)
    gain = ours["median"] - base["median"] if higher else base["median"] - ours["median"]
    spread = base["q3"] - base["q1"]
    if gain < -bound * abs(base["median"]):
        return "worse"
    beats_all = min(change) > max(parent) if higher else max(change) < min(parent)
    if spread > bound * abs(base["median"]) and not beats_all:
        return "unresolved"
    return "better" if wins >= 0.9 * len(parent) and gain > spread else "level"


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per workload and end-to-end metric: each side's quartiles and the change's wins.

    runs holds one record per run: workload, pair, side and result, the
    parsed last line of bench/run.py.  A pair counts for a metric only if
    both of its runs printed that metric.  failed_share is each side's
    failed operations over those attempted, summed over the pairs.
    """
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by_pair: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload:
                by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
        pairs = [sides for _, sides in sorted(by_pair.items()) if set(sides) == set(SIDES)]
        metrics = {}
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            values = [
                (sides["parent"]["metrics"][name]["value"], sides["change"]["metrics"][name]["value"])
                for sides in pairs
                if all(name in sides[side]["metrics"] for side in SIDES)
            ]
            if not values:
                continue
            wins = sum(change > parent if higher else change < parent for parent, change in values)
            losses = sum(change < parent if higher else change > parent for parent, change in values)
            metrics[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": quartiles([parent for parent, _ in values]),
                "change": quartiles([change for _, change in values]),
                "change_wins": wins,
                "parent_wins": losses,
                "pairs": len(values),
                "verdict": verdict(
                    [parent for parent, _ in values], [change for _, change in values],
                    higher, metric["bound"], wins,
                ),
            }
        failed_share = {
            side: sum(sides[side]["failed"] for sides in pairs)
            / max(sum(sides[side]["attempted"] for sides in pairs), 1)
            for side in SIDES
        }
        summary[workload] = {
            "metrics": metrics,
            "failed_share": failed_share,
            "correct": {side: all(sides[side]["correct"] for sides in pairs) for side in SIDES},
        }
    return summary


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_bench(root: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    return last_json_line(done.stdout)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


@contextlib.contextmanager
def export_revision(rev: str, *paths: str):
    """A temporary directory holding rev's committed files (those under paths, if any are given).

    The files come from ``git archive rev [paths] | tar -x``; the directory
    is removed when the context exits.
    """
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = subprocess.run(["git", "archive", rev, *paths], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        yield Path(tmp)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("--output", required=True, help="path of the JSON record to write")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    parser.add_argument("--first-seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parent_rev = git("rev-parse", args.parent)
    runs = []
    with export_revision(parent_rev) as parent_root:
        roots = {"parent": parent_root, "change": ROOT}
        for workload in (w["name"] for w in spec["workloads"]):
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_bench(roots[side], spec["command"], workload, seed, seconds)
                    runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                                 "first": side == order[0], "result": result})
                    value = result["metrics"].get("points_per_s", {}).get("value")
                    print(f"{workload} pair {pair} seed {seed} {side}: points_per_s {value}", file=sys.stderr)
    record = {
        "parent": parent_rev,
        "change": f"working tree on {git('rev-parse', 'HEAD')}",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "run_seconds": seconds,
        "pairs": args.pairs,
        "summary": summarize(runs, spec),
        "runs": runs,
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    for workload, result in record["summary"].items():
        for name, metric in result["metrics"].items():
            print(
                f"{workload} {name}: parent {metric['parent']['median']:.6g}, change "
                f"{metric['change']['median']:.6g}, change won {metric['change_wins']} of "
                f"{metric['pairs']}: {metric['verdict']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
