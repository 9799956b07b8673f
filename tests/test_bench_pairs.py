"""The summary of scripts/bench_pairs.py, on made-up benchmark run lines."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]
}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(workload, pair, side, setup_s, points_per_s, failed=0, correct=True):
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    if points_per_s is not None:
        metrics["points_per_s"] = {"value": points_per_s, "unit": "1/s"}
    result = {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}
    return {"workload": workload, "pair": pair, "side": side, "result": result}


def test_wins_ties_and_quartiles(bench_pairs):
    runs = [
        run("cli", 0, "parent", 0.10, 100.0), run("cli", 0, "change", 0.12, 150.0),
        run("cli", 1, "change", 0.10, 110.0), run("cli", 1, "parent", 0.10, 110.0),  # a tie
        run("cli", 2, "parent", 0.11, 120.0), run("cli", 2, "change", 0.09, 90.0),
        run("cli", 3, "parent", 0.10, 130.0),  # no change run: not a pair
        run("certify", 0, "parent", 0.2, 5.0, failed=1), run("certify", 0, "change", 0.2, 6.0),
        run("certify", 1, "change", 0.2, 6.0, failed=3), run("certify", 1, "parent", 0.2, 5.0),
    ]
    summary = bench_pairs.summarize(runs, SPEC)
    points = summary["cli"]["metrics"]["points_per_s"]
    assert points["pairs"] == 3
    assert (points["change_wins"], points["parent_wins"]) == (1, 1)
    assert points["parent"] == {"median": 110.0, "q1": 105.0, "q3": 115.0}
    assert points["change"] == {"median": 110.0, "q1": 100.0, "q3": 130.0}
    setup = summary["cli"]["metrics"]["setup_s"]
    assert (setup["change_wins"], setup["parent_wins"]) == (1, 1)  # lower is better
    assert setup["better"] == "lower" and setup["unit"] == "s"
    assert summary["certify"]["failed_share"] == {"parent": 0.05, "change": 0.15}
    assert summary["certify"]["metrics"]["points_per_s"]["parent"] == {"median": 5.0, "q1": 5.0, "q3": 5.0}
    assert summary["cli"]["correct"] == {"parent": True, "change": True}


def test_a_metric_missing_from_a_run_drops_that_pair(bench_pairs):
    runs = [
        run("pipeline", 0, "parent", 0.1, 10.0), run("pipeline", 0, "change", 0.1, None, correct=False),
        run("pipeline", 1, "parent", 0.1, 10.0), run("pipeline", 1, "change", 0.1, 20.0),
    ]
    summary = bench_pairs.summarize(runs, SPEC)["pipeline"]
    assert summary["metrics"]["points_per_s"]["pairs"] == 1
    assert summary["metrics"]["points_per_s"]["change_wins"] == 1
    assert summary["metrics"]["setup_s"]["pairs"] == 2
    assert summary["correct"] == {"parent": True, "change": False}


def test_last_json_line(bench_pairs):
    assert bench_pairs.last_json_line('noise\n{"correct": true}\n\n') == {"correct": True}


def pairs_of(parent_points, change_points, parent_setup=None, change_setup=None):
    """Pipeline runs from one points_per_s list per side (setup_s 0.1 unless given)."""
    runs = []
    for pair, (parent, change) in enumerate(zip(parent_points, change_points)):
        runs.append(run("pipeline", pair, "parent", (parent_setup or {}).get(pair, 0.1), parent))
        runs.append(run("pipeline", pair, "change", (change_setup or {}).get(pair, 0.1), change))
    return runs


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([100.0, 100.0, 100.0, 100.0], [70.0, 74.0, 72.0, 130.0], "worse"),  # median 73 < 75
        ([100.0, 101.0, 99.0, 100.0], [80.0, 78.0, 140.0, 82.0], "level"),  # median 81 >= 75
        ([40.0, 100.0, 160.0, 100.0], [100.0, 100.0, 100.0, 100.0], "unresolved"),  # spread 30%
        ([40.0, 100.0, 160.0, 100.0], [170.0, 161.0, 165.0, 200.0], "better"),  # beats every run
        ([100.0, 101.0, 99.0, 100.0], [130.0, 131.0, 129.0, 130.0], "better"),
        # won 3 pairs of 4: fewer than nine in ten
        ([100.0, 101.0, 99.0, 100.0], [130.0, 131.0, 98.0, 130.0], "level"),
        # median ahead by less than the parent's spread
        ([90.0, 110.0, 100.0, 100.0], [105.0, 111.0, 103.0, 102.0], "level"),
    ],
)
def test_verdict_of_a_higher_is_better_metric(bench_pairs, parent, change, expected):
    summary = bench_pairs.summarize(pairs_of(parent, change), SPEC)["pipeline"]
    assert summary["metrics"]["points_per_s"]["verdict"] == expected


def test_verdict_of_a_lower_is_better_metric(bench_pairs):
    points = [10.0] * 4
    slower = pairs_of(points, points, change_setup={0: 0.2, 1: 0.2, 2: 0.2})
    assert bench_pairs.summarize(slower, SPEC)["pipeline"]["metrics"]["setup_s"]["verdict"] == "worse"
    faster = pairs_of(points, points, change_setup={k: 0.05 for k in range(4)})
    assert bench_pairs.summarize(faster, SPEC)["pipeline"]["metrics"]["setup_s"]["verdict"] == "better"
    same = pairs_of(points, points)
    assert bench_pairs.summarize(same, SPEC)["pipeline"]["metrics"]["setup_s"]["verdict"] == "level"
    assert bench_pairs.summarize(same, SPEC)["pipeline"]["metrics"]["points_per_s"]["verdict"] == "level"
