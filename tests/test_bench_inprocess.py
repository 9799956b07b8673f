"""The ratios, verdicts and round order of scripts/bench_inprocess.py, on made-up series."""

import importlib.util
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

import gausskey

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def bench_inprocess():
    spec = importlib.util.spec_from_file_location("bench_inprocess", SCRIPTS / "bench_inprocess.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(SCRIPTS))  # it imports bench_pairs from its own directory
        spec.loader.exec_module(module)
    return module


def test_ratios_are_taken_round_by_round(bench_inprocess):
    # per round 2, 1, 0.5, 0.25; the ratio of the medians would be 2/3
    summary = bench_inprocess.ratio_summary([1.0, 2.0, 4.0, 8.0], [2.0, 2.0, 2.0, 2.0])
    assert summary == {"median": 0.75, "q1": 0.4375, "q3": 1.25}
    assert bench_inprocess.ratio_summary([2.0], [1.0]) == {"median": 0.5, "q1": 0.5, "q3": 0.5}


def quartiles(q1, median, q3):
    return {"median": median, "q1": q1, "q3": q3}


@pytest.mark.parametrize(
    "change, control, expected",
    [
        (quartiles(0.45, 0.5, 0.55), quartiles(0.97, 1.0, 1.02), "faster"),
        (quartiles(1.10, 1.2, 1.30), quartiles(0.97, 1.0, 1.02), "slower"),
        # quartile ranges overlap
        (quartiles(0.96, 0.98, 1.00), quartiles(0.97, 1.0, 1.02), "level"),
        (quartiles(1.01, 1.03, 1.05), quartiles(0.97, 1.0, 1.02), "level"),
        # the control drifted past 1 +- 0.03: no verdict, however far apart
        (quartiles(0.45, 0.5, 0.55), quartiles(1.02, 1.05, 1.08), "unresolved"),
        (quartiles(1.10, 1.2, 1.30), quartiles(0.93, 0.96, 0.98), "unresolved"),
        # inside the band, but wide: the change must clear its quartiles
        (quartiles(0.85, 0.9, 0.95), quartiles(0.90, 1.02, 1.10), "level"),
    ],
)
def test_verdict(bench_inprocess, change, control, expected):
    assert bench_inprocess.verdict(change, control) == expected


def test_rounds_rotate_the_order_of_the_copies(bench_inprocess):
    calls = []
    batches = {copy: (lambda copy=copy: calls.append(copy)) for copy in bench_inprocess.COPIES}
    times = bench_inprocess.time_rounds(batches, 4)
    assert calls == [
        "parent", "change", "control",
        "change", "control", "parent",
        "control", "parent", "change",
        "parent", "change", "control",
    ]
    assert {copy: len(series) for copy, series in times.items()} == dict.fromkeys(batches, 4)
    assert all(t >= 0.0 for series in times.values() for t in series)


def test_load_gives_an_independent_copy(bench_inprocess):
    package_dir = Path(gausskey.__file__).parent
    copy = bench_inprocess.load("gausskey_copy_under_test", package_dir)
    try:
        assert copy.rates.__name__ == "gausskey_copy_under_test.rates"
        assert copy.key_rate_numeric is not gausskey.key_rate_numeric
        assert copy.DomainError is not gausskey.DomainError
    finally:
        for name in [n for n in sys.modules if n.startswith("gausskey_copy_under_test")]:
            del sys.modules[name]


def test_result_bits_reads_nested_floats_and_arrays(bench_inprocess):
    nested = [1.0, (np.array([[2.0, 3.0]]), (4.0, 5.0))]
    assert bench_inprocess.result_bits(nested) == array("d", [1.0, 2.0, 3.0, 4.0, 5.0]).tobytes()
    assert bench_inprocess.result_bits([0.0]) != bench_inprocess.result_bits([-0.0])
    assert bench_inprocess.result_bits(["key,value\n", 1.0]) == b"key,value\n" + array("d", [1.0]).tobytes()


def test_every_layer_compares_its_results(bench_inprocess, monkeypatch):
    # a copy whose closed form is off: every closed-form layer's bits differ,
    # and the numeric layers', which never call it, stay equal
    copy = bench_inprocess.load("gausskey_layers_under_test", Path(gausskey.__file__).parent)
    try:
        closed_form = copy.rates._closed_form
        monkeypatch.setattr(copy.rates, "_closed_form", lambda *a: closed_form(*a) * 1.001 + 1e-3)
        ours, theirs = bench_inprocess.layers(gausskey), bench_inprocess.layers(copy)
        assert list(ours) == list(theirs)
        differ = {
            layer
            for layer in ours
            if bench_inprocess.result_bits(ours[layer]()) != bench_inprocess.result_bits(theirs[layer]())
        }
    finally:
        for name in [n for n in sys.modules if n.startswith("gausskey_layers_under_test")]:
            del sys.modules[name]
    minimality = {
        f"{layer}:{variant}" for layer in ("minimality", "minimality401") for variant in gausskey.VARIANTS
    }
    assert differ == minimality | {"critical", "zero_rate", "key_rates", "cli:tables", "cli:records"}


def test_the_cli_layers_run_every_command_in_both_formats(bench_inprocess):
    runs = bench_inprocess.CLI_RUNS
    commands = {"cli:tables": ("boundary", "converge", "scan"), "cli:records": ("critical", "rate")}
    for layer, names in commands.items():
        expected = [(name, fmt) for name in names for fmt in ("csv", "json")]
        assert sorted((argv[0], argv[-1]) for argv in runs[layer]) == expected


@pytest.mark.parametrize(
    "layer, name, shortened, marks",
    [
        # rate and critical as CSV and as JSON
        ("cli:records", "fmt", lambda x: format(float(x), ".16g"), {"key,value\n": 2, '"is_minimum"': 1}),
        # scan, boundary and converge: CSV headers, and scan's JSON verdict
        (
            "cli:tables",
            "_csv_texts",
            lambda column: [format(x, ".16g") for x in column.tolist()],
            {"g,g_prime,rate,physical,on_boundary\n": 2, '"verdict": true': 1, "mu,rate_numeric": 1},
        ),
    ],
    ids=["cli:records", "cli:tables"],
)
def test_each_cli_layer_compares_stdout_bytes(bench_inprocess, monkeypatch, layer, name, shortened, marks):
    # a copy that renders one digit fewer: the layer's stdout bytes differ
    copy = bench_inprocess.load("gausskey_cli_under_test", Path(gausskey.__file__).parent)
    try:
        cli = importlib.import_module("gausskey_cli_under_test.cli")
        monkeypatch.setattr(cli, name, shortened)
        ours, theirs = bench_inprocess.layers(gausskey)[layer], bench_inprocess.layers(copy)[layer]
        text = ours()
        assert text == ours()  # the batch is deterministic
        for mark, per_pass in marks.items():
            assert text.count(mark) == per_pass * bench_inprocess.CLI_PASSES, mark
        assert bench_inprocess.result_bits(text) != bench_inprocess.result_bits(theirs())
    finally:
        for name in [n for n in sys.modules if n.startswith("gausskey_cli_under_test")]:
            del sys.modules[name]


def test_pins_its_own_process_to_its_lowest_cpu(bench_inprocess, monkeypatch):
    calls = []
    monkeypatch.setattr(bench_inprocess.os, "sched_getaffinity", lambda pid: {3, 1, 2}, raising=False)
    monkeypatch.setattr(
        bench_inprocess.os, "sched_setaffinity", lambda pid, cpus: calls.append((pid, cpus)), raising=False
    )
    assert bench_inprocess.pin_to_one_cpu() == 1
    assert calls == [(0, {1})]


def test_pins_nothing_where_os_cannot(bench_inprocess, monkeypatch):
    monkeypatch.delattr(bench_inprocess.os, "sched_setaffinity", raising=False)
    assert bench_inprocess.pin_to_one_cpu() is None
