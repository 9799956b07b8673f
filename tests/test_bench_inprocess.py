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
    minimality = {f"minimality:{variant}" for variant in gausskey.VARIANTS}
    assert differ == minimality | {"critical", "zero_rate", "key_rates"}
