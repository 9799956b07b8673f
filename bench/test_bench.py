"""The benchmark's own checks must be able to fail.

Run with ``python -m pytest bench`` from the root of a checkout.  Each test
breaks the program in one way (a rate off by 1e-7, a dropped row, a
flipped verdict, ...) and asserts that the operation it touches is
counted as failed, while a clean pass fails only the known-fault ops.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gausskey.cli
import gausskey.landscape
import gausskey.rates

import run
import workloads


def outcome(ops) -> run.Tally:
    tally = run.Tally()
    run.run_pass(ops, tally)
    return tally


def first(ops, kind: str):
    return [next(op for op in ops if op.kind.startswith(kind))]


@pytest.fixture(scope="module")
def certify_ops():
    return workloads.certify(seed=5, per_protocol=1).ops


@pytest.fixture(scope="module")
def pipeline_ops():
    return workloads.pipeline(seed=5, points=1, reference_ops=3).ops


@pytest.fixture
def cli_ops(tmp_path):
    return workloads.cli(seed=5, out_dir=tmp_path, per_protocol=1).ops


def test_clean_passes_fail_only_known_faults(certify_ops, pipeline_ops, cli_ops):
    for ops, faults in ((certify_ops, 3), (pipeline_ops, 0), (cli_ops, 1)):
        tally = outcome(ops)
        assert tally.unexpected == []
        assert (tally.attempted, tally.failed) == (len(ops), faults)


def test_certify_rate_off_by_1e7_fails(certify_ops, monkeypatch):
    exact = gausskey.landscape.key_rate_asymptotic
    monkeypatch.setattr(gausskey.landscape, "key_rate_asymptotic", lambda p, v: exact(p, v) + 1e-7)
    tally = outcome(first(certify_ops, "certify"))
    assert tally.failed == 1 and "reference" in tally.unexpected[0]


def test_certify_single_rate_off_by_1e7_fails(certify_ops, monkeypatch):
    exact = gausskey.landscape.key_rate_asymptotic

    def skewed(p, v):
        return exact(p, v) + (1e-7 if p.g > 0 and p.g_prime > 0 else 0.0)

    monkeypatch.setattr(gausskey.landscape, "key_rate_asymptotic", skewed)
    tally = outcome(first(certify_ops, "certify"))
    assert tally.failed == 1 and "mirror" in tally.unexpected[0]


def test_certify_dropped_row_fails(certify_ops, monkeypatch):
    full = gausskey.landscape.physical_grid
    monkeypatch.setattr(gausskey.landscape, "physical_grid", lambda o, r: full(o, r)[:-1])
    tally = outcome(first(certify_ops, "certify"))
    assert tally.failed == 1 and "not emitted" in tally.unexpected[0]


def test_certify_flipped_verdict_fails(certify_ops, monkeypatch):
    honest = gausskey.landscape.verify_minimality

    def flipped(*args):
        return dataclasses.replace(honest(*args), verdict=False)

    monkeypatch.setattr(gausskey.landscape, "verify_minimality", flipped)
    tally = outcome(first(certify_ops, "certify"))
    assert tally.failed == 1 and "verdict" in tally.unexpected[0]


def test_certify_wrong_zero_fails(certify_ops, monkeypatch):
    exact = gausskey.landscape.find_zero_rate_transmissivity
    monkeypatch.setattr(
        gausskey.landscape, "find_zero_rate_transmissivity", lambda p, o: exact(p, o) + 1e-6
    )
    tally = outcome(first(certify_ops, "zero"))
    assert tally.failed == 1


def test_pipeline_rate_off_by_1e7_fails(pipeline_ops, monkeypatch):
    exact = gausskey.rates.key_rate_numeric

    def off(params, spec):
        report = exact(params, spec)
        return dataclasses.replace(report, rate=report.rate + 1e-7)

    monkeypatch.setattr(gausskey.rates, "key_rate_numeric", off)
    tally = outcome(pipeline_ops[:1])
    assert tally.failed == 1 and "2 rate" in tally.unexpected[0]


def test_pipeline_entropy_off_by_1e7_fails(pipeline_ops, monkeypatch):
    """A consistent error (i_ab - holevo = 2 rate still holds) needs the reference."""
    exact = gausskey.rates.entropy_h
    monkeypatch.setattr(gausskey.rates, "entropy_h", lambda x: exact(x) + 1e-7)
    tally = outcome(pipeline_ops[:1])
    assert tally.failed == 1 and "reference" in tally.unexpected[0]


def _tampered(op, name: str, edit):
    """The same CLI operation, with one command's output edited before the check."""

    def run_then_edit():
        result = op.run()
        path = op.outputs[name]
        path.write_text(edit(path.read_text()))
        return result

    return dataclasses.replace(op, run=run_then_edit)


def test_cli_rate_off_by_1e7_fails(cli_ops, monkeypatch):
    exact = gausskey.rates.key_rate_asymptotic
    monkeypatch.setattr(gausskey.rates, "key_rate_asymptotic", lambda p, v: exact(p, v) + 1e-7)
    tally = outcome(first(cli_ops, "report"))
    assert tally.failed == 1 and "reference" in tally.unexpected[0]


def test_cli_dropped_row_fails(cli_ops, monkeypatch):
    full = gausskey.cli.physical_grid
    monkeypatch.setattr(gausskey.cli, "physical_grid", lambda o, r: full(o, r)[:-1])
    tally = outcome(first(cli_ops, "report"))
    assert tally.failed == 1 and "not emitted" in tally.unexpected[0]


def test_cli_flipped_verdict_fails(cli_ops):
    def flip(text):
        payload = json.loads(text)
        payload["verdict"] = False
        return json.dumps(payload)

    tally = outcome([_tampered(first(cli_ops, "report")[0], "c0-scan-json", flip)])
    assert tally.failed == 1 and "verdict" in tally.unexpected[0]


@pytest.mark.parametrize("digits, reason", [(6, "differ"), (20, "round-trip")])
def test_cli_reformatted_float_fails(cli_ops, digits, reason):
    def reformat(text):
        lines = text.splitlines()
        g, gp, rate, *flags = lines[1].split(",")
        lines[1] = ",".join([g, gp, format(float(rate), f".{digits}g"), *flags])
        return "\n".join(lines) + "\n"

    tally = outcome([_tampered(first(cli_ops, "report")[0], "c0-scan-csv", reformat)])
    assert tally.failed == 1 and reason in tally.unexpected[0]


def test_cli_thread_dependent_bytes_fail(cli_ops):
    report, threaded = first(cli_ops, "report")[0], first(cli_ops, "scan-threads")[0]
    tally = outcome([report, _tampered(threaded, "threads-scan-csv", lambda text: text + "\n")])
    assert tally.failed == 1 and "GAUSSKEY_THREADS" in tally.unexpected[0]


def test_cli_clamp_fault_is_expected(cli_ops):
    tally = outcome(cli_ops[-2:])
    assert (tally.failed, tally.unexpected) == (1, [])
