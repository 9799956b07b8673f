"""gausskey scan renders verify_minimality's report: one point assembly, one verdict."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausskey import (
    EPS_PHYS,
    AttackParams,
    DomainError,
    ProtocolSpec,
    constraint_slack,
    key_rate_numeric,
    key_rates,
    verify_minimality,
)
from gausskey import landscape
from gausskey.cli import main
from gausskey.rates import VARIANTS


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv, stderr=err)
    return code, out.getvalue(), err.getvalue()


def scan_argv(variant, tau, omega, resolution, mu=None, fmt="json"):
    argv = ["scan", "--protocol", variant, "--tau", repr(tau), "--omega", repr(omega),
            "--grid-resolution", str(resolution), "--format", fmt]
    return argv if mu is None else [*argv, "--mu", repr(mu)]


def merged_rows(report):
    """The report's points sorted by (g, g'), a grid point equal to a boundary sample folded in."""
    merged = {}  # insertion order is report order: grid points before boundary samples
    columns = (report.g, report.g_prime, report.rate, report.on_boundary)
    for g, gp, rate, edge in zip(*(column.tolist() for column in columns)):
        if (g, gp) in merged:
            merged[g, gp]["on_boundary"] |= edge
        else:
            row = {"g": g, "g_prime": gp, "rate": rate, "physical": True, "on_boundary": edge}
            merged[g, gp] = row
    return [merged[key] for key in sorted(merged)]


def bits(value):
    """A form of value that is equal exactly when every bit is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [bits(v) for v in value]
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    return (type(value).__name__, value)


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    tau=st.floats(min_value=0.01, max_value=0.99),
    omega=st.floats(min_value=1.0, max_value=20.0),
    resolution=st.integers(min_value=2, max_value=7),
    mu=st.none() | st.sampled_from([1e2, 1e3, 1e4]),
)
def test_scan_json_is_the_merged_report(variant, tau, omega, resolution, mu):
    argv = scan_argv(variant, tau, omega, resolution, mu)
    try:
        report = verify_minimality(variant, tau, omega, resolution, mu=mu)
    except DomainError as exc:
        assert run_main(argv) == (2, "", f"domain error: {exc}\n")
        return
    code, out, err = run_main(argv)
    assert code == 0, err
    payload = json.loads(out)
    assert bits(payload["rows"]) == bits(merged_rows(report))
    assert bits(payload["origin_rate"]) == bits(report.origin_rate)
    assert payload["verdict"] is report.verdict


@pytest.mark.parametrize("omega", [1.0, 2.0])
@pytest.mark.parametrize("mu", [None, 1e4])
def test_resolution_is_validated_once(omega, mu):
    with pytest.raises(DomainError, match=r"^grid resolution must be >= 2, got -3$"):
        verify_minimality("noswitching", 0.5, omega, -3, mu=mu)
    argv = ["scan", "--tau", "0.5", "--omega", repr(omega), "--grid-resolution", "-3"]
    if mu is not None:
        argv += ["--mu", repr(mu)]
    assert run_main(argv) == (2, "", "domain error: grid resolution must be >= 2, got -3\n")


NON_FINITE_SCANS = [
    *((variant, 0.5, omega) for variant in VARIANTS for omega in (1.3e154, 1e200, 1e300)),
    ("noswitching", 5e-324, 2.0),  # the lead's log argument underflows to 0
]


@pytest.mark.parametrize("variant, tau, omega", NON_FINITE_SCANS)
def test_non_finite_scan_names_the_reports_failing_point(variant, tau, omega):
    """The scan raises what verify_minimality raises, whichever point fails first there."""
    with pytest.raises(DomainError, match="is not finite") as error:
        verify_minimality(variant, tau, omega, 3)
    for fmt in ("csv", "json"):
        argv = scan_argv(variant, tau, omega, 3, fmt=fmt)
        assert run_main(argv) == (2, "", f"domain error: {error.value}\n")


@pytest.mark.parametrize("omega", [1.0, 1.2, 7.0])
def test_on_boundary_column(omega):
    report = verify_minimality("switching", 0.44, omega, 21)
    grid = slice(None, report.n_grid)
    slack = constraint_slack(omega, report.g[grid], report.g_prime[grid])
    assert report.on_boundary.dtype == bool and report.on_boundary.shape == report.g.shape
    assert np.array_equal(report.on_boundary[grid], slack <= EPS_PHYS)
    assert report.on_boundary[report.n_grid:].all()


@pytest.mark.parametrize("variant", VARIANTS)
def test_finite_mu_report_evaluates_every_point_in_sorted_order(variant, monkeypatch):
    """The pipeline is not bit-symmetric under g <-> g', so no rate is copied to a mirror."""
    calls = []
    honest = landscape.key_rates

    def recording(variant, tau, omega, g, g_prime, mu=None):
        calls.append((np.array(g), np.array(g_prime), mu))
        return honest(variant, tau, omega, g, g_prime, mu=mu)

    monkeypatch.setattr(landscape, "key_rates", recording)
    report = verify_minimality(variant, 0.44, 2.0, 5, mu=1e4)
    ((g, gp, mu),) = calls
    assert mu == 1e4 and g.size == report.g.size
    assert np.array_equal(np.lexsort((gp, g)), np.arange(g.size))
    spec = ProtocolSpec(variant, mu=1e4, asymptotic=False)
    for a, b, rate in zip(report.g.tolist(), report.g_prime.tolist(), report.rate.tolist()):
        assert rate == key_rate_numeric(AttackParams(0.44, 2.0, a, b), spec).rate
    at_origin = (report.g == 0.0) & (report.g_prime == 0.0)
    assert report.rate[at_origin].tolist() == [report.origin_rate]


def test_finite_mu_key_rates_raise_for_the_first_failing_point():
    g = np.array([0.0, 1.9, 0.0])  # two unphysical points, each with its own message
    gp = np.array([0.0, 1.9, 2.5])
    with pytest.raises(DomainError) as from_array:
        key_rates("noswitching", 0.5, 2.0, g, gp, mu=1e4)
    with pytest.raises(DomainError) as from_scalar:
        key_rate_numeric(AttackParams(0.5, 2.0, 1.9, 1.9), ProtocolSpec("noswitching", 1e4, False))
    assert str(from_array.value) == str(from_scalar.value)
    with pytest.raises(DomainError, match="modulation variance"):
        key_rates("noswitching", 0.5, 2.0, g[:0], gp[:0], mu=0.5)
