"""Known faults, pinned as strict xfails: a fix turns each into a visible XPASS failure.

Each test asserts the correct behaviour.  When the fault is mended, drop
its xfail mark and keep the test.
"""

import contextlib
import io
import json

import pytest

from gausskey import verify_minimality
from gausskey.cli import main


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="8x8 CM round-off at mu = 1e6 pushes a rim eigenvalue to 0.9999999984543066",
)
def test_finite_mu_scan_at_large_mu():
    code, _, err = run_main(
        ["scan", "--tau", "0.5", "--omega", "10", "--grid-resolution", "7", "--mu", "1e6"]
    )
    assert code == 0, err


def test_asymptotic_scan_at_huge_omega():
    """Boundary samples are rounded into the lens, so their rim eigenvalues stay >= 1 - EPS_PHYS."""
    code, _, err = run_main(["scan", "--tau", "0.44", "--omega", "1e6", "--grid-resolution", "21"])
    assert code == 0, err


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the grid spans (-omega, omega)^2 while the lens near omega = 1 is about 0.014 by 1e-4",
)
def test_certification_near_unit_omega_checks_enough_points():
    report = verify_minimality("noswitching", 0.44, 1.0001, 101)
    rows = report.grid_rates + report.boundary_rates
    checked = [(g, gp) for g, gp, _ in rows if (g, gp) != (0.0, 0.0)]
    assert report.verdict
    assert len(checked) >= 20


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="R - R0 next to the origin is about 1e-12 and cancels in the subtraction of two O(1) rates",
)
def test_scan_verdict_at_huge_omega():
    argv = ["scan", "--tau", "0.5", "--omega", "1e12", "--grid-resolution", "101", "--format", "json"]
    code, out, err = run_main(argv)
    assert code == 0, err
    assert json.loads(out)["verdict"] is True


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the central-difference Hessian cannot resolve a determinant of about 4e-60",
)
def test_critical_is_minimum_at_huge_omega():
    code, out, err = run_main(["critical", "--tau", "0.5", "--omega", "1e10"])
    assert code == 0, err
    assert "is_minimum,true" in out.splitlines()
