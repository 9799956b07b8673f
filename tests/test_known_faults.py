"""Known faults, pinned as strict xfails: a fix turns each into a visible XPASS failure.

Each test asserts the correct behaviour.  When the fault is mended, drop
its xfail mark and keep the test.
"""

import io

import pytest

from gausskey import verify_minimality
from gausskey.cli import main


def run_main(argv):
    err = io.StringIO()
    return main(argv, stderr=err), err.getvalue()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="8x8 CM round-off at mu = 1e6 pushes a rim eigenvalue to 0.9999999984543066",
)
def test_finite_mu_scan_at_large_mu():
    code, err = run_main(
        ["scan", "--tau", "0.5", "--omega", "10", "--grid-resolution", "7", "--mu", "1e6"]
    )
    assert code == 0, err


def test_asymptotic_scan_at_huge_omega():
    """Boundary samples are rounded into the lens, so their rim eigenvalues stay >= 1 - EPS_PHYS."""
    code, err = run_main(["scan", "--tau", "0.44", "--omega", "1e6", "--grid-resolution", "21"])
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
