"""Known faults, pinned as strict xfails: a fix turns each into a visible XPASS failure.

Each test asserts the correct behaviour.  When the fault is mended, drop
its xfail mark and keep the test.  The first two tests here are such
regressions: their faults are mended, and they carry no mark.
"""

import contextlib
import io
import json

import pytest

from gausskey import DomainError, find_zero_rate_transmissivity, verify_minimality
from gausskey.attack import boundary_curve_arrays
from gausskey.cli import main


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_finite_mu_scan_at_large_mu():
    """Rim points at mu = 1e6 keep their eigenvalues >= 1 - EPS_PHYS through the pipeline."""
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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the gradient step 1e-5*max(1, omega) does not shrink with the lens, so the stencil "
    "leaves it; the Hessian's shrinking step alone flips the switching determinant's sign",
)
def test_critical_is_minimum_near_unit_omega():
    for variant in ("noswitching", "switching", "switching-mixed"):
        argv = ["critical", "--protocol", variant, "--tau", "0.5", "--omega", "1.000001"]
        code, out, err = run_main(argv)
        assert code == 0, (variant, err)
        assert "is_minimum,true" in out.splitlines(), variant


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="at tau = 1 the joint state is pure; det Q of each half cancels from about mu^2, "
    "so its eigenvalue 1 comes out about eps*mu^2 low",
)
def test_finite_mu_rate_at_unit_transmissivity():
    code, _, err = run_main(["rate", "--tau", "1", "--omega", "2", "--mu", "1e4"])
    assert code == 0, err


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the rim formula loses about omega^2*eps near g -> s*omega, so some samples "
    "walk past RIM_STEP_CAP ulps and are dropped",
)
def test_boundary_keeps_every_rim_sample_at_large_omega():
    """All 2 x 2001 rim points lie in the lens (50-digit mpmath, g' = s*(omega - 1/(omega - s*g)))."""
    g, _ = boundary_curve_arrays(1e8, 2001)
    assert g.size == 2 * 2001


@pytest.mark.xfail(
    strict=True,
    raises=DomainError,
    reason="the bisection bracket ends at tau = 0.999, below the zero-rate transmissivity",
)
def test_zero_rate_transmissivity_above_the_bracket():
    """tau* = 0.999615481375 at omega = 1e3 (50-digit mpmath bisection of the closed form at g = g' = 0)."""
    assert find_zero_rate_transmissivity("noswitching", 1e3) == pytest.approx(0.999615481375, abs=1e-9)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="rim samples fail the pipeline's eigenvalue check once mu*omega is large",
)
def test_finite_mu_scan_at_huge_mu():
    code, _, err = run_main(["scan", "--tau", "0.5", "--omega", "3", "--mu", "1e8", "--grid-resolution", "5"])
    assert code == 0, err


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="rate and scan take the origin's asymptotic rate from different derivations, "
    "which differ in the last bits",
)
def test_rate_and_scan_agree_on_the_origin_rate():
    point = ["--tau", "0.44", "--omega", "7.3"]
    code, out, err = run_main(["rate", *point, "--g", "0", "--gprime", "0", "--format", "json"])
    assert code == 0, err
    rate = json.loads(out)["rate"]
    code, out, err = run_main(["scan", *point, "--grid-resolution", "5", "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["origin_rate"] == rate
