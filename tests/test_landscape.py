import math

import numpy as np
import pytest

from gausskey import (
    AttackParams,
    DomainError,
    analytic_detH_noswitching,
    analytic_detH_switching,
    analytic_detH_switching_mixed,
    analytic_second_derivs_switching,
    critical_point_report,
    f_log,
    find_zero_rate_transmissivity,
    finite_diff_gradient,
    hessian_at_origin,
    key_rate_asymptotic,
    rate_function,
    second_derivative_inequality_noswitching,
    verify_minimality,
)
from gausskey.attack import physical_grid_mirror
from gausskey.landscape import LN2
from gausskey.rates import NO_SWITCHING, SWITCHING, SWITCHING_MIXED

LN3 = 1.0986122886681096914


# ------------------------------------------------------------------- f_log

def test_f_log_values():
    assert f_log(0.5) == pytest.approx(LN3, abs=1e-14)
    x = 1e-6
    assert f_log(x) == pytest.approx(2.0 * x, abs=1e-14)
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            f_log(bad)


def test_f_log_dominates_inverse():
    for omega in np.logspace(math.log10(1.001), 2.0, 60):
        assert f_log(1.0 / omega) > 1.0 / omega


# ---------------------------------------------------------------- gradients

def test_gradient_vanishes_at_origin():
    for protocol in (NO_SWITCHING, SWITCHING, SWITCHING_MIXED):
        fn = rate_function(protocol, 0.6, 1.2)
        grad = finite_diff_gradient(fn, 0.0, 0.0, 1.2e-5)
        assert abs(grad[0]) < 1e-6 and abs(grad[1]) < 1e-6


def test_gradient_nonzero_off_origin():
    fn = rate_function(NO_SWITCHING, 0.6, 1.2)
    grad = finite_diff_gradient(fn, 0.2, -0.1, 1.2e-5)
    assert math.hypot(*grad) > 1e-3


def test_gradient_stencil_outside_region():
    fn = rate_function(NO_SWITCHING, 0.6, 1.2)
    # (0.2, 0.2) saturates the constraint at omega = 1.2
    with pytest.raises(DomainError, match="stencil"):
        finite_diff_gradient(fn, 0.2, 0.2, 1e-3)


# ----------------------------------------------------------------- Hessians

def test_hessian_positive_definite_noswitching():
    fn = rate_function(NO_SWITCHING, 0.6, 1.2)
    H = hessian_at_origin(fn, 1.2)
    assert abs(H[0, 1] - H[1, 0]) < 1e-8
    eigvals = np.linalg.eigvalsh(H)
    assert eigvals[0] > 0.0


def test_hessian_rejects_unit_noise():
    fn = rate_function(SWITCHING, 0.5, 1.2)
    with pytest.raises(DomainError):
        hessian_at_origin(fn, 1.0)


def test_hessian_switching_structure_and_values():
    for omega in (1.1, 1.5, 2.0, 5.0):
        fn = rate_function(SWITCHING, 0.5, omega)
        H = hessian_at_origin(fn, omega)
        assert H[0, 0] == pytest.approx(H[1, 1], rel=1e-8)
        same, cross = analytic_second_derivs_switching(omega)
        assert H[0, 0] == pytest.approx(same, rel=1e-5)
        assert H[0, 1] == pytest.approx(cross, rel=1e-5)
        # the Hessian is the same at any transmissivity
        H2 = hessian_at_origin(rate_function(SWITCHING, 0.85, omega), omega)
        assert np.allclose(H, H2, rtol=1e-6)


def test_detH_noswitching_positive_on_grid():
    for tau in np.linspace(0.05, 0.95, 10):
        for omega in np.linspace(1.05, 10.0, 10):
            assert analytic_detH_noswitching(float(tau), float(omega)) > 0.0


def test_detH_noswitching_matches_finite_differences():
    for tau, omega in ((0.6, 1.2), (0.44, 1.2), (0.3, 2.0), (0.9, 5.0), (0.1, 1.5)):
        fn = rate_function(NO_SWITCHING, tau, omega)
        fd_det = float(np.linalg.det(hessian_at_origin(fn, omega)))
        assert analytic_detH_noswitching(tau, omega) == pytest.approx(fd_det, rel=1e-4)


def test_detH_noswitching_domain():
    with pytest.raises(DomainError):
        analytic_detH_noswitching(0.5, 1.0)
    with pytest.raises(DomainError):
        analytic_detH_noswitching(1.0, 1.2)


def test_detH_switching_positive_and_stable_near_unit_noise():
    values = [analytic_detH_switching(w) for w in (1.001, 1.01, 1.1, 1.5, 2.0, 5.0, 50.0)]
    assert all(v > 0.0 for v in values)
    # approaching omega = 1 from above keeps the sign
    assert analytic_detH_switching(1.0 + 1e-4) > 0.0
    with pytest.raises(DomainError):
        analytic_detH_switching(1.0)


def test_detH_switching_matches_finite_differences():
    for omega in (1.1, 1.5, 2.0, 5.0):
        fn = rate_function(SWITCHING, 0.5, omega)
        fd_det = float(np.linalg.det(hessian_at_origin(fn, omega)))
        assert analytic_detH_switching(omega) == pytest.approx(fd_det, rel=1e-4)


def test_detH_switching_mixed_matches_finite_differences():
    for omega in (1.1, 1.5, 2.0):
        fn = rate_function(SWITCHING_MIXED, 0.5, omega)
        fd_det = float(np.linalg.det(hessian_at_origin(fn, omega)))
        assert analytic_detH_switching_mixed(omega) == pytest.approx(fd_det, rel=1e-4)


def test_second_derivative_inequality():
    assert second_derivative_inequality_noswitching(0.44, 1.2)
    assert second_derivative_inequality_noswitching(1.0, 1.2)  # tau = 1 allowed here
    rng = np.random.default_rng(53)
    for _ in range(100):
        tau = rng.uniform(0.01, 1.0)
        omega = rng.uniform(1.01, 10.0)
        assert second_derivative_inequality_noswitching(float(tau), float(omega))
    with pytest.raises(DomainError):
        second_derivative_inequality_noswitching(0.5, 0.9)


def test_second_derivative_closed_form_matches_fd():
    for tau, omega in ((0.44, 1.2), (0.3, 2.0), (0.8, 1.5)):
        lb = 1.0 + omega * (1.0 - tau)
        lead = 1.0 / (2.0 * (tau + lb) * (omega * omega - 1.0))
        rest = f_log(1.0 / omega) / (8.0 * omega) - (1.0 - tau) ** 2 * f_log(
            tau / lb
        ) / (8.0 * tau * lb)
        closed = (lead + rest) / LN2
        fn = rate_function(NO_SWITCHING, tau, omega)
        fd = hessian_at_origin(fn, omega)[0, 0]
        assert closed == pytest.approx(fd, rel=1e-4)


# -------------------------------------------------------------- minimality

def test_verify_minimality_noswitching():
    report = verify_minimality(NO_SWITCHING, 0.44, 1.2, 101)
    assert report.verdict
    assert not report.degenerate
    assert abs(report.origin_rate) < 2e-3
    assert report.min_over_grid == report.origin_rate
    assert len(report.boundary_rates) > 10
    assert all(rate > 0.0 for _, _, rate in report.boundary_rates)
    assert report.near_origin_flags == ()


def test_verify_minimality_switching():
    report = verify_minimality(SWITCHING, 0.44, 1.2, 101)
    assert report.verdict
    assert all(rate > report.origin_rate for _, _, rate in report.boundary_rates)


@pytest.mark.parametrize("protocol", [NO_SWITCHING, SWITCHING, SWITCHING_MIXED])
def test_verify_minimality_at_large_omega(protocol):
    """At omega = 1e4 every boundary sample lies in the lens, so the scan completes."""
    report = verify_minimality(protocol, 0.5, 1e4, 101)
    assert report.verdict
    assert len(report.boundary_rates) == 2 * 101


def test_verify_minimality_degenerate_region():
    report = verify_minimality(NO_SWITCHING, 0.5, 1.0, 101)
    assert report.verdict and report.degenerate
    assert report.grid_rates == ((0.0, 0.0, report.origin_rate),)


def test_critical_point_report_contents():
    report = critical_point_report(NO_SWITCHING, 0.6, 1.2)
    assert report.is_minimum
    assert math.hypot(*report.gradient_at_origin) < 1e-6
    assert report.det_h == pytest.approx(report.analytic_det_h, rel=1e-4)
    sw = critical_point_report(SWITCHING, 0.6, 1.5)
    assert sw.analytic_det_h == pytest.approx(analytic_detH_switching(1.5), abs=1e-15)
    with pytest.raises(DomainError):
        critical_point_report(NO_SWITCHING, 0.6, 1.0)


def test_gradient_norm_minimized_only_at_origin():
    # dense interior scan: the gradient norm bottoms out at the node
    # nearest the origin and nowhere else comes close to zero
    for protocol in (NO_SWITCHING, SWITCHING):
        fn = rate_function(protocol, 0.6, 1.2)
        step = 1.2e-5
        norms = []
        for g, gp in zip(*(a.tolist() for a in physical_grid_mirror(1.2, 201)[:2])):
            try:
                grad = finite_diff_gradient(fn, g, gp, step)
            except DomainError:
                continue  # stencil exits the region near the boundary
            norms.append((math.hypot(*grad), g, gp))
        norms.sort()
        best_norm, best_g, best_gp = norms[0]
        assert math.hypot(best_g, best_gp) < 1e-9
        assert best_norm < 1e-6
        assert norms[1][0] > 1e-6


# ------------------------------------------------------------ zero crossing

def test_zero_rate_transmissivity_example():
    tau_star = find_zero_rate_transmissivity(NO_SWITCHING, 1.2)
    assert tau_star == pytest.approx(0.44, abs=0.005)
    p = AttackParams(tau=tau_star, omega=1.2, g=0.0, g_prime=0.0)
    assert abs(key_rate_asymptotic(p, NO_SWITCHING)) < 1e-10


def test_zero_rate_transmissivity_pure_loss_has_no_root():
    with pytest.raises(DomainError, match="sign"):
        find_zero_rate_transmissivity(NO_SWITCHING, 1.0)


def test_zero_rate_transmissivity_monotone_in_noise():
    taus = [find_zero_rate_transmissivity(NO_SWITCHING, w) for w in (1.1, 1.2, 1.4)]
    assert taus[0] < taus[1] < taus[2]
