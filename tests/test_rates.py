import math

import numpy as np
import pytest

from cm_reference import (
    cm_heterodyne,
    cm_homodyne,
    cm_joint,
    closed_conditional_cm_noswitching,
    closed_conditional_cm_switching,
    closed_total_cm,
)
from gausskey import (
    AttackParams,
    CovMat,
    DomainError,
    ProtocolSpec,
    conditional_spectra_switching,
    conditional_spectrum_noswitching,
    entropy_h,
    holevo_noswitching,
    holevo_switching,
    key_rate_noswitching,
    key_rate_numeric,
    key_rate_switching,
    key_rate_switching_mixed,
    mutual_information,
    rate_report,
    symplectic_spectrum,
    total_spectrum_asymptotic,
)
from gausskey.rates import NO_SWITCHING, SWITCHING, SWITCHING_MIXED
from conftest import random_attack

EXAMPLE = AttackParams(tau=0.6, omega=1.2, g=0.3, g_prime=-0.1)

# Frozen with 40-digit arithmetic (mpmath).
MI_EB_EXAMPLE = 1.6147098441152082    # 2 log2(3.5/2), tau=0.5 omega=1 mu=3
MI_PM_EXAMPLE = 1.1699250014423123    # 2 log2(3/2), same point, signal variance mu
MI_ASYM_EXAMPLE = 35.337068326980761  # 2 log2(0.44e6 / 2.112)
NUBAR_PLUS_EXAMPLE = 2.5298221281347035  # sqrt(1.6 * 1.44) / 0.6


def _single_mode_rate(tau: float, omega: float) -> float:
    # standalone uncorrelated-attack formula, written independently
    lam_bar = 1.0 + (1.0 - tau) * omega
    den = 1.0 + tau + (1.0 - tau) * omega
    return (
        math.log2(2.0 / math.e * tau / ((1.0 - tau) * den))
        + entropy_h(lam_bar / tau)
        - entropy_h(omega)
    )


def _single_mode_holevo(tau: float, omega: float, mu: float) -> float:
    lam_bar = 1.0 + (1.0 - tau) * omega
    return 2.0 * (
        math.log2(math.e / 2.0 * (1.0 - tau) * mu)
        + entropy_h(omega)
        - entropy_h(lam_bar / tau)
    )


# ------------------------------------------------------------ ProtocolSpec

def test_protocol_spec_validation():
    with pytest.raises(DomainError):
        ProtocolSpec("bogus")
    with pytest.raises(DomainError):
        ProtocolSpec(NO_SWITCHING, mu=0.5)
    with pytest.raises(DomainError):
        ProtocolSpec(NO_SWITCHING, asymptotic=False)  # finite mode needs mu
    spec = ProtocolSpec(SWITCHING, mu=100.0, asymptotic=False)
    assert spec.mu_value == 100.0


# ---------------------------------------------------------------- total CM

# The closed-form oracles of cm_reference and the constructive pipeline are
# held to the same hand-derived values.


def test_total_cm_transparent_channel():
    p = AttackParams(tau=1.0, omega=1.2, g=0.0, g_prime=0.0)
    for V in (closed_total_cm(p, 9.0), cm_joint(p, 9.0)):
        assert np.allclose(V[0:2, 0:2], 10.0 * np.eye(2))
        assert np.allclose(V[4:6, 4:6], 10.0 * np.eye(2))  # Lambda = mu + 1 at tau = 1
        assert np.allclose(V[4:6, 6:8], 0.0)
        # the untouched source cross block: sqrt((mu+1)^2 - 1) * Z
        assert np.allclose(V[0:2, 4:6], math.sqrt(99.0) * np.diag([1.0, -1.0]))


def test_total_cm_receiver_variance():
    p = AttackParams(tau=0.6, omega=1.2, g=0.0, g_prime=0.0)
    for V in (closed_total_cm(p, 9.0), cm_joint(p, 9.0)):
        # Lambda = tau (mu+1) + (1-tau) omega = 0.6*10 + 0.4*1.2
        assert V[4, 4] == pytest.approx(6.48, abs=1e-12)
        assert V[6, 6] == pytest.approx(6.48, abs=1e-12)


def test_total_cm_matches_constructive_pipeline():
    rng = np.random.default_rng(31)
    for _ in range(100):
        p = random_attack(rng)
        mu = 1.0 + 10.0 ** rng.uniform(0.0, 3.0)
        closed = closed_total_cm(p, mu)
        piped = cm_joint(p, mu)
        assert np.max(np.abs(closed - piped)) < 1e-10


def test_total_cm_rejects_unphysical():
    with pytest.raises(DomainError):
        cm_joint(AttackParams(tau=0.6, omega=1.2, g=0.5, g_prime=0.5), 10.0)
    with pytest.raises(DomainError):
        cm_joint(EXAMPLE, 1.0)


# ------------------------------------------------------- mutual information

def test_mutual_information_finite_conventions():
    p = AttackParams(tau=0.5, omega=1.0, g=0.0, g_prime=0.0)
    eb = mutual_information(p, ProtocolSpec(NO_SWITCHING, mu=3.0, asymptotic=False))
    # source-side bookkeeping: V_B = tau (mu+1) + (1-tau) omega, numerator 3.5
    assert eb == pytest.approx(MI_EB_EXAMPLE, abs=1e-12)
    # signal-variance bookkeeping (V_B = tau mu + (1-tau) omega) would give
    # 2 log2(3/2); the two conventions agree as mu -> infinity
    v_b_pm = 0.5 * 3.0 + 0.5 * 1.0
    pm = 2.0 * math.log2((v_b_pm + 1.0) / 2.0)
    assert pm == pytest.approx(MI_PM_EXAMPLE, abs=1e-12)
    eb_large = mutual_information(p, ProtocolSpec(NO_SWITCHING, mu=1e8, asymptotic=False))
    asym = mutual_information(p, ProtocolSpec(NO_SWITCHING, mu=1e8))
    assert eb_large == pytest.approx(asym, abs=1e-6)


def test_mutual_information_asymptotic_example():
    p = AttackParams(tau=0.44, omega=1.2, g=0.0, g_prime=0.0)
    value = mutual_information(p, ProtocolSpec(NO_SWITCHING, mu=1e6))
    assert value == pytest.approx(MI_ASYM_EXAMPLE, abs=1e-12)


def test_mutual_information_ignores_correlations():
    for variant in (NO_SWITCHING, SWITCHING, SWITCHING_MIXED):
        spec = ProtocolSpec(variant, mu=1e4, asymptotic=False)
        base = AttackParams(tau=0.44, omega=1.2, g=0.0, g_prime=0.0)
        corr = AttackParams(tau=0.44, omega=1.2, g=0.3, g_prime=-0.3)
        assert mutual_information(base, spec) == mutual_information(corr, spec)


def test_mutual_information_rejects_small_mu():
    with pytest.raises(DomainError):
        ProtocolSpec(NO_SWITCHING, mu=1.0, asymptotic=False)


# --------------------------------------------------------------- spectra

def test_total_spectrum_asymptotic_values():
    p = AttackParams(tau=0.6, omega=1.2, g=0.0, g_prime=0.0)
    spec = total_spectrum_asymptotic(p, 100.0)
    assert spec == pytest.approx([40.0, 40.0, 1.2, 1.2], abs=1e-12)
    spec2 = total_spectrum_asymptotic(EXAMPLE, 100.0)
    assert sorted(spec2[2:]) == pytest.approx(
        sorted([math.sqrt(1.65), math.sqrt(1.17)]), abs=1e-12
    )


def test_total_spectrum_matches_finite_mu():
    mu = 1e6
    finite = symplectic_spectrum(CovMat(closed_total_cm(EXAMPLE, mu)))
    asym = total_spectrum_asymptotic(EXAMPLE, mu)
    assert np.max(np.abs(finite - asym) / asym) < 1e-4


def _double_heterodyne(params, mu):
    return cm_heterodyne(cm_heterodyne(cm_joint(params, mu), 3), 2)


def test_conditional_cm_diagonal_without_correlations():
    p = AttackParams(tau=0.6, omega=1.2, g=0.0, g_prime=0.0)
    for V in (closed_conditional_cm_noswitching(p, 1e4), _double_heterodyne(p, 1e4)):
        assert np.allclose(V, np.diag(np.diag(V)), atol=1e-12)


def test_conditional_cm_matches_double_heterodyne():
    mu = 1e6
    closed = closed_conditional_cm_noswitching(EXAMPLE, mu)
    piped = _double_heterodyne(EXAMPLE, mu)
    assert np.allclose(closed, piped, rtol=1e-6, atol=1e-9)


def test_conditional_cm_cross_sign():
    closed = closed_conditional_cm_noswitching(EXAMPLE, 100.0)
    for V in (closed, _double_heterodyne(EXAMPLE, 100.0)):
        assert V[0, 2] > 0.0   # follows sign of g = 0.3
        assert V[1, 3] < 0.0   # follows sign of g' = -0.1


def test_conditional_spectrum_noswitching_values():
    p = AttackParams(tau=0.44, omega=1.2, g=0.0, g_prime=0.0)
    spec = conditional_spectrum_noswitching(p)
    assert spec == pytest.approx([3.8, 3.8], abs=1e-12)
    spec2 = conditional_spectrum_noswitching(EXAMPLE)
    assert spec2[0] == pytest.approx(NUBAR_PLUS_EXAMPLE, abs=1e-12)


def test_conditional_spectrum_mu_independent():
    # the pipeline spectrum approaches a modulation-free limit as O(1/mu);
    # at this point the 1/mu coefficient is ~2, hence the scaled tolerances
    asym = conditional_spectrum_noswitching(EXAMPLE)
    gaps = {}
    for mu in (1e3, 1e6):
        piped = symplectic_spectrum(
            CovMat(cm_heterodyne(cm_heterodyne(closed_total_cm(EXAMPLE, mu), 3), 2))
        )
        gaps[mu] = np.max(np.abs(piped - asym) / asym)
    assert gaps[1e3] < 5e-3
    assert gaps[1e6] < 5e-6


# ----------------------------------------------------------------- Holevo

def test_holevo_reduces_to_single_mode():
    p = AttackParams(tau=0.44, omega=1.2, g=0.0, g_prime=0.0)
    assert holevo_noswitching(p, 1e6) == pytest.approx(
        _single_mode_holevo(0.44, 1.2, 1e6), abs=1e-12
    )


def test_holevo_matches_numeric_entropies():
    mu = 1e6
    V = cm_joint(EXAMPLE, mu)
    cond = cm_heterodyne(cm_heterodyne(V, 3), 2)
    numeric = sum(entropy_h(float(nu)) for nu in symplectic_spectrum(CovMat(V))) - sum(
        entropy_h(float(nu)) for nu in symplectic_spectrum(CovMat(cond))
    )
    assert holevo_noswitching(EXAMPLE, mu) == pytest.approx(numeric, abs=1e-3)


def test_holevo_degenerate_at_unit_transmissivity():
    p = AttackParams(tau=1.0, omega=1.2, g=0.0, g_prime=0.0)
    with pytest.raises(DomainError):
        holevo_noswitching(p, 1e4)
    with pytest.raises(DomainError):
        holevo_switching(p, 1e4)


# ------------------------------------------------------------ closed rates

def test_noswitching_zero_rate_point():
    p = AttackParams(tau=0.44, omega=1.2, g=0.0, g_prime=0.0)
    assert abs(key_rate_noswitching(p)) < 2e-3


def test_noswitching_long_distance_scaling():
    p = AttackParams(tau=0.01, omega=1.0, g=0.0, g_prime=0.0)
    ratio = key_rate_noswitching(p) / (0.01 / math.log(4.0))
    assert ratio == pytest.approx(1.0, abs=0.02)


def test_noswitching_positive_under_correlations():
    p = AttackParams(tau=0.44, omega=1.2, g=0.3, g_prime=-0.3)
    assert key_rate_noswitching(p) > 0.0


def test_noswitching_matches_single_mode_reduction():
    for tau, omega in ((0.3, 1.5), (0.6, 1.2), (0.9, 2.0)):
        p = AttackParams(tau=tau, omega=omega, g=0.0, g_prime=0.0)
        assert key_rate_noswitching(p) == pytest.approx(
            _single_mode_rate(tau, omega), abs=1e-12
        )


def test_noswitching_symmetries():
    rng = np.random.default_rng(37)
    for _ in range(50):
        p = random_attack(rng, tau_lo=0.1, tau_hi=0.9)
        swapped = AttackParams(p.tau, p.omega, p.g_prime, p.g)
        flipped = AttackParams(p.tau, p.omega, -p.g, -p.g_prime)
        base = key_rate_noswitching(p)
        assert key_rate_noswitching(swapped) == pytest.approx(base, abs=1e-12)
        assert key_rate_noswitching(flipped) == pytest.approx(base, abs=1e-12)


def test_rate_boundary_transmissivity_errors():
    p = AttackParams(tau=1.0, omega=1.2, g=0.0, g_prime=0.0)
    for fn in (key_rate_noswitching, key_rate_switching, key_rate_switching_mixed):
        with pytest.raises(DomainError):
            fn(p)


def test_rates_reject_unphysical_points():
    bad = AttackParams(tau=0.5, omega=1.2, g=0.5, g_prime=0.5)
    for fn in (key_rate_noswitching, key_rate_switching, key_rate_switching_mixed):
        with pytest.raises(DomainError, match="omega"):
            fn(bad)


# ------------------------------------------------------- switching protocol

def test_switching_spectra_coefficients():
    p = AttackParams(tau=0.44, omega=1.2, g=0.0, g_prime=0.0)
    q, pp, mixed = conditional_spectra_switching(p)
    assert np.allclose(q, pp) and np.allclose(q, mixed)
    p2 = AttackParams(tau=0.5, omega=1.2, g=0.3, g_prime=0.0)
    q2, _, _ = conditional_spectra_switching(p2)
    assert q2 == pytest.approx([math.sqrt(1.5), math.sqrt(0.9)], abs=1e-12)


def test_switching_spectra_match_pipeline():
    mu = 1e6
    V = cm_joint(EXAMPLE, mu)
    q_cond = cm_homodyne(cm_homodyne(V, 3, "q"), 2, "q")
    coeffs = symplectic_spectrum(CovMat(q_cond)) / math.sqrt(mu)
    q, _, _ = conditional_spectra_switching(EXAMPLE)
    assert np.max(np.abs(coeffs - q) / q) < 1e-3


def test_switching_conditional_cms_match_pipeline():
    mu = 1e6
    V = cm_joint(EXAMPLE, mu)
    cases = {
        ("q", "q"): cm_homodyne(cm_homodyne(V, 3, "q"), 2, "q"),
        ("p", "p"): cm_homodyne(cm_homodyne(V, 3, "p"), 2, "p"),
        ("q", "p"): cm_homodyne(cm_homodyne(V, 3, "p"), 2, "q"),
    }
    for quads, piped in cases.items():
        closed = closed_conditional_cm_switching(EXAMPLE, mu, quadratures=quads)
        assert np.allclose(closed, piped, rtol=1e-6, atol=1e-9 * mu)


def test_switching_rate_reduction_and_example():
    p = AttackParams(tau=0.3, omega=1.4, g=0.0, g_prime=0.0)
    expected = 0.5 * math.log2(1.4 / (0.7 * (0.3 + 0.7 * 1.4))) - entropy_h(1.4)
    assert key_rate_switching(p) == pytest.approx(expected, abs=1e-12)
    pure = AttackParams(tau=0.5, omega=1.0, g=0.0, g_prime=0.0)
    assert key_rate_switching(pure) == pytest.approx(0.5, abs=1e-12)


def test_switching_correlations_raise_rate():
    rng = np.random.default_rng(41)
    base = AttackParams(tau=0.44, omega=1.2, g=0.0, g_prime=0.0)
    r0 = key_rate_switching(base)
    for _ in range(50):
        p = random_attack(rng, omega_lo=1.2, omega_hi=1.2, tau_lo=0.44, tau_hi=0.44)
        if (p.g, p.g_prime) == (0.0, 0.0):
            continue
        assert key_rate_switching(p) > r0


def test_mixed_rate_relations():
    origin = AttackParams(tau=0.6, omega=1.2, g=0.0, g_prime=0.0)
    assert key_rate_switching_mixed(origin) == pytest.approx(
        key_rate_switching(origin), abs=1e-14
    )
    rng = np.random.default_rng(43)
    for _ in range(50):
        p = random_attack(rng, tau_lo=0.1, tau_hi=0.9)
        r_same = key_rate_switching(p)
        r_mixed = key_rate_switching_mixed(p)
        # sqrt(nu+ nu-) <= omega always, so the mixed variant can only gain
        assert r_mixed >= r_same - 1e-14
        if abs(p.g) + abs(p.g_prime) > 1e-3 and abs(p.g - p.g_prime) > 1e-3:
            assert r_mixed > r_same


# ------------------------------------------------------------ numeric route

def test_numeric_rate_converges_noswitching():
    p = AttackParams(tau=0.44, omega=1.2, g=0.0, g_prime=0.0)
    closed = key_rate_noswitching(p)
    errors = []
    for mu in (1e3, 1e4, 1e5, 1e6):
        report = key_rate_numeric(p, ProtocolSpec(NO_SWITCHING, mu=mu, asymptotic=False))
        errors.append(abs(report.rate - closed))
    assert errors[-1] < 2e-3
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_numeric_rate_converges_all_variants():
    closed = {
        NO_SWITCHING: key_rate_noswitching(EXAMPLE),
        SWITCHING: key_rate_switching(EXAMPLE),
        SWITCHING_MIXED: key_rate_switching_mixed(EXAMPLE),
    }
    for variant, target in closed.items():
        errs = [
            abs(key_rate_numeric(EXAMPLE, ProtocolSpec(variant, mu=mu, asymptotic=False)).rate - target)
            for mu in (1e4, 1e6)
        ]
        assert errs[1] < 2e-3
        assert errs[0] > errs[1]


def test_numeric_rate_lossless_channel():
    p = AttackParams(tau=1.0, omega=1.5, g=0.0, g_prime=0.0)
    for variant in (NO_SWITCHING, SWITCHING, SWITCHING_MIXED):
        report = key_rate_numeric(p, ProtocolSpec(variant, mu=1e3, asymptotic=False))
        assert abs(report.holevo) < 1e-6
        assert report.rate == pytest.approx(report.i_ab / 2.0, abs=1e-6)


def test_numeric_reports_are_consistent():
    spec = ProtocolSpec(SWITCHING, mu=1e5, asymptotic=False)
    report = key_rate_numeric(EXAMPLE, spec)
    assert report.rate == pytest.approx((report.i_ab - report.holevo) / 2.0, abs=1e-14)
    assert report.total_spectrum.shape == (4,)
    assert report.conditional_spectrum.shape == (4,)


def test_rate_report_asymptotic_consistency():
    for variant, closed_fn in (
        (NO_SWITCHING, key_rate_noswitching),
        (SWITCHING, key_rate_switching),
        (SWITCHING_MIXED, key_rate_switching_mixed),
    ):
        report = rate_report(EXAMPLE, ProtocolSpec(variant))
        assert report.rate == pytest.approx((report.i_ab - report.holevo) / 2.0, abs=1e-14)
        assert report.rate == pytest.approx(closed_fn(EXAMPLE), abs=1e-12)
