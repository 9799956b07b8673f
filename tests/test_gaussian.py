import math

import numpy as np
import pytest

from gausskey import DomainError, NumericalDegeneracyError, entropy_h
from gausskey.gaussian import CovMat
from cm_reference import (
    cm_attack,
    cm_beamsplitter,
    cm_direct_sum,
    cm_heterodyne,
    cm_homodyne,
    cm_keep_modes,
    cm_tmsv,
    ref_is_physical,
    ref_symplectic_form,
    ref_symplectic_spectrum,
)
from conftest import random_attack

# Frozen with 40-digit arithmetic (mpmath); see the expressions alongside.
SQRT_24 = 4.8989794855663561964  # sqrt(5^2 - 1)
H_1_2 = 0.48344668561366463395   # (1.1) log2(1.1) + 0.1 log2(10)
LN3 = 1.0986122886681096914
H_ATTACK_EXAMPLE = 0.86793159042431609249  # h(sqrt(1.65)) + h(sqrt(1.17))


# ---------------------------------------------------------------- CovMat

def test_covmat_rejects_nonsymmetric():
    bad = np.eye(2)
    bad[0, 1] = 1e-6
    with pytest.raises(DomainError):
        CovMat(bad)


def test_covmat_rejects_odd_dimension():
    with pytest.raises(DomainError):
        CovMat(np.eye(3))


def test_covmat_is_immutable():
    source = cm_tmsv(2.0)
    cm = CovMat(source)
    with pytest.raises(ValueError):
        cm.mat[0, 0] = 5.0
    source[0, 0] = 5.0  # the CovMat holds a copy
    assert cm.mat[0, 0] == 2.0


def test_symplectic_form_invariants():
    # the form that the dense spectrum oracle diagonalises against
    for n in (1, 2, 4):
        form = ref_symplectic_form(n)
        assert np.array_equal(form.T, -form)
        assert np.array_equal(form @ form, -np.eye(2 * n))


# ------------------------------------------------------------------- TMSV

def test_tmsv_vacuum_is_identity():
    assert np.array_equal(cm_tmsv(1.0), np.eye(4))


def test_tmsv_blocks_mu2():
    cm = cm_tmsv(2.0)
    assert np.allclose(cm[0:2, 0:2], 2.0 * np.eye(2))
    assert np.allclose(cm[0:2, 2:4], math.sqrt(3.0) * np.diag([1.0, -1.0]))
    assert np.allclose(ref_symplectic_spectrum(cm), [1.0, 1.0], atol=1e-12)


def test_tmsv_offdiagonal_mu5():
    cm = cm_tmsv(5.0)
    assert cm[0, 2] == pytest.approx(SQRT_24, abs=1e-12)
    assert cm[1, 3] == pytest.approx(-SQRT_24, abs=1e-12)


def test_tmsv_domain():
    with pytest.raises(DomainError):
        cm_tmsv(0.999)


# ------------------------------------- symplectic spectrum (dense oracle)

def test_spectrum_thermal():
    spec = ref_symplectic_spectrum(np.diag([1.5, 1.5]))
    assert spec == pytest.approx([1.5], abs=1e-12)


def test_spectrum_tmsv_pure():
    spec = ref_symplectic_spectrum(cm_tmsv(3.0))
    assert spec == pytest.approx([1.0, 1.0], abs=1e-12)


def test_spectrum_attack_closed_form():
    spec = ref_symplectic_spectrum(cm_attack(1.2, 0.3, -0.1))
    # nu_pm = sqrt((omega +- g)(omega +- g')): sqrt(1.65), sqrt(1.17)
    assert spec == pytest.approx([math.sqrt(1.65), math.sqrt(1.17)], abs=1e-9)


def test_spectrum_indefinite_matrix_is_degenerate():
    with pytest.raises(NumericalDegeneracyError):
        ref_symplectic_spectrum(np.diag([1.0, -1.0]))


def test_spectrum_random_attack_matches_two_mode_formula():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = random_attack(rng)
        spec = ref_symplectic_spectrum(cm_attack(p.omega, p.g, p.g_prime))
        expected = sorted(
            (
                math.sqrt((p.omega + p.g) * (p.omega + p.g_prime)),
                math.sqrt((p.omega - p.g) * (p.omega - p.g_prime)),
            ),
            reverse=True,
        )
        assert spec == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------- entropy

def test_entropy_h_values():
    assert entropy_h(1.0) == 0.0
    assert entropy_h(3.0) == pytest.approx(2.0, abs=1e-12)
    assert entropy_h(1.2) == pytest.approx(H_1_2, abs=1e-14)


def test_entropy_h_clamps_and_rejects():
    assert entropy_h(1.0 - 1e-10) == 0.0
    with pytest.raises(DomainError):
        entropy_h(1.0 - 1e-6)


def test_entropy_h_increasing():
    xs = [1.0, 1.01, 1.2, 2.0, 5.0, 50.0]
    values = [entropy_h(x) for x in xs]
    assert all(b > a for a, b in zip(values, values[1:]))


def log2_e_half_x(x):
    """Large-argument form of entropy_h: log2((e/2) x)."""
    return math.log2(math.e / 2.0 * x)


def test_entropy_h_asymptotic_agreement():
    assert entropy_h(20.0) - log2_e_half_x(20.0) == pytest.approx(0.0, abs=2e-3)
    assert entropy_h(2000.0) - log2_e_half_x(2000.0) == pytest.approx(0.0, abs=2e-7)


def test_entropy_asymptotic_gap_monotone():
    # The true gap is 1/(6 x^2 ln 2) + O(x^-4), 2.4e-13 at x = 1e6.  Both
    # sides are within a few ulps of numbers near log2(x), about 1e-14,
    # so the gap must decrease strictly down to that size.
    xs = np.logspace(math.log10(3.0), 6.0, 40)
    gaps = [abs(entropy_h(float(x)) - log2_e_half_x(float(x))) for x in xs]
    floor = 3e-13
    for a, b in zip(gaps, gaps[1:]):
        assert b < a or (a < floor and b < floor)
    assert gaps[-1] < floor


def von_neumann_entropy(V: np.ndarray) -> float:
    return sum(entropy_h(float(nu)) for nu in ref_symplectic_spectrum(V))


def test_von_neumann_entropy():
    assert von_neumann_entropy(cm_tmsv(4.0)) == pytest.approx(0.0, abs=1e-9)
    assert von_neumann_entropy(np.diag([3.0, 3.0])) == pytest.approx(2.0, abs=1e-12)
    assert von_neumann_entropy(cm_attack(1.2, 0.3, -0.1)) == pytest.approx(
        H_ATTACK_EXAMPLE, abs=1e-9
    )


# ----------------------------------------------------------- beam splitter

def _bs_oracle(mat: np.ndarray, tau: float) -> np.ndarray:
    # hand-built two-mode symplectic, transmitted arm first
    t, r = math.sqrt(tau), math.sqrt(1.0 - tau)
    S = np.block(
        [[t * np.eye(2), r * np.eye(2)], [-r * np.eye(2), t * np.eye(2)]]
    )
    return S @ mat @ S.T


def test_beamsplitter_transparent():
    cm = cm_tmsv(3.0)
    out = cm_beamsplitter(cm, 0, 1, 1.0)
    assert np.allclose(out, cm, atol=1e-12)


def test_beamsplitter_full_reflection_swaps():
    cm = cm_tmsv(2.0)
    out = cm_beamsplitter(cm, 0, 1, 0.0)
    assert np.allclose(out, _bs_oracle(cm, 0.0), atol=1e-12)
    # reflected arm: blocks swap, cross block flips sign
    assert np.allclose(out[0:2, 0:2], cm[2:4, 2:4], atol=1e-12)
    assert np.allclose(out[0:2, 2:4], -cm[0:2, 2:4], atol=1e-12)


def test_beamsplitter_transmitted_variance():
    cm = np.diag([3.0, 3.0, 1.2, 1.2])
    out = cm_beamsplitter(cm, 0, 1, 0.6)
    assert np.allclose(out, _bs_oracle(cm, 0.6), atol=1e-12)
    # transmitted block: tau*mu + (1-tau)*omega = 0.6*3 + 0.4*1.2
    assert out[0, 0] == pytest.approx(2.28, abs=1e-12)


def test_beamsplitter_validation():
    cm = cm_tmsv(2.0)
    with pytest.raises(DomainError):
        cm_beamsplitter(cm, 0, 0, 0.5)
    with pytest.raises(DomainError):
        cm_beamsplitter(cm, 0, 1, 1.5)


def test_beamsplitter_preserves_spectrum():
    rng = np.random.default_rng(5)
    for tau in np.linspace(0.0, 1.0, 11):
        p = random_attack(rng)
        cm = cm_direct_sum(cm_tmsv(1.0 + 3.0 * rng.random()), cm_attack(p.omega, p.g, p.g_prime))
        before = ref_symplectic_spectrum(cm)
        after = ref_symplectic_spectrum(cm_beamsplitter(cm, 0, 2, float(tau)))
        assert after == pytest.approx(before, abs=1e-9)


# ------------------------------------------------------------ conditioning

def test_heterodyne_product_state_unchanged():
    out = cm_heterodyne(np.eye(4), 1)
    assert np.allclose(out, np.eye(2), atol=1e-12)


def test_heterodyne_tmsv_gives_vacuum():
    # mu - (mu^2-1)/(mu+1) = 1 for every mu
    out = cm_heterodyne(cm_tmsv(3.0), 1)
    assert np.allclose(out, np.eye(2), atol=1e-12)


def test_homodyne_product_state_unchanged():
    out = cm_homodyne(np.diag([1.7, 1.7, 2.5, 2.5]), 1, "q")
    assert np.allclose(out, np.diag([1.7, 1.7]), atol=1e-12)


def test_homodyne_tmsv_schur():
    # measuring q of one arm: remaining CM diag(mu - (mu^2-1)/mu, mu)
    out = cm_homodyne(cm_tmsv(3.0), 1, "q")
    assert np.allclose(out, np.diag([1.0 / 3.0, 3.0]), atol=1e-12)
    out_p = cm_homodyne(cm_tmsv(3.0), 1, "p")
    assert np.allclose(out_p, np.diag([3.0, 1.0 / 3.0]), atol=1e-12)


def test_homodyne_degenerate_quadrature():
    cm = np.diag([1.0, 1.0, 1e-14, 1e6])
    with pytest.raises(DomainError):
        cm_homodyne(cm, 1, "q")
    with pytest.raises(DomainError):
        cm_homodyne(cm, 1, "x")


def test_conditioning_keeps_physicality():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = random_attack(rng)
        cm = cm_beamsplitter(
            cm_direct_sum(cm_tmsv(1.0 + 5.0 * rng.random()), cm_attack(p.omega, p.g, p.g_prime)),
            1,
            2,
            rng.random(),
        )
        assert ref_is_physical(cm_heterodyne(cm, 0))
        assert ref_is_physical(cm_homodyne(cm, 2, "q"))
        assert ref_is_physical(cm_homodyne(cm, 1, "p"))


# -------------------------------------------------------------- physicality

def test_is_physical_examples():
    assert ref_is_physical(np.eye(2))
    assert not ref_is_physical(np.diag([0.5, 0.5]))
    # omega*|g+g'| = 1.2 > omega^2 + g g' - 1 = 0.69
    assert not ref_is_physical(cm_attack(1.2, 0.5, 0.5))


def test_tmsv_purity_sweep():
    for mu in (1.0, 1.5, 2.0, 10.0, 100.0):
        spec = ref_symplectic_spectrum(cm_tmsv(mu))
        assert spec == pytest.approx([1.0, 1.0], abs=1e-9)


def test_keep_modes_reorders():
    cm = cm_direct_sum(np.diag([2.0, 2.0]), np.diag([3.0, 3.0]))
    swapped = cm_keep_modes(cm, (1, 0))
    assert np.allclose(swapped, np.diag([3.0, 3.0, 2.0, 2.0]))
    with pytest.raises(DomainError):
        cm_keep_modes(cm, (0, 2))
