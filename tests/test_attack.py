import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gausskey import (
    EPS_PHYS,
    AttackParams,
    DomainError,
    boundary_curve_arrays,
    constraint_slack,
    key_rates,
    lens_mask,
    violated_constraint,
)
from gausskey.attack import physical_grid_mirror
from cm_reference import cm_attack, qp_attack, ref_is_physical


def _params(omega, g, gp, tau=0.5):
    return AttackParams(tau=tau, omega=omega, g=g, g_prime=gp)


def _interior(omega, g, gp):
    return bool(constraint_slack(omega, g, gp) > EPS_PHYS)


def _boundary(omega, n):
    return list(zip(*(a.tolist() for a in boundary_curve_arrays(omega, n))))


def _grid(omega, n):
    return list(zip(*(a.tolist() for a in physical_grid_mirror(omega, n)[:2])))


def test_attack_params_validation():
    with pytest.raises(DomainError):
        AttackParams(tau=0.0, omega=1.2, g=0.0, g_prime=0.0)
    with pytest.raises(DomainError):
        AttackParams(tau=1.2, omega=1.2, g=0.0, g_prime=0.0)
    with pytest.raises(DomainError):
        AttackParams(tau=0.5, omega=0.9, g=0.0, g_prime=0.0)
    with pytest.raises(DomainError):
        AttackParams(tau=0.5, omega=float("nan"), g=0.0, g_prime=0.0)


def test_attack_cm_construction():
    assert qp_attack(1.2, 0.3, -0.1) == ([[1.2, 0.3], [0.3, 1.2]], [[1.2, -0.1], [-0.1, 1.2]])
    assert np.array_equal(cm_attack(1.0, 0.0, 0.0), np.eye(4))
    assert np.array_equal(cm_attack(1.2, 0.0, 0.0), 1.2 * np.eye(4))
    cm = cm_attack(1.2, 0.3, -0.1)
    assert np.array_equal(cm[0:2, 2:4], np.diag([0.3, -0.1]))
    assert np.array_equal(cm[2:4, 0:2], np.diag([0.3, -0.1]))


def test_check_constraints_examples():
    # omega |g+g'| = 0 <= omega^2 + g g' - 1 = 0.35; both products are 0.9*1.5 = 1.35
    assert lens_mask(1.2, 0.3, -0.3)
    assert constraint_slack(1.2, 0.3, -0.3) == pytest.approx(0.35)
    # 1.2 > 0.69; (omega - g)(omega - g') = 0.49
    assert not lens_mask(1.2, 0.5, 0.5)
    assert constraint_slack(1.2, 0.5, 0.5) == pytest.approx(-0.51)
    # at omega = 1 only the origin survives, on the rim
    assert not lens_mask(1.0, 0.1, 0.0)
    assert lens_mask(1.0, 0.0, 0.0)
    assert not _interior(1.0, 0.0, 0.0)
    # the square is part of the test: at (omega + 2, omega + 2) both products exceed 1
    assert constraint_slack(1.2, 3.2, 3.2) > 0.0 and not lens_mask(1.2, 3.2, 3.2)
    mask = lens_mask(1.2, np.array([0.0, 0.5, np.nan]), np.zeros(3))
    assert mask.tolist() == [True, False, False]


def test_violated_constraint_names_the_failure():
    assert violated_constraint(_params(1.2, 0.3, -0.1)) is None
    assert "|g| < omega" in violated_constraint(_params(1.2, 1.3, 0.0))
    assert "|g_prime| < omega" in violated_constraint(_params(1.2, 0.0, -1.25))
    message = violated_constraint(_params(1.2, 0.5, 0.5))
    assert "omega*|g + g_prime|" in message


def test_constraints_equivalent_to_cm_physicality():
    rng = np.random.default_rng(23)
    for _ in range(10_000):
        omega = rng.uniform(1.0, 5.0)
        g = rng.uniform(-omega, omega)
        gp = rng.uniform(-omega, omega)
        by_inequalities = bool(lens_mask(omega, g, gp))
        by_spectrum = ref_is_physical(cm_attack(omega, g, gp))
        assert by_inequalities == by_spectrum, (omega, g, gp)


def test_region_symmetries():
    rng = np.random.default_rng(29)
    for _ in range(500):
        omega = rng.uniform(1.0, 4.0)
        g = rng.uniform(-omega, omega)
        gp = rng.uniform(-omega, omega)
        base = constraint_slack(omega, g, gp)
        assert base == constraint_slack(omega, gp, g)
        assert base == constraint_slack(omega, -g, -gp)


# ----------------------------------------------------------------- boundary

def test_boundary_requires_noise():
    with pytest.raises(DomainError):
        boundary_curve_arrays(1.0, 50)
    with pytest.raises(DomainError):
        boundary_curve_arrays(1.2, 1)


def test_boundary_solution_at_g_zero():
    samples = _boundary(1.2, 201)
    # solving the saturation condition at g = 0 gives g' = +-(omega^2 - 1)/omega,
    # one point per sign branch
    near_zero = sorted(gp for g, gp in samples if abs(g) < 1e-9)
    assert near_zero == pytest.approx([-0.44 / 1.2, 0.44 / 1.2], abs=1e-9)
    for gp in near_zero:
        residual = 1.2 * abs(gp) - (1.44 - 1.0)
        assert abs(residual) < 1e-12


def test_boundary_symmetric_point():
    # on the diagonal the saturation condition reads g^2 - 2 omega g + omega^2 - 1 = 0,
    # whose root inside the region is g = omega - 1
    omega, g = 1.2, 0.2
    residual = omega * abs(g + g) - (omega * omega + g * g - 1.0)
    assert abs(residual) < 1e-12
    assert lens_mask(omega, g, g)
    assert not _interior(omega, g, g)


def test_boundary_samples_saturate_constraints():
    for omega in (1.05, 1.2, 2.0, 4.0):
        samples = _boundary(omega, 101)
        assert len(samples) > 10
        for g, gp in samples:
            assert lens_mask(omega, g, gp)
            assert not _interior(omega, g, gp)
            residual = omega * abs(g + gp) - (omega * omega + g * gp - 1.0)
            assert abs(residual) <= 1e-9 * max(1.0, omega * omega)


def test_boundary_covers_both_branches():
    sums = [g + gp for g, gp in _boundary(1.2, 201)]
    assert any(s > 0.1 for s in sums) and any(s < -0.1 for s in sums)


# --------------------------------------------------------------------- grid

def test_grid_degenerates_at_unit_noise():
    assert _grid(1.0, 101) == [(0.0, 0.0)]
    assert _grid(1.0 + 1e-9, 101) == [(0.0, 0.0)]


def test_grid_nonempty_and_physical():
    grid = _grid(1.2, 101)
    assert len(grid) > 0
    assert (0.0, 0.0) in grid
    assert grid == sorted(grid)
    for g, gp in grid:
        # brute-force recheck of the inequalities
        assert abs(g) < 1.2 and abs(gp) < 1.2
        assert 1.2 * abs(g + gp) <= 1.44 + g * gp - 1.0 + 1e-9


def test_grid_shrinks_with_noise():
    sizes = [len(_grid(omega, 61)) for omega in (1.01, 1.1, 1.5)]
    assert sizes[0] < sizes[1] < sizes[2]


def test_grid_validation():
    with pytest.raises(DomainError):
        physical_grid_mirror(1.2, 1)


# ------------------------------------------ one predicate, omega in (1, 1e8]

EPS = 2.0**-52

omegas_to_1e8 = st.one_of(
    st.floats(min_value=0.0, max_value=math.log(1e8), exclude_min=True).map(math.exp),
    st.integers(min_value=-52, max_value=-1).map(lambda k: 1.0 + 2.0**k),
).filter(lambda omega: omega > 1.0)
resolutions = st.integers(min_value=2, max_value=401)
taus = st.floats(min_value=0.01, max_value=0.99)


def rim_band(omega):
    """|constraint_slack| within which lens_mask and ref_is_physical may disagree.

    ref_is_physical admits nu >= 1 - EPS_PHYS, that is nu^2 down to about
    1 - 2 EPS_PHYS, where lens_mask stops at 1 - EPS_PHYS; and the
    symplectic spectrum of the attack CM carries a round-off of a few
    eps*omega^2 in nu^2 (measured up to 1.6 eps*omega^2 for omega <= 1e8).
    """
    return 4.0 * EPS_PHYS + 16.0 * EPS * omega * omega


@st.composite
def plane_points(draw):
    """(omega, g, g'): anywhere in and around the square, or near a boundary sample."""
    omega = draw(omegas_to_1e8)
    kind = draw(st.sampled_from(["square", "ulps", "offset"]))
    if kind == "square":
        return omega, draw(st.floats(-1.2, 1.2)) * omega, draw(st.floats(-1.2, 1.2)) * omega
    g_all, gp_all = boundary_curve_arrays(omega, draw(st.integers(2, 41)))
    assume(g_all.size > 0)
    k = draw(st.integers(0, g_all.size - 1))
    g, gp = float(g_all[k]), float(gp_all[k])
    if kind == "ulps":
        toward = draw(st.sampled_from([math.inf, -math.inf]))
        for _ in range(draw(st.integers(0, 4))):
            gp = math.nextafter(gp, toward)
    else:
        gp += draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-16.0, -1.0)) * omega
    return omega, g, gp


@settings(max_examples=150, deadline=None)
@given(omega=omegas_to_1e8, n=resolutions, tau=taus)
def test_boundary_samples_are_admitted_and_evaluate(omega, n, tau):
    g, gp = boundary_curve_arrays(omega, n)
    assert g.size <= 2 * n
    assert lens_mask(omega, g, gp).all()
    for variant in ("noswitching", "switching", "switching-mixed"):
        assert np.isfinite(key_rates(variant, tau, omega, g, gp)).all()  # no DomainError


@settings(max_examples=300, deadline=None)
@given(point=plane_points(), tau=taus)
def test_violated_constraint_is_none_iff_lens_mask(point, tau):
    omega, g, gp = point
    admitted = bool(lens_mask(omega, g, gp))
    assert (violated_constraint(_params(omega, g, gp, tau)) is None) == admitted
    # the one-point form (Python floats) and the array form give the same bits
    slack = constraint_slack(omega, g, gp)
    assert constraint_slack(omega, np.array([g]), np.array([gp]))[0] == slack


@settings(max_examples=300, deadline=None)
@given(point=plane_points())
def test_lens_mask_is_cm_physicality_off_the_rim(point):
    omega, g, gp = point
    assume(not abs(float(constraint_slack(omega, g, gp))) <= rim_band(omega))
    assert bool(lens_mask(omega, g, gp)) == ref_is_physical(cm_attack(omega, g, gp))


@settings(max_examples=60, deadline=None)
@given(omega=omegas_to_1e8, n=st.integers(min_value=2, max_value=61), tau=taus)
def test_rates_symmetric_under_swap_and_sign_flip(omega, n, tau):
    """Swapping g and g' keeps every bit; so does the sign flip for the switching variants.

    The sign flip swaps nu_+ and nu_-, and the no-switching form subtracts
    their entropies one after the other, so its bits may change there:
    by at most 4 eps times the size of its terms (1 + log2 omega + |log2 tau|;
    measured up to 1.5).
    """
    grid_g, grid_gp = physical_grid_mirror(omega, n)[:2]
    edge_g, edge_gp = boundary_curve_arrays(omega, n)
    g, gp = np.concatenate([grid_g, edge_g]), np.concatenate([grid_gp, edge_gp])
    for variant in ("noswitching", "switching", "switching-mixed"):
        rates = key_rates(variant, tau, omega, g, gp)
        assert np.array_equal(key_rates(variant, tau, omega, gp, g), rates)
        flipped = key_rates(variant, tau, omega, -g, -gp)
        if variant == "noswitching":
            size = 1.0 + math.log2(omega) + abs(math.log2(tau))
            assert np.all(np.abs(flipped - rates) <= 4.0 * EPS * size)
        else:
            assert np.array_equal(flipped, rates)
