"""Array forms against their scalar and loop-based references, bit for bit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausskey import (
    AttackParams,
    EPS_PHYS,
    DomainError,
    boundary_curve_arrays,
    critical_point_report,
    entropy_h,
    entropy_h_array,
    find_zero_rate_transmissivity,
    key_rate_asymptotic,
    key_rates,
    ProtocolSpec,
    rate_report,
    verify_minimality,
    violated_constraint,
)
from gausskey.attack import RIM_STEP_CAP, physical_grid_mirror
from gausskey.rates import VARIANTS

omegas = st.floats(min_value=1.0, max_value=1e3, exclude_min=True)
resolutions = st.integers(min_value=2, max_value=201)
taus = st.floats(min_value=0.01, max_value=0.99)
variants = st.sampled_from(VARIANTS)


def in_lens(omega, g, gp):
    """The lens predicate of one point in Python floats: the square, and nu_-^2 >= 1 - EPS_PHYS."""
    slack = min((omega - g) * (omega - gp), (omega + g) * (omega + gp)) - 1.0
    return abs(g) < omega and abs(gp) < omega and slack >= -EPS_PHYS


def loop_physical_grid(omega, resolution):
    """The lens grid, point by point."""
    axis = np.linspace(-omega, omega, resolution + 2)[1:-1]
    axis[np.abs(axis) < 1e-15 * max(1.0, omega)] = 0.0
    points = []
    for g in axis:
        for gp in axis:
            g, gp = float(g), float(gp)
            if in_lens(omega, g, gp):
                points.append((g, gp))
    if (0.0, 0.0) not in points:
        points.append((0.0, 0.0))
    points.sort()
    return points


def loop_boundary_curve(omega, n_samples):
    """The boundary samples, candidate by candidate, rounded inward one ulp at a time."""
    grid = np.linspace(-omega, omega, n_samples + 2)[1:-1]
    points = {}
    for s in (1.0, -1.0):
        for g in grid.tolist():
            den = s * omega - g
            if abs(den) < 1e-12:
                continue
            gp = (omega * omega - 1.0 - s * omega * g) / den
            if s * (g + gp) >= 0.0:  # on its own branch: walk toward 0 until admitted
                for _ in range(RIM_STEP_CAP):
                    if in_lens(omega, g, gp):
                        break
                    gp = math.nextafter(gp, 0.0)
            if in_lens(omega, g, gp):
                points[(round(g, 12), round(gp, 12))] = (g, gp)
    return sorted(points.values())


def bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=40, deadline=None)
@given(omega=st.floats(min_value=1.0, max_value=1e12, exclude_min=True), resolution=resolutions)
def test_grid_and_boundary_match_loop_reference(omega, resolution):
    g, gp = physical_grid_mirror(omega, resolution)[:2]
    assert [tuple(bits(p)) for p in zip(g, gp)] == [
        tuple(bits(p)) for p in loop_physical_grid(omega, resolution)
    ]
    g, gp = boundary_curve_arrays(omega, resolution)
    assert [tuple(bits(p)) for p in zip(g, gp)] == [
        tuple(bits(p)) for p in loop_boundary_curve(omega, resolution)
    ]


@settings(max_examples=20, deadline=None)
@given(variant=variants, tau=taus, omega=omegas, resolution=resolutions)
def test_kernel_equals_scalar_rates(variant, tau, omega, resolution):
    g, gp = physical_grid_mirror(omega, resolution)[:2]
    edge_g, edge_gp = boundary_curve_arrays(omega, resolution)
    g, gp = np.concatenate([g, edge_g]), np.concatenate([gp, edge_gp])
    rates = key_rates(variant, tau, omega, g, gp)
    scalar = [
        key_rate_asymptotic(AttackParams(tau, omega, a, b), variant)
        for a, b in zip(g.tolist(), gp.tolist())
    ]
    assert bits(rates) == bits(scalar)


@settings(max_examples=60, deadline=None)
@given(
    variant=variants,
    tau=taus,
    omega=omegas,
    resolution=st.integers(min_value=2, max_value=31),
    bad=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    where=st.floats(0.0, 1.0),
)
def test_one_unphysical_point_names_its_constraint(variant, tau, omega, resolution, bad, where):
    bad_g, bad_gp = bad[0] * omega, bad[1] * omega
    violated = violated_constraint(AttackParams(tau, omega, bad_g, bad_gp))
    if violated is None:
        return
    g, gp = physical_grid_mirror(omega, resolution)[:2]
    at = int(where * g.size)
    g, gp = np.insert(g, at, bad_g), np.insert(gp, at, bad_gp)
    message = f"unphysical attack parameters: violated {violated}"
    with pytest.raises(DomainError) as excinfo:
        key_rates(variant, tau, omega, g, gp)
    assert str(excinfo.value) == message


def test_kernel_checks_points_in_order():
    g = np.array([0.0, 0.1, 0.9, 1.5])
    gp = np.array([0.0, 0.1, 0.9, 0.0])
    with pytest.raises(DomainError, match=r"\|g\| < omega \("):
        key_rates("noswitching", 0.5, 1.2, g[::-1], gp[::-1])
    with pytest.raises(DomainError, match=r"omega\*\|g \+ g_prime\|"):
        key_rates("noswitching", 0.5, 1.2, g, gp)
    with pytest.raises(DomainError, match="0 < tau < 1"):
        key_rates("switching", 1.0, 1.2, g[:2], gp[:2])
    with pytest.raises(DomainError, match="g must be finite"):
        key_rates("switching", 0.5, 1.2, [0.0, math.nan], [0.0, 0.0])
    with pytest.raises(DomainError, match="unknown protocol variant"):
        key_rates("homodyne", 0.5, 1.2, g, gp)


# Every public entry that takes a variant name, called at a valid point.
VARIANT_ENTRIES = {
    "ProtocolSpec": lambda v: ProtocolSpec(v),
    "ProtocolSpec-finite": lambda v: ProtocolSpec(v, mu=1e4, asymptotic=False),
    "key_rate_asymptotic": lambda v: key_rate_asymptotic(AttackParams(0.5, 2.0, 0.1, 0.1), v),
    "key_rates": lambda v: key_rates(v, 0.5, 2.0, [0.0, 0.1], [0.0, 0.1]),
    "key_rates-finite": lambda v: key_rates(v, 0.5, 2.0, [0.0], [0.0], mu=1e4),
    "verify_minimality": lambda v: verify_minimality(v, 0.5, 2.0, 5),
    "verify_minimality-finite": lambda v: verify_minimality(v, 0.5, 2.0, 5, mu=1e4),
    "critical_point_report": lambda v: critical_point_report(v, 0.5, 2.0),
    "find_zero_rate_transmissivity": lambda v: find_zero_rate_transmissivity(v, 2.0),
}


@pytest.mark.parametrize("name", ["bogus", ["noswitching"]], ids=["unknown", "unhashable"])
@pytest.mark.parametrize("entry", VARIANT_ENTRIES)
def test_every_entry_rejects_an_unknown_variant_alike(entry, name):
    """One check: any name that is not a variant, unhashable ones included, gives one text."""
    with pytest.raises(DomainError) as excinfo:
        VARIANT_ENTRIES[entry](name)
    assert str(excinfo.value) == f"unknown protocol variant {name!r}"


def test_kernel_broadcasts_and_keeps_shape():
    g, gp = np.meshgrid(np.linspace(-0.1, 0.1, 3), np.linspace(-0.1, 0.1, 4), indexing="ij")
    rates = key_rates("noswitching", 0.44, 1.2, g, gp)
    assert rates.shape == (3, 4)
    assert rates[1, 0] == key_rate_asymptotic(AttackParams(0.44, 1.2, 0.0, -0.1), "noswitching")
    assert key_rates("switching", 0.44, 1.2, 0.0, [0.0, 0.1]).shape == (2,)
    assert key_rates("switching", 0.44, 1.2, [], []).shape == (0,)


@pytest.mark.parametrize("omega", [1e4, 1e6])
def test_rim_eigenvalue_error_matches_scalar_order(omega):
    """At a large-omega rim the kernel agrees with a loop of scalar calls, errors included."""
    edge_g, edge_gp = boundary_curve_arrays(omega, 21)
    params = [AttackParams(0.44, omega, a, b) for a, b in zip(edge_g.tolist(), edge_gp.tolist())]
    expected = None
    for p in params:
        try:
            key_rate_asymptotic(p, "noswitching")
        except DomainError as exc:
            expected = str(exc)
            break
    if expected is None:
        key_rates("noswitching", 0.44, omega, edge_g, edge_gp)
        return
    with pytest.raises(DomainError) as excinfo:
        key_rates("noswitching", 0.44, omega, edge_g, edge_gp)
    assert str(excinfo.value) == expected


def first_scalar_error(variant, tau, omega, g, gp):
    for a, b in zip(g.tolist(), gp.tolist()):
        try:
            key_rate_asymptotic(AttackParams(tau, omega, a, b), variant)
        except DomainError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("variant", VARIANTS)
def test_overflowing_rate_raises_first_scalar_error(variant):
    """Past omega ~ 1.34e154 the attack products overflow: the first such point raises."""
    omega = 1.3e154
    g, gp = physical_grid_mirror(omega, 7)[:2]
    expected = first_scalar_error(variant, 0.5, omega, g, gp)
    assert expected.startswith(f"{variant} rate at tau = 0.5, omega = 1.3e+154, (g, g') = (")
    assert expected.endswith("is not finite: an intermediate value leaves the floating-point range")
    with pytest.raises(DomainError) as excinfo:
        key_rates(variant, 0.5, omega, g, gp)
    assert str(excinfo.value) == expected
    # an unphysical point raises first only when it comes first
    bad_g, bad_gp = np.append(g, omega), np.append(gp, 0.0)
    with pytest.raises(DomainError) as excinfo:
        key_rates(variant, 0.5, omega, bad_g, bad_gp)
    assert str(excinfo.value) == expected
    with pytest.raises(DomainError, match=r"\|g\| < omega"):
        key_rates(variant, 0.5, omega, bad_g[::-1], bad_gp[::-1])
    with pytest.raises(DomainError) as excinfo:
        verify_minimality(variant, 0.5, omega, 7)
    assert str(excinfo.value) == expected
    origin = AttackParams(0.5, 1.4e154, 0.0, 0.0)
    with pytest.raises(DomainError, match="is not finite"):
        key_rate_asymptotic(origin, variant)
    with pytest.raises(DomainError, match="is not finite"):
        rate_report(origin, ProtocolSpec(variant))


# entropy_h and entropy_h_array spell h in separate code (Python floats
# against ufuncs), so their bit equality is checked over the whole range.
entropy_args = st.one_of(
    st.floats(min_value=1.0 - EPS_PHYS, max_value=1e300),
    st.floats(min_value=1.0 - EPS_PHYS, max_value=2.0),
    st.sampled_from([1.0 - EPS_PHYS, 1.0, math.nan, math.inf, 1e300]),
)


@given(st.lists(entropy_args, max_size=50))
def test_entropy_array_equals_scalar(xs):
    x = np.array(xs)
    values = [entropy_h(v) for v in xs]
    scalar = bits(values)
    from_numpy_scalars = [entropy_h(v) for v in x]
    assert bits(from_numpy_scalars) == scalar
    assert all(type(h) is float for h in values + from_numpy_scalars)
    assert bits(entropy_h_array(x)) == scalar
    # strided and offset views: a ufunc whose SIMD lanes round by position
    # would give an element different bits in each
    assert bits(entropy_h_array(x[::3])) == scalar[::3]
    assert bits(entropy_h_array(x[1:])) == scalar[1:]
    # NaN passes through, [1 - EPS_PHYS, 1] clamps to 0.0, above 1 is positive
    for v, h in zip(xs, values):
        assert math.isnan(h) if math.isnan(v) else (h == 0.0) == (v <= 1.0)


def test_entropy_of_inf_is_nan_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(entropy_h(math.inf))
        assert math.isnan(entropy_h(np.float64("inf")))
        assert np.isnan(entropy_h_array([math.inf])).all()
        assert np.isnan(entropy_h_array([2.0, math.inf]))[1]


def test_numpy_scalar_point_overflows_to_the_finiteness_error():
    """A numpy scalar tau is stored as a float, so its overflow raises DomainError, not a warning."""
    params = AttackParams(np.float64(0.5), 1e155, 0.0, 0.0)
    assert all(type(getattr(params, name)) is float for name in ("tau", "omega", "g", "g_prime"))
    message = (
        "noswitching rate at tau = 0.5, omega = 1e+155, (g, g') = (0.0, 0.0) is not finite: "
        "an intermediate value leaves the floating-point range"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as excinfo:
            key_rate_asymptotic(params, "noswitching")
        assert str(excinfo.value) == message
        with pytest.raises(DomainError) as excinfo:
            key_rates("noswitching", np.float64(0.5), 1e155, [0.0], [0.0])
        assert str(excinfo.value) == message
    with pytest.raises(TypeError):  # a string is not converted
        AttackParams("0.5", 2.0, 0.0, 0.0)


def test_entropy_array_names_first_unphysical_value():
    with pytest.raises(DomainError, match="eigenvalue 0.5 < 1"):
        entropy_h_array([2.0, 0.5, 0.25])


@settings(max_examples=150, deadline=None)
@given(
    variant=variants,
    tau=taus,
    omega=st.one_of(
        st.just(1.0),
        st.floats(min_value=math.log(1.0001), max_value=math.log(1e4)).map(math.exp),
    ),
    resolution=st.sampled_from([2, 3, 21]),
)
def test_verify_minimality_rows_match_scalar_rates(variant, tau, omega, resolution):
    """Every row, and the origin rate taken from the kernel call, is the scalar rate bit for bit."""
    report = verify_minimality(variant, tau, omega, resolution)
    for g, gp, rate in report.grid_rates + report.boundary_rates:
        assert rate.hex() == key_rate_asymptotic(AttackParams(tau, omega, g, gp), variant).hex()
    origin = key_rate_asymptotic(AttackParams(tau, omega, 0.0, 0.0), variant)
    assert report.origin_rate.hex() == origin.hex()
    assert report.min_over_grid == min(r for _, _, r in report.grid_rates)
