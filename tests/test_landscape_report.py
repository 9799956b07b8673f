"""verify_minimality's column report against the eager full-grid scan, bit for bit."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausskey import (
    DomainError,
    boundary_curve_arrays,
    key_rate_asymptotic,
    key_rates,
    verify_minimality,
)
from gausskey import landscape
from gausskey.attack import AttackParams, physical_grid_mirror
from gausskey.landscape import origin_is_strict_minimum
from gausskey.rates import VARIANTS

ROW_ATTRIBUTES = (
    "protocol", "tau", "omega", "grid_rates", "boundary_rates", "origin_rate",
    "min_over_grid", "verdict", "degenerate", "near_origin_flags",
)


def eager_verify_minimality(protocol, tau, omega, resolution):
    """The full-grid scan that builds every row tuple up front, as a dict of attributes."""
    if omega < 1.0:
        raise DomainError(f"need omega >= 1, got {omega}")
    origin_rate = key_rate_asymptotic(AttackParams(tau, omega, 0.0, 0.0), protocol)
    if omega == 1.0:
        return dict(
            protocol=protocol, tau=tau, omega=omega, grid_rates=((0.0, 0.0, origin_rate),),
            boundary_rates=(), origin_rate=origin_rate, min_over_grid=origin_rate,
            verdict=True, degenerate=True, near_origin_flags=(),
        )
    grid_g, grid_gp = physical_grid_mirror(omega, resolution)[:2]
    edge_g, edge_gp = boundary_curve_arrays(omega, resolution)
    g = np.concatenate([grid_g, edge_g])
    gp = np.concatenate([grid_gp, edge_gp])
    rates = key_rates(protocol, tau, omega, g, gp)
    n_grid = grid_g.size
    flagged = ((g != 0.0) | (gp != 0.0)) & (rates - origin_rate < 1e-9)

    def rows(*columns):
        return tuple(zip(*(column.tolist() for column in columns)))

    return dict(
        protocol=protocol, tau=tau, omega=omega,
        grid_rates=rows(grid_g, grid_gp, rates[:n_grid]),
        boundary_rates=rows(edge_g, edge_gp, rates[n_grid:]),
        origin_rate=origin_rate, min_over_grid=float(rates[:n_grid].min()),
        verdict=origin_is_strict_minimum(g, gp, rates, origin_rate),
        degenerate=False, near_origin_flags=rows(g[flagged], gp[flagged], rates[flagged]),
    )


def bits(value):
    """A form of value that is equal exactly when every bit is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return (type(value).__name__, value)


def outcome(fn, *args):
    try:
        report = fn(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"
    if isinstance(report, dict):
        return {name: bits(report[name]) for name in ROW_ATTRIBUTES}
    return {name: bits(getattr(report, name)) for name in ROW_ATTRIBUTES}


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    tau=st.floats(min_value=0.01, max_value=0.99),
    omega=st.floats(min_value=1.0, max_value=1e3, exclude_min=True),
    resolution=st.integers(min_value=2, max_value=201),
)
def test_report_equals_eager_full_scan(variant, tau, omega, resolution):
    args = (variant, tau, omega, resolution)
    assert outcome(verify_minimality, *args) == outcome(eager_verify_minimality, *args)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("omega, resolution", [(1.0, 101), (1.2, 100), (7.0, 101), (1.0001, 2)])
def test_columns_hold_the_rows(variant, omega, resolution):
    report = verify_minimality(variant, 0.44, omega, resolution)
    rows = report.grid_rates + report.boundary_rates
    assert len(rows) == report.g.size == report.g_prime.size == report.rate.size
    assert len(report.grid_rates) == report.n_grid
    assert rows == tuple(zip(report.g.tolist(), report.g_prime.tolist(), report.rate.tolist()))
    assert report.near_origin.dtype == bool and report.near_origin.shape == report.g.shape
    assert report.near_origin_flags == tuple(
        row for row, near in zip(rows, report.near_origin.tolist()) if near
    )


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("omega", [1e4, 1.3e154])
@pytest.mark.parametrize("resolution", [100, 101])
def test_error_text_unchanged(variant, omega, resolution):
    """At 1.3e154 both scans raise the same error; at 1e4, where boundary samples are
    rounded into the lens, both return the same report, bit for bit."""
    args = (variant, 0.44, omega, resolution)
    got = outcome(verify_minimality, *args)
    assert isinstance(got, str if omega > 1e100 else dict)
    assert got == outcome(eager_verify_minimality, *args)


def test_failing_pair_raises_for_its_first_point(monkeypatch):
    """A point fails exactly when its mirror does; the error names the one first in C order."""
    g, gp = physical_grid_mirror(1.2, 21)[:2]
    k = int(np.flatnonzero((g < gp) & (g != 0.0) & (gp != 0.0))[len(g) // 4])
    first, second = (g[k].item(), gp[k].item()), (gp[k].item(), g[k].item())
    honest = landscape.key_rates

    def failing(variant, tau, omega, g, g_prime):
        for point in zip(np.ravel(g).tolist(), np.ravel(g_prime).tolist()):
            if point in (first, second):
                raise DomainError(f"rate fails at {point!r}")
        return honest(variant, tau, omega, g, g_prime)

    monkeypatch.setattr(landscape, "key_rates", failing)
    with pytest.raises(DomainError, match=re.escape(f"rate fails at {first!r}")):
        verify_minimality("noswitching", 0.44, 1.2, 21)


def test_rows_built_once():
    report = verify_minimality("noswitching", 0.44, 1.2, 21)
    for name in ("grid_rates", "boundary_rates", "near_origin_flags"):
        assert getattr(report, name) is getattr(report, name)


@pytest.mark.parametrize("omega", [1.0, 1.2])
def test_columns_are_read_only(omega):
    report = verify_minimality("switching", 0.44, omega, 21)
    for column in (report.g, report.g_prime, report.rate, report.on_boundary, report.near_origin):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = column[0]


def test_reports_compare_by_identity():
    first = verify_minimality("switching", 0.44, 1.2, 21)
    second = verify_minimality("switching", 0.44, 1.2, 21)
    assert first == first and first != second


@settings(max_examples=60, deadline=None)
@given(
    omega=st.floats(min_value=1.0, max_value=1e12, exclude_min=True),
    resolution=st.integers(min_value=2, max_value=201),
)
def test_grid_mirror_indexes_the_swapped_point(omega, resolution):
    g, gp, mirror = physical_grid_mirror(omega, resolution)
    assert g[mirror].tobytes() == gp.tobytes() and gp[mirror].tobytes() == g.tobytes()
    assert np.array_equal(mirror[mirror], np.arange(g.size))
    assert np.array_equal(mirror >= np.arange(g.size), g <= gp)
