"""Critical-point and minimality analysis of the rate over the (g, g') plane.

For every protocol variant the key rate, seen as a function of the
attack correlations at fixed (tau, omega), has a single critical point
at the origin, and the origin is its strict global minimum: correlating
the ancillas always helps the communicating parties.  This module
certifies that claim three ways -- finite-difference gradients and
Hessians, closed-form Hessian data re-derived from the rate formulas,
and exhaustive grid plus boundary scans.

The closed forms here were obtained by differentiating the asymptotic
rate expressions directly and are validated against central differences
at ~1e-9 relative accuracy in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .attack import AttackParams, boundary_curve_arrays, constraint_slack, physical_grid_mirror
from .attack import _require_lens_interior, _require_omega, _require_resolution, _require_tau
from .gaussian import EPS_PHYS, LN2, DomainError, NumericalDegeneracyError
from .rates import NO_SWITCHING, SWITCHING, SWITCHING_MIXED, key_rate_asymptotic, key_rates
from .rates import _receiver, _require_open_tau

# Central-difference steps, scaled by max(1, omega) at use sites.  The
# Hessian step additionally shrinks near omega = 1, where the fourth
# derivative of the entropy terms grows like (omega^2-1)^-3 and a fixed
# 1e-4 step would lose the 1e-4 relative agreement with the closed forms.
GRADIENT_STEP = 1e-5
HESSIAN_STEP = 1e-4

# Tau bracket and |rate| stopping tolerance of find_zero_rate_transmissivity.
ZERO_RATE_BRACKET = (1e-3, 0.999)
ZERO_RATE_TOL = 1e-10

RateFn = Callable[[float, float], float]


@dataclass(frozen=True)
class CriticalPointReport:
    """Origin diagnostics: gradient, Hessian, determinants, verdict."""

    protocol: str
    tau: float
    omega: float
    gradient_at_origin: tuple[float, float]
    hessian_at_origin: np.ndarray
    det_h: float
    analytic_det_h: float
    is_minimum: bool


@dataclass(frozen=True, eq=False)
class LandscapeReport:
    """Grid/boundary scan of the rate against the origin value, kept as columns.

    g, g_prime and rate are read-only arrays of every sampled point: the
    n_grid grid points, sorted by (g, g'), then the boundary samples.  A
    grid point may equal a boundary sample; both are kept.  on_boundary
    marks every boundary sample and each grid point outside the open
    interior (constraint_slack <= EPS_PHYS).  near_origin marks the
    nonzero points within 1e-9 of the origin rate, for manual review.
    verdict is True iff every nonzero sampled point rates strictly above
    the origin; degenerate marks omega = 1, where the region is the
    single point (0, 0).

    The row views grid_rates, boundary_rates and near_origin_flags are
    tuples of (g, g', rate) float triples, built on first read and cached:
    the roughly 10,000 rows of resolution 101 cost more to build than to
    evaluate, so a caller that needs only the verdict does not pay for
    them.  Reports compare by identity (eq=False), since == on the array
    fields has no single truth value.
    """

    protocol: str
    tau: float
    omega: float
    g: np.ndarray
    g_prime: np.ndarray
    rate: np.ndarray
    n_grid: int
    on_boundary: np.ndarray
    near_origin: np.ndarray
    origin_rate: float
    min_over_grid: float
    verdict: bool
    degenerate: bool

    @cached_property
    def grid_rates(self) -> tuple[tuple[float, float, float], ...]:
        grid = slice(None, self.n_grid)
        return _rows(self.g[grid], self.g_prime[grid], self.rate[grid])

    @cached_property
    def boundary_rates(self) -> tuple[tuple[float, float, float], ...]:
        edge = slice(self.n_grid, None)
        return _rows(self.g[edge], self.g_prime[edge], self.rate[edge])

    @cached_property
    def near_origin_flags(self) -> tuple[tuple[float, float, float], ...]:
        flagged = self.near_origin
        return _rows(self.g[flagged], self.g_prime[flagged], self.rate[flagged])


def f_log(x: float) -> float:
    """ln((1+x)/(1-x)) on (0, 1); strictly positive, ~2x near 0."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"f_log needs 0 < x < 1, got {x}")
    return math.log((1.0 + x) / (1.0 - x))


def rate_function(protocol: str, tau: float, omega: float) -> RateFn:
    """Closed-form asymptotic rate as a function of (g, g') alone."""

    def rate(g: float, g_prime: float) -> float:
        return key_rate_asymptotic(
            AttackParams(tau=tau, omega=omega, g=g, g_prime=g_prime), protocol
        )

    return rate


def finite_diff_gradient(
    rate_fn: RateFn, g: float, g_prime: float, step: float
) -> tuple[float, float]:
    """Central-difference gradient of the rate at an interior point."""
    try:
        d_g = (rate_fn(g + step, g_prime) - rate_fn(g - step, g_prime)) / (2.0 * step)
        d_gp = (rate_fn(g, g_prime + step) - rate_fn(g, g_prime - step)) / (2.0 * step)
    except DomainError as exc:
        raise DomainError(
            f"finite-difference stencil at ({g}, {g_prime}) with step {step} "
            "leaves the physical region"
        ) from exc
    return d_g, d_gp


def hessian_at_origin(rate_fn: RateFn, omega: float) -> np.ndarray:
    """Central second differences of the rate at (0, 0), symmetric 2x2."""
    _require_lens_interior(omega)
    h = min(HESSIAN_STEP * max(1.0, omega), 1e-3 * (omega * omega - 1.0))
    r0 = rate_fn(0.0, 0.0)
    d2_g = (rate_fn(h, 0.0) - 2.0 * r0 + rate_fn(-h, 0.0)) / (h * h)
    d2_gp = (rate_fn(0.0, h) - 2.0 * r0 + rate_fn(0.0, -h)) / (h * h)
    cross = (
        rate_fn(h, h) - rate_fn(h, -h) - rate_fn(-h, h) + rate_fn(-h, -h)
    ) / (4.0 * h * h)
    return np.array([[d2_g, cross], [cross, d2_gp]])


def analytic_detH_noswitching(tau: float, omega: float) -> float:
    """Closed-form Hessian determinant of the no-switching rate at the origin.

    det H = [tau*lb*f(1/omega) - omega*(1-tau)^2*f(tau/lb)]
            / (4 tau lb omega (omega^2-1)(lb+tau) ln^2 2),
    lb = 1 + omega(1-tau).  Positive for every 0 < tau < 1, omega > 1:
    the first bracket term dominates because f(x)/x increases.
    """
    _require_open_tau(tau)
    _require_lens_interior(omega)
    lb = 1.0 + omega * (1.0 - tau)
    num = tau * lb * f_log(1.0 / omega) - omega * (1.0 - tau) ** 2 * f_log(tau / lb)
    return num / (4.0 * tau * lb * omega * (omega * omega - 1.0) * (lb + tau) * LN2 * LN2)


def analytic_detH_switching(omega: float) -> float:
    """Closed-form Hessian determinant of the switching rate at the origin.

    (omega^2+1)(omega f(1/omega) - 1) / (16 omega^4 (omega^2-1) ln^2 2);
    positive for all omega > 1 because f(1/omega) > 1/omega.
    """
    _require_lens_interior(omega)
    f = f_log(1.0 / omega)
    return (
        (omega * omega + 1.0)
        * (omega * f - 1.0)
        / (16.0 * omega**4 * (omega * omega - 1.0) * LN2 * LN2)
    )


def analytic_detH_switching_mixed(omega: float) -> float:
    """Hessian determinant of the mixed-quadrature switching rate at the origin.

    f(1/omega) / (8 omega (omega^2 - 1) ln^2 2): the diagonal and cross
    entries share the term 1/(4(omega^2-1)), so the determinant factors
    into their sum 1/(2(omega^2-1)) times their difference f/(4 omega).
    """
    _require_lens_interior(omega)
    return f_log(1.0 / omega) / (
        8.0 * omega * (omega * omega - 1.0) * LN2 * LN2
    )


def analytic_second_derivs_switching(omega: float) -> tuple[float, float]:
    """Closed-form (d2/dg2, d2/dg dg') of the switching rate at the origin.

    Equal diagonal entries [1/(4 omega^2 (omega^2-1)) + f(1/omega)/(8 omega)]/ln 2
    and cross entry [1/(4 (omega^2-1)) - f(1/omega)/(8 omega)]/ln 2;
    both tau-free.
    """
    _require_lens_interior(omega)
    f = f_log(1.0 / omega)
    same = (1.0 / (4.0 * omega * omega * (omega * omega - 1.0)) + f / (8.0 * omega)) / LN2
    cross = (1.0 / (4.0 * (omega * omega - 1.0)) - f / (8.0 * omega)) / LN2
    return same, cross


def second_derivative_inequality_noswitching(tau: float, omega: float) -> bool:
    """Check d2R/dg2 > 1/(2(tau+lb)(omega^2-1) ln 2) > 0 at the origin.

    The closed-form second derivative splits into that positive leading
    term plus f(1/omega)/(8 omega) - (1-tau)^2 f(tau/lb)/(8 tau lb), and
    the split remainder is itself positive, giving the chain.
    """
    _require_lens_interior(omega)
    _require_tau(tau)
    lb = 1.0 + omega * (1.0 - tau)
    lead = 1.0 / (2.0 * (tau + lb) * (omega * omega - 1.0))
    if tau == 1.0:
        remainder = f_log(1.0 / omega) / (8.0 * omega)  # (1-tau)^2 term vanishes
    else:
        remainder = f_log(1.0 / omega) / (8.0 * omega) - (1.0 - tau) ** 2 * f_log(
            tau / lb
        ) / (8.0 * tau * lb)
    d2 = (lead + remainder) / LN2
    return d2 > lead / LN2 > 0.0


_ANALYTIC_DET = {
    NO_SWITCHING: lambda tau, omega: analytic_detH_noswitching(tau, omega),
    SWITCHING: lambda tau, omega: analytic_detH_switching(omega),
    SWITCHING_MIXED: lambda tau, omega: analytic_detH_switching_mixed(omega),
}


def critical_point_report(protocol: str, tau: float, omega: float) -> CriticalPointReport:
    """Assemble gradient/Hessian diagnostics of the rate at the origin.

    Both difference steps follow from omega alone (GRADIENT_STEP scaled
    by max(1, omega), and the Hessian step of hessian_at_origin), so no
    caller can change the is_minimum verdict by choosing a step.

    Raises DomainError where the closed-form determinant cannot be
    represented (it cancels to 0 or overflows at very large omega).
    """
    _require_open_tau(tau)
    _require_lens_interior(omega)
    _receiver(protocol)
    rate_fn = rate_function(protocol, tau, omega)
    grad = finite_diff_gradient(rate_fn, 0.0, 0.0, GRADIENT_STEP * max(1.0, omega))
    hess = hessian_at_origin(rate_fn, omega)
    det_h = float(np.linalg.det(hess))
    try:
        analytic_det_h = _ANALYTIC_DET[protocol](tau, omega)
    except OverflowError:  # omega**4 of the switching form
        analytic_det_h = math.inf
    if not 0.0 < analytic_det_h < math.inf:  # positive for every omega > 1
        raise DomainError(
            f"closed-form Hessian determinant at tau = {tau}, omega = {omega} is "
            f"{analytic_det_h} in floating point; its true value is positive"
        )
    return CriticalPointReport(
        protocol=protocol,
        tau=tau,
        omega=omega,
        gradient_at_origin=grad,
        hessian_at_origin=hess,
        det_h=det_h,
        analytic_det_h=analytic_det_h,
        is_minimum=bool(det_h > 0.0 and hess[0, 0] > 0.0),
    )


def origin_is_strict_minimum(
    g: np.ndarray, g_prime: np.ndarray, rates: np.ndarray, origin_rate: float
) -> bool:
    """True iff every sampled point other than the origin rates strictly above origin_rate."""
    off_origin = (g != 0.0) | (g_prime != 0.0)
    return bool(np.all(rates[off_origin] - origin_rate > 0.0))


def _rows(*columns: np.ndarray) -> tuple[tuple[float, ...], ...]:
    return tuple(zip(*(column.tolist() for column in columns)))


def verify_minimality(
    protocol: str, tau: float, omega: float, resolution: int, mu: float | None = None
) -> LandscapeReport:
    """Scan the physical region and its boundary against the origin rate.

    The verdict is True iff every nonzero grid and boundary point rates
    strictly above the origin.  At omega = 1 the region is {(0, 0)} and
    the verdict holds trivially.  mu None takes the closed-form rates; a
    finite mu takes key_rate_numeric's, through key_rates(..., mu=mu).

    The closed-form rate is symmetric under g <-> g' bit for bit (the
    closed forms use g and g' only through commutative sums, products,
    max and min), and so is the grid, so with mu None the kernel
    evaluates each mirrored grid pair once, at its g <= g' point, plus
    the boundary, and copies the rate to the mirror.  The g <= g' point
    of a pair comes first in C order, so a failing point raises the same
    DomainError as a full scan would.  The covariance-matrix pipeline is
    not bit-symmetric, so a finite mu evaluates every point, grid and
    boundary merged in (g, g') order, and the first failing point in that
    order raises.  The report keeps the columns; its row tuples are built
    only when read.  At resolution 101 (about 10,000 points) a
    closed-form call takes about 1.6 ms (0.4-2.6 ms over random
    (tau, omega)) on one core of a 2-vCPU x86 host, about half of it in
    key_rates; reading all three row views adds about 3 ms.
    """
    _require_resolution(resolution)
    _require_omega(omega)
    if omega == 1.0:
        grid_g, grid_gp, mirror = np.zeros(1), np.zeros(1), np.zeros(1, dtype=np.intp)
        edge_g = edge_gp = np.zeros(0)
    else:
        grid_g, grid_gp, mirror = physical_grid_mirror(omega, resolution)
        edge_g, edge_gp = boundary_curve_arrays(omega, resolution)
    n_grid = grid_g.size
    g = np.concatenate([grid_g, edge_g])
    gp = np.concatenate([grid_gp, edge_gp])
    on_boundary = np.concatenate(
        [constraint_slack(omega, grid_g, grid_gp) <= EPS_PHYS, np.ones(edge_g.size, dtype=bool)]
    )
    if mu is None:
        origin_rate = rate_function(protocol, tau, omega)(0.0, 0.0)
        first = np.flatnonzero(mirror >= np.arange(n_grid))  # the g <= g' point of each pair
        first_rates = key_rates(
            protocol,
            tau,
            omega,
            np.concatenate([grid_g[first], edge_g]),
            np.concatenate([grid_gp[first], edge_gp]),
        )
        rates = np.empty(g.size)
        rates[first] = rates[mirror[first]] = first_rates[: first.size]
        rates[n_grid:] = first_rates[first.size :]
    else:
        order = np.lexsort((gp, g))
        rates = np.empty(g.size)
        rates[order] = key_rates(protocol, tau, omega, g[order], gp[order], mu=mu)
        origin_rate = float(rates[np.flatnonzero((g == 0.0) & (gp == 0.0))[0]])
    flagged = ((g != 0.0) | (gp != 0.0)) & (rates - origin_rate < 1e-9)
    for column in (g, gp, rates, on_boundary, flagged):
        column.flags.writeable = False
    return LandscapeReport(
        protocol=protocol,
        tau=tau,
        omega=omega,
        g=g,
        g_prime=gp,
        rate=rates,
        n_grid=n_grid,
        on_boundary=on_boundary,
        near_origin=flagged,
        origin_rate=origin_rate,
        min_over_grid=float(rates[:n_grid].min()),
        verdict=origin_is_strict_minimum(g, gp, rates, origin_rate),
        degenerate=omega == 1.0,
    )


def find_zero_rate_transmissivity(protocol: str, omega: float) -> float:
    """Bisect tau over ZERO_RATE_BRACKET for the zero of the uncorrelated-attack rate.

    Stops at the first midpoint whose |rate| is below ZERO_RATE_TOL.
    Raises DomainError when the rate does not change sign on the
    bracket (e.g. pure loss, omega = 1, where the rate stays positive).
    """
    lo, hi = ZERO_RATE_BRACKET

    def rate_at(tau: float) -> float:
        return key_rate_asymptotic(
            AttackParams(tau=tau, omega=omega, g=0.0, g_prime=0.0), protocol
        )

    r_lo, r_hi = rate_at(lo), rate_at(hi)
    if r_lo == 0.0:
        return lo
    if r_hi == 0.0:
        return hi
    if math.copysign(1.0, r_lo) == math.copysign(1.0, r_hi):
        raise DomainError(
            f"rate does not change sign on tau in {ZERO_RATE_BRACKET} at omega = {omega}; "
            "no zero-rate transmissivity exists there"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r_mid = rate_at(mid)
        if abs(r_mid) < ZERO_RATE_TOL:
            return mid
        if math.copysign(1.0, r_mid) == math.copysign(1.0, r_lo):
            lo, r_lo = mid, r_mid
        else:
            hi = mid
    raise NumericalDegeneracyError(  # pragma: no cover - bisection always converges above
        "bisection failed to reach tolerance"
    )
