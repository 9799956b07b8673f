"""Two-mode correlated-ancilla attack model.

The eavesdropper injects, into two consecutive channel uses, a pair of
thermal ancillas with local variance omega = 2*nbar + 1 and quadrature
correlations (g, g').  The uncertainty principle restricts (g, g') to

    |g| < omega,  |g'| < omega,  omega*|g + g'| <= omega^2 + g*g' - 1,

a lens-shaped region that collapses to the origin as omega -> 1.  The
origin g = g' = 0 is the uncorrelated (single-mode collective) attack.

Inside the square the last inequality is nu_-^2 >= 1: both attack
eigenvalues, whose squares are (omega -+ g)(omega -+ g'), are at least 1.
Every membership decision goes through lens_mask, which admits
constraint_slack = nu_-^2 - 1 >= -EPS_PHYS, so the rates of every
admitted point can be evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import EPS_PHYS, DomainError

# Whole ulps a boundary sample may move into the lens before it is dropped.
# Samples need up to about n_samples/2 (at most 246 in a probe with n <= 401).
RIM_STEP_CAP = 256


@dataclass(frozen=True)
class AttackParams:
    """Attack point: channel transmissivity plus the ancilla state.

    tau in (0, 1]; omega >= 1.  The correlation pair (g, g_prime) is not
    validated here -- use lens_mask / violated_constraint.  Fields are kept
    as Python floats, which overflow to inf where numpy scalars would warn.
    """

    tau: float
    omega: float
    g: float
    g_prime: float

    def __post_init__(self) -> None:
        for name in ("tau", "omega", "g", "g_prime"):
            value = getattr(self, name)
            if not math.isfinite(value):  # TypeError for a str, which float() would parse
                raise DomainError(f"{name} must be finite")
            if type(value) is not float:
                object.__setattr__(self, name, float(value))
        _require_tau(self.tau)
        _require_omega(self.omega)


def _require_tau(tau: float) -> None:
    """The transmissivity of a lossy channel: tau in (0, 1]."""
    if not 0.0 < tau <= 1.0:
        raise DomainError(f"transmissivity must lie in (0, 1], got {tau}")


def _require_omega(omega: float) -> None:
    """The ancilla's thermal variance: omega finite and >= 1."""
    if not math.isfinite(omega):
        raise DomainError("omega must be finite")
    if omega < 1.0:
        raise DomainError(f"need omega >= 1, got {omega}")


def _require_lens_interior(omega: float) -> None:
    """omega > 1: a valid omega whose lens is more than the point (0, 0)."""
    _require_omega(omega)
    if omega == 1.0:
        raise DomainError(f"the correlation region at omega = {omega} is a point; need omega > 1")


def _require_resolution(n: int) -> None:
    if n < 2:
        raise DomainError(f"grid resolution must be >= 2, got {n}")


def _open_axis(omega: float, n: int) -> np.ndarray:
    """n uniform samples of the open interval (-omega, omega); needs n >= 2 and a valid omega."""
    _require_resolution(n)
    _require_omega(omega)
    return np.linspace(-omega, omega, n + 2)[1:-1]


def _slack(omega, g, g_prime, minimum):
    return minimum((omega - g) * (omega - g_prime), (omega + g) * (omega + g_prime)) - 1.0


def constraint_slack(omega: float, g, g_prime):
    """nu_-^2 - 1: min((omega - g)(omega - g'), (omega + g)(omega + g')) - 1, elementwise.

    Takes floats or broadcastable arrays.  The products are formed as the
    rates form nu_-^2 and nu_+^2, so the slack of a point is exactly what
    its entropies see.  Inside the square |g|, |g'| < omega the point is
    in the lens iff the slack is >= 0, and in its open interior iff > 0.
    """
    if isinstance(g, np.ndarray) or isinstance(g_prime, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):  # huge omega: the rates raise instead
            return _slack(omega, g, g_prime, np.minimum)
    # One point, as every scalar rate checks it: Python floats give the same
    # IEEE products without numpy's dispatch (about 3 us a call) and never warn.
    return _slack(float(omega), float(g), float(g_prime), min)


def lens_mask(omega: float, g, g_prime):
    """Elementwise membership of (g, g') in the physical lens at this omega.

    Takes floats or broadcastable arrays and returns booleans of their
    shape: the square |g|, |g'| < omega, and constraint_slack >= -EPS_PHYS.
    The boundary is admitted; non-finite entries are outside.
    """
    return (
        (abs(g) < omega)
        & (abs(g_prime) < omega)
        & (constraint_slack(omega, g, g_prime) >= -EPS_PHYS)
    )


def violated_constraint(params: AttackParams) -> str | None:
    """Name of the first violated constraint, or None if lens_mask admits the point."""
    omega, g, gp = params.omega, params.g, params.g_prime
    if lens_mask(omega, g, gp):
        return None
    if abs(g) >= omega:
        return f"|g| < omega (|{g}| >= {omega})"
    if abs(gp) >= omega:
        return f"|g_prime| < omega (|{gp}| >= {omega})"
    lhs = omega * abs(g + gp)  # the linear form, for the message only
    rhs = omega * omega + g * gp - 1.0
    return f"omega*|g + g_prime| <= omega^2 + g*g_prime - 1 ({lhs:g} > {rhs:g})"


def boundary_curve_arrays(omega: float, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the constraint boundary in the (g, g') plane, as (g, g') arrays.

    For each sign branch s the rim (omega - s*g)(omega - s*g') = 1 is
    linear in g', so each g on a uniform open grid of (-omega, omega)
    yields a candidate g' = (omega^2 - 1 - s*omega*g) / (s*omega - g).
    Round-off can leave a candidate just outside the lens; one on its own
    branch's side (s*(g + g') >= 0) then moves toward 0 by whole ulps
    until lens_mask admits it, at most RIM_STEP_CAP ulps.  A candidate on
    the other side solves the equation of a rim that does not bound the
    lens there and lies far outside, so it is not moved (the walk would
    only cost time).  lens_mask then decides which candidates are kept.
    Where both branches give the same point to 12 decimals, the s = -1
    candidate stands for it.  Points are sorted by (g, g').  Raises
    DomainError unless omega is finite and > 1 and n_samples >= 2.
    """
    _require_lens_interior(omega)
    grid = _open_axis(omega, n_samples)
    s = np.array([[1.0], [-1.0]])  # one row per branch
    den = s * omega - grid
    solved = np.abs(den) >= 1e-12
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gp = (omega * omega - 1.0 - s * omega * grid) / den
        own_branch = solved & (s * (grid + gp) >= 0.0)
    flat_g = np.broadcast_to(grid, gp.shape).ravel()
    flat_gp = gp.reshape(-1)  # a view: nudging flat_gp moves gp
    inside = lens_mask(omega, flat_g, flat_gp)
    stray = np.flatnonzero(own_branch.ravel() & ~inside)
    for _ in range(RIM_STEP_CAP):
        if not stray.size:
            break
        flat_gp[stray] = np.nextafter(flat_gp[stray], 0.0)
        admitted = lens_mask(omega, flat_g[stray], flat_gp[stray])
        inside[stray[admitted]] = True
        stray = stray[~admitted]
    keep = solved & inside.reshape(gp.shape)
    (gp_pos, gp_neg), (keep_pos, keep_neg) = gp, keep
    both = np.flatnonzero(keep_pos & keep_neg)
    # Values that round equal to 12 decimals lie within 2e-12*max(1, |x|) of
    # each other, so this filter leaves round() only the pairs that can match.
    a, b = gp_pos[both], gp_neg[both]
    for i in both[np.abs(a - b) <= 2e-12 * np.maximum(1.0, np.abs(a))].tolist():
        if round(float(gp_pos[i]), 12) == round(float(gp_neg[i]), 12):
            keep_pos[i] = False
    g = np.concatenate([grid[keep_pos], grid[keep_neg]])
    gp = np.concatenate([gp_pos[keep_pos], gp_neg[keep_neg]])
    order = np.lexsort((gp, g))
    return g[order], gp[order]


def physical_grid_mirror(
    omega: float, resolution: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform grid over (-omega, omega)^2 filtered to the lens, with each point's mirror.

    The grid is open at +-omega (the marginal constraints are strict
    there) and always contains the origin.  Returns the (g, g') arrays of
    the kept points, sorted by (g, g'), and for each point the index of
    (g', g).  Both coordinates run over one axis and lens_mask is
    symmetric under g <-> g', so the mirror of every kept point is kept:
    it is read off the transposed (i, j) grid of point indices.
    mirror[k] >= k exactly when g[k] <= g_prime[k]; the origin is its own
    mirror.  Raises DomainError unless resolution >= 2 and omega is finite
    and >= 1, as AttackParams requires.
    """
    axis = _open_axis(omega, resolution)
    axis[np.abs(axis) < 1e-15 * max(1.0, omega)] = 0.0
    g, gp = np.meshgrid(axis, axis, indexing="ij")  # row-major order is (g, g') order
    keep = lens_mask(omega, g, gp)
    index = np.cumsum(keep.ravel()).reshape(keep.shape) - 1  # C-order rank of each kept (i, j)
    mirror = index.T[keep]
    g, gp = g[keep], gp[keep]
    if not np.any((g == 0.0) & (gp == 0.0)):
        at = int(np.count_nonzero((g < 0.0) | ((g == 0.0) & (gp < 0.0))))
        g, gp = np.insert(g, at, 0.0), np.insert(gp, at, 0.0)
        mirror = np.insert(mirror + (mirror >= at), at, at)
    return g, gp, mirror

