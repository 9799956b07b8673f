"""Two-mode correlated-ancilla attack model.

The eavesdropper injects, into two consecutive channel uses, a pair of
thermal ancillas with local variance omega = 2*nbar + 1 and quadrature
correlations (g, g').  The uncertainty principle restricts (g, g') to

    |g| < omega,  |g'| < omega,  omega*|g + g'| <= omega^2 + g*g' - 1,

a lens-shaped region that collapses to the origin as omega -> 1.  The
origin g = g' = 0 is the uncorrelated (single-mode collective) attack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import CovMat, DomainError

# Absolute slack on the correlation constraint and on boundary membership.
CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class AttackParams:
    """Attack point: channel transmissivity plus the ancilla state.

    tau in (0, 1]; omega >= 1.  The correlation pair (g, g_prime) is not
    validated here -- use check_constraints / violated_constraint.
    """

    tau: float
    omega: float
    g: float
    g_prime: float

    def __post_init__(self) -> None:
        for name in ("tau", "omega", "g", "g_prime"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if not 0.0 < self.tau <= 1.0:
            raise DomainError(f"transmissivity must lie in (0, 1], got {self.tau}")
        if self.omega < 1.0:
            raise DomainError(f"thermal variance must satisfy omega >= 1, got {self.omega}")


@dataclass(frozen=True)
class BoundaryCurve:
    """Sampled points saturating omega*|g + g'| = omega^2 + g*g' - 1."""

    omega: float
    samples: tuple[tuple[float, float], ...]


def attack_cm(omega: float, g: float, g_prime: float) -> CovMat:
    """Two-mode ancilla CM: diagonal blocks omega*I, cross block diag(g, g')."""
    m = np.zeros((4, 4))
    m[0, 0] = m[1, 1] = m[2, 2] = m[3, 3] = omega
    m[0, 2] = m[2, 0] = g
    m[1, 3] = m[3, 1] = g_prime
    return CovMat(m)


def lens_mask(omega: float, g, g_prime, strict: bool = False) -> np.ndarray:
    """Elementwise membership of (g, g') in the physical lens at this omega.

    Takes floats or broadcastable arrays and returns a boolean array.
    strict=False admits the boundary (within CONSTRAINT_TOL); strict=True
    keeps only the open interior.  Non-finite entries are outside.
    """
    g = np.asarray(g, dtype=float)
    g_prime = np.asarray(g_prime, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = omega * np.abs(g + g_prime)
        rhs = omega * omega + g * g_prime - 1.0
        edge = lhs < rhs - CONSTRAINT_TOL if strict else lhs <= rhs + CONSTRAINT_TOL
        return (np.abs(g) < omega) & (np.abs(g_prime) < omega) & edge


def check_constraints(params: AttackParams, strict: bool = False) -> bool:
    """True iff (g, g') is an allowed correlation pair for this omega.

    strict=False admits the boundary (within CONSTRAINT_TOL); strict=True
    keeps only the open interior.
    """
    return bool(lens_mask(params.omega, params.g, params.g_prime, strict))


def violated_constraint(params: AttackParams) -> str | None:
    """Name of the first violated constraint, or None if physical."""
    omega, g, gp = params.omega, params.g, params.g_prime
    if abs(g) >= omega:
        return f"|g| < omega (|{g}| >= {omega})"
    if abs(gp) >= omega:
        return f"|g_prime| < omega (|{gp}| >= {omega})"
    lhs = omega * abs(g + gp)
    rhs = omega * omega + g * gp - 1.0
    if lhs > rhs + CONSTRAINT_TOL:
        return (
            "omega*|g + g_prime| <= omega^2 + g*g_prime - 1 "
            f"({lhs:g} > {rhs:g})"
        )
    return None


def boundary_curve_arrays(omega: float, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the constraint boundary in the (g, g') plane, as (g, g') arrays.

    For each sign branch of |g + g'| the saturation condition is linear
    in g', so each g on a uniform open grid of (-omega, omega) yields a
    candidate g' = (omega^2 - 1 - s*omega*g) / (s*omega - g).  Candidates
    are kept only if they satisfy |g'| < omega and actually saturate the
    constraint (solving one branch can land in the other branch's sign
    region, where the candidate is spurious).  Both branches are covered;
    where both give the same point to 12 decimals, the s = -1 candidate
    stands for it.  Points are sorted by (g, g').
    """
    if omega <= 1.0:
        raise DomainError(
            f"boundary is empty: the physical region at omega = {omega} is a point"
        )
    if n_samples < 2:
        raise DomainError(f"need at least 2 samples, got {n_samples}")
    grid = np.linspace(-omega, omega, n_samples + 2)[1:-1]
    scale = max(1.0, omega * omega)
    branches = []
    for s in (1.0, -1.0):
        den = s * omega - grid
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gp = (omega * omega - 1.0 - s * omega * grid) / den
            residual = omega * np.abs(grid + gp) - (omega * omega + grid * gp - 1.0)
        keep = (
            (np.abs(den) >= 1e-12)
            & (np.abs(gp) < omega)
            & (np.abs(residual) <= CONSTRAINT_TOL * scale)
        )
        branches.append((gp, keep))
    (gp_pos, keep_pos), (gp_neg, keep_neg) = branches
    for i in np.flatnonzero(keep_pos & keep_neg).tolist():
        if round(float(gp_pos[i]), 12) == round(float(gp_neg[i]), 12):
            keep_pos[i] = False
    g = np.concatenate([grid[keep_pos], grid[keep_neg]])
    gp = np.concatenate([gp_pos[keep_pos], gp_neg[keep_neg]])
    order = np.lexsort((gp, g))
    return g[order], gp[order]


def boundary_curve(omega: float, n_samples: int) -> BoundaryCurve:
    """Boundary samples of boundary_curve_arrays as a tuple of (g, g') pairs."""
    g, gp = boundary_curve_arrays(omega, n_samples)
    return BoundaryCurve(omega=float(omega), samples=tuple(zip(g.tolist(), gp.tolist())))


def physical_grid_arrays(omega: float, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform grid over (-omega, omega)^2 filtered to the physical region.

    The grid is open at +-omega (the marginal constraints are strict
    there) and always contains the origin.  Returns the (g, g') arrays
    of the kept points, sorted by (g, g').
    """
    if resolution < 2:
        raise DomainError(f"grid resolution must be >= 2, got {resolution}")
    axis = np.linspace(-omega, omega, resolution + 2)[1:-1]
    axis[np.abs(axis) < 1e-15 * max(1.0, omega)] = 0.0
    g, gp = np.meshgrid(axis, axis, indexing="ij")  # row-major order is (g, g') order
    keep = lens_mask(omega, g, gp)
    g, gp = g[keep], gp[keep]
    if not np.any((g == 0.0) & (gp == 0.0)):
        at = int(np.count_nonzero((g < 0.0) | ((g == 0.0) & (gp < 0.0))))
        g, gp = np.insert(g, at, 0.0), np.insert(gp, at, 0.0)
    return g, gp


def physical_grid(omega: float, resolution: int) -> list[tuple[float, float]]:
    """Points of physical_grid_arrays as a sorted list of (g, g') pairs."""
    g, gp = physical_grid_arrays(omega, resolution)
    return list(zip(g.tolist(), gp.tolist()))
