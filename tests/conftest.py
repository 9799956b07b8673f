"""Shared draw helpers for the randomized suites."""

import numpy as np

from gausskey import EPS_PHYS, AttackParams, constraint_slack, lens_mask


def random_attack(
    rng: np.random.Generator,
    omega_lo: float = 1.0,
    omega_hi: float = 5.0,
    tau_lo: float = 0.05,
    tau_hi: float = 0.95,
    strict: bool = False,
) -> AttackParams:
    """Rejection-sample a physical attack point (strict: in the open interior)."""
    while True:
        omega = rng.uniform(omega_lo, omega_hi)
        params = AttackParams(
            tau=rng.uniform(tau_lo, tau_hi),
            omega=omega,
            g=rng.uniform(-omega, omega),
            g_prime=rng.uniform(-omega, omega),
        )
        g, gp = params.g, params.g_prime
        if lens_mask(omega, g, gp) and (not strict or constraint_slack(omega, g, gp) > EPS_PHYS):
            return params

