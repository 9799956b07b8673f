"""Independent high-precision reference for the benchmark's correctness checks.

Everything here is written from the paper's formulas in mpmath and shares
no code with ``gausskey``:

* ``h`` is the bosonic entropy h(x) = (x+1)/2 log2((x+1)/2) - (x-1)/2 log2((x-1)/2);
* ``closed_rate`` is the mu-free asymptotic key rate of each protocol
  variant, assembled from h and the attack eigenvalues
  nu_pm = sqrt((omega +- g)(omega +- g'));
* ``symplectic_spectrum`` is the set of moduli of the eigenvalues of
  i*Omega*V (each symplectic eigenvalue appears as a +-pair);
* ``finite_mu_report`` runs the finite-modulation covariance-matrix
  construction (TMSV sources, beam splitters, measurement updates) at high
  precision, giving the rate the numeric pipeline converges to at each mu;
* ``hessian_at_origin`` differentiates ``closed_rate`` with ``mpmath.diff``.

The lens geometry helpers at the end are plain numpy: they enumerate which
grid and boundary points a certification pass must visit.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

VARIANTS = ("noswitching", "switching", "switching-mixed")

# Working precision of every reference evaluation (decimal digits).
DPS = 40

# A symplectic eigenvalue this far below 1 is round-off in a boundary
# sample's double-precision coordinates, not an unphysical state.
NU_SLACK = mp.mpf("1e-9")


def _working():
    """At least DPS digits, never fewer than the caller's (mpmath.diff raises them)."""
    return mp.workdps(max(DPS, mp.mp.dps))


def h(x):
    """Bosonic entropy of one symplectic eigenvalue, in bits (h(1) = 0)."""
    x = mp.mpf(x)
    if x <= 1:
        if x < 1 - NU_SLACK:
            raise ValueError(f"unphysical symplectic eigenvalue {x}")
        return mp.mpf(0)
    a = (x + 1) / 2
    b = (x - 1) / 2
    return a * mp.log(a, 2) - b * mp.log(b, 2)


def _nu_pm(omega, g, gp):
    return mp.sqrt((omega + g) * (omega + gp)), mp.sqrt((omega - g) * (omega - gp))


def closed_rate(variant: str, tau, omega, g, gp):
    """Asymptotic key rate in bits per channel use (an mpf)."""
    with _working():
        tau, omega, g, gp = (mp.mpf(v) for v in (tau, omega, g, gp))
        nu_p, nu_m = _nu_pm(omega, g, gp)
        attack_entropy = h(nu_p) + h(nu_m)
        if variant == "noswitching":
            lam = [1 + (1 - tau) * (omega + s * c) for s in (1, -1) for c in (g, gp)]
            nbar_p = mp.sqrt(lam[0] * lam[1]) / tau
            nbar_m = mp.sqrt(lam[2] * lam[3]) / tau
            den = (1 - tau) * (1 + tau + (1 - tau) * omega)
            return mp.log(2 / mp.e * tau / den, 2) + (
                h(nbar_p) + h(nbar_m) - attack_entropy
            ) / 2
        den = (1 - tau) * (tau + (1 - tau) * omega)
        if variant == "switching":
            return mp.log(mp.sqrt(nu_p * nu_m) / den, 2) / 2 - attack_entropy / 2
        if variant == "switching-mixed":
            return mp.log(omega / den, 2) / 2 - attack_entropy / 2
    raise ValueError(f"unknown variant {variant!r}")


def hessian_at_origin(variant: str, tau, omega) -> list[list[float]]:
    """Second derivatives of closed_rate in (g, g') at the origin."""
    with mp.workdps(DPS):

        def f(g, gp):
            return closed_rate(variant, tau, omega, g, gp)

        hgg = mp.diff(f, (0, 0), (2, 0))
        hgp = mp.diff(f, (0, 0), (1, 1))
        hpp = mp.diff(f, (0, 0), (0, 2))
        return [[float(hgg), float(hgp)], [float(hgp), float(hpp)]]


def _omega_form(n_modes: int) -> mp.matrix:
    out = mp.zeros(2 * n_modes, 2 * n_modes)
    for k in range(n_modes):
        out[2 * k, 2 * k + 1] = 1
        out[2 * k + 1, 2 * k] = -1
    return out


def symplectic_spectrum(V: mp.matrix) -> list:
    """Symplectic eigenvalues of V, descending: moduli of eig(i Omega V)."""
    n = V.rows // 2
    with _working():
        vals = mp.eig(mp.mpc(0, 1) * _omega_form(n) * V, left=False, right=False)
        moduli = sorted((abs(v) for v in vals), reverse=True)
    return [(moduli[2 * k] + moduli[2 * k + 1]) / 2 for k in range(n)]


def _tmsv(v) -> mp.matrix:
    c = mp.sqrt(v * v - 1)
    return mp.matrix([[v, 0, c, 0], [0, v, 0, -c], [c, 0, v, 0], [0, -c, 0, v]])


def _direct_sum(*blocks: mp.matrix) -> mp.matrix:
    size = sum(b.rows for b in blocks)
    out = mp.zeros(size, size)
    at = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[at + i, at + j] = b[i, j]
        at += b.rows
    return out


def _beamsplitter(V: mp.matrix, a: int, b: int, tau) -> mp.matrix:
    t, r = mp.sqrt(tau), mp.sqrt(1 - tau)
    S = mp.eye(V.rows)
    for k in range(2):
        S[2 * a + k, 2 * a + k] = t
        S[2 * a + k, 2 * b + k] = r
        S[2 * b + k, 2 * a + k] = -r
        S[2 * b + k, 2 * b + k] = t
    return S * V * S.T


def _submatrix(V: mp.matrix, rows: list[int], cols: list[int]) -> mp.matrix:
    out = mp.zeros(len(rows), len(cols))
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            out[i, j] = V[r, c]
    return out


def _modes(V: mp.matrix, modes) -> mp.matrix:
    idx = [i for m in modes for i in (2 * m, 2 * m + 1)]
    return _submatrix(V, idx, idx)


def _measure(V: mp.matrix, mode: int, quadrature: str | None) -> mp.matrix:
    """Condition the other modes on a heterodyne (None) or homodyne of one mode."""
    n = V.rows // 2
    keep = [i for m in range(n) if m != mode for i in (2 * m, 2 * m + 1)]
    meas = [2 * mode, 2 * mode + 1]
    A = _submatrix(V, keep, keep)
    B = _submatrix(V, keep, meas)
    C = _submatrix(V, meas, meas)
    if quadrature is None:
        return A - B * mp.inverse(C + mp.eye(2)) * B.T
    j = 0 if quadrature == "q" else 1
    col = _submatrix(B, list(range(B.rows)), [j])
    return A - col * col.T / C[j, j]


def _entropy(V: mp.matrix):
    return mp.fsum(h(nu) for nu in symplectic_spectrum(V))


def finite_mu_report(variant: str, tau, omega, g, gp, mu) -> dict:
    """Finite-modulation i_ab, holevo, rate and total spectrum, at high precision.

    Sender modes (a, a') hold one arm of a TMSV of variance mu + 1 each; the
    other arms cross beam splitters of transmissivity tau with the attack
    ancillas (local variance omega, cross block diag(g, g')).  The
    receiver keeps the transmitted arms (B, B').  Reverse reconciliation:
    the Holevo bound is S(a a') - S(a a' | B B'), and the mutual
    information reads the receiver variance off before and after the
    sender's heterodyne (no-switching) or homodyne (switching) outcome.
    """
    with _working():
        tau, omega, g, gp, mu = (mp.mpf(v) for v in (tau, omega, g, gp, mu))
        ancillas = mp.matrix(
            [
                [omega, 0, g, 0],
                [0, omega, 0, gp],
                [g, 0, omega, 0],
                [0, gp, 0, omega],
            ]
        )
        # mode order (a, A, a', A', e, E)
        src = _direct_sum(_tmsv(mu + 1), _tmsv(mu + 1), ancillas)
        mixed = _beamsplitter(_beamsplitter(src, 1, 4, tau), 3, 5, tau)
        V = _modes(mixed, (0, 2, 1, 3))  # (a, a', B, B')
        total = symplectic_spectrum(V)
        s_total = mp.fsum(h(nu) for nu in total)
        v_b = V[4, 4]
        if variant == "noswitching":
            v_b_cond = _measure(_measure(V, 0, None), 0, None)[0, 0]
            i_ab = 2 * mp.log((v_b + 1) / (v_b_cond + 1), 2)
            s_cond = _entropy(_measure(_measure(V, 3, None), 2, None))
        else:
            v_b_cond = _measure(_measure(V, 0, None), 0, None)[0, 0]
            i_ab = mp.log(v_b / v_b_cond, 2)
            if variant == "switching":
                s_cond = (
                    _entropy(_measure(_measure(V, 3, "q"), 2, "q"))
                    + _entropy(_measure(_measure(V, 3, "p"), 2, "p"))
                ) / 2
            elif variant == "switching-mixed":
                s_cond = _entropy(_measure(_measure(V, 3, "p"), 2, "q"))
            else:
                raise ValueError(f"unknown variant {variant!r}")
        holevo = s_total - s_cond
        return {
            "i_ab": i_ab,
            "holevo": holevo,
            "rate": (i_ab - holevo) / 2,
            "total_spectrum": total,
        }


# --- lens geometry (numpy) -------------------------------------------------


def lens_slack(omega: float, g, gp):
    """omega^2 + g g' - 1 - omega |g + g'|: >= 0 inside the lens, 0 on its rim."""
    g = np.asarray(g, dtype=float)
    gp = np.asarray(gp, dtype=float)
    return omega * omega + g * gp - 1.0 - omega * np.abs(g + gp)


def open_axis(omega: float, n: int) -> np.ndarray:
    """n uniformly spaced abscissae strictly inside (-omega, omega)."""
    return np.linspace(-omega, omega, n + 2)[1:-1]


def grid_axis(omega: float, resolution: int) -> np.ndarray:
    """The axis of a certification grid: open_axis with the origin snapped to 0."""
    axis = open_axis(omega, resolution)
    axis[np.abs(axis) < 1e-15 * max(1.0, omega)] = 0.0
    return axis


def expected_grid(omega: float, resolution: int, band: float):
    """Grid points that must be kept, and those that may go either way.

    A grid point whose lens slack exceeds band*max(1, omega^2) is inside by
    any reasonable tolerance and must appear; one within the band may be
    kept or dropped.  Returns (axis, must mask, may mask) over axis x axis.
    """
    axis = grid_axis(omega, resolution)
    G, GP = np.meshgrid(axis, axis, indexing="ij")
    slack = lens_slack(omega, G, GP)
    scale = band * max(1.0, omega * omega)
    must = slack > scale
    zero = np.flatnonzero(axis == 0.0)
    if zero.size:
        must[zero[0], zero[0]] = True
    may = np.abs(slack) <= scale
    return axis, must, may


def expected_boundary_count(omega: float, resolution: int, band: float) -> tuple[int, int]:
    """Range of distinct boundary samples at the axis abscissae.

    The rim crosses the vertical line at g twice when g^2 < omega^2 - 1
    and nowhere when g^2 > omega^2 - 1, so there are exactly two samples
    per abscissa strictly inside; abscissae within the band of the
    turning points may contribute zero, one or two.
    """
    axis = open_axis(omega, resolution)
    gap = omega * omega - 1.0 - axis * axis
    scale = band * max(1.0, omega * omega)
    sure = int(np.count_nonzero(gap > scale))
    unsure = int(np.count_nonzero(np.abs(gap) <= scale))
    return 2 * sure, 2 * (sure + unsure)
