"""The finite-modulation pipeline against a 40-digit mpmath construction.

``key_rate_numeric`` holds each state as its q and p sectors and takes the
joint spectrum from two mirror halves.  The oracle here knows nothing of
either: it builds the interleaved 8x8 CM of (a, a', B, B') from two TMSVs
and the attack state with dense beam splitters S V S^T, conditions by
Schur complements with a matrix inverse, and takes every symplectic
spectrum from the Hermitian eigenproblem of i V^(1/2) Omega V^(1/2).

Errors are in units of eps*mu*omega, absolute for the rate and the
Holevo bound and relative for each symplectic eigenvalue: the CM entries
are of order mu*omega and the small eigenvalues cancel down from them, so
the pipeline's round-off scales with that product.  It also grows as
tau/(1 - tau), the factor by which det Q of a two-mode half cancels, and
as h'(nu_-) = log2((nu_- + 1)/(nu_- - 1))/2 where the smaller attack
eigenvalue nears 1; ``amplification`` is the product of the two.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausskey import AttackParams, ProtocolSpec, key_rate_numeric
from gausskey.rates import NO_SWITCHING, SWITCHING, VARIANTS

EPS = 2.0**-52
DPS = 40

# Worst errors in eps*mu*omega*amplification over 1,800 draws, 1,200 of
# test_pipeline_within_budget's domain and 600 of its corner (tau 0.8-0.95,
# omega 1.01-1.3, (g, g') at the ends of their ranges): rate 1.6, holevo
# 3.3, total spectrum 0.71, conditional spectrum 0.41.  Unscaled, the worst
# were 104, 209, 33 and 19 eps*mu*omega, all in the corner.
BUDGETS = {"rate": 8.0, "holevo": 16.0, "total_spectrum": 4.0, "conditional_spectrum": 4.0}


def _tmsv(v):
    c = mp.sqrt(v * v - 1)
    return mp.matrix([[v, 0, c, 0], [0, v, 0, -c], [c, 0, v, 0], [0, -c, 0, v]])


def _direct_sum(*blocks):
    out = mp.zeros(sum(b.rows for b in blocks))
    at = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[at + i, at + j] = b[i, j]
        at += b.rows
    return out


def _beamsplitter(V, a, b, tau):
    t, r = mp.sqrt(tau), mp.sqrt(1 - tau)
    S = mp.eye(V.rows)
    for k in range(2):
        S[2 * a + k, 2 * a + k] = S[2 * b + k, 2 * b + k] = t
        S[2 * a + k, 2 * b + k] = r
        S[2 * b + k, 2 * a + k] = -r
    return S * V * S.T


def _sub(V, rows, cols):
    return mp.matrix([[V[i, j] for j in cols] for i in rows])


def _measure(V, mode, quadrature=None):
    """The other modes conditioned on a heterodyne (None) or homodyne of one mode."""
    keep = [i for i in range(V.rows) if i // 2 != mode]
    meas = [2 * mode, 2 * mode + 1]
    A, B, C = _sub(V, keep, keep), _sub(V, keep, meas), _sub(V, meas, meas)
    if quadrature is None:
        return A - B * mp.inverse(C + mp.eye(2)) * B.T
    j = 0 if quadrature == "q" else 1
    col = _sub(B, range(B.rows), [j])
    return A - col * col.T / C[j, j]


def _spectrum(V):
    """Symplectic eigenvalues, descending: moduli of eig(i V^(1/2) Omega V^(1/2)), each twice."""
    n = V.rows // 2
    omega = mp.zeros(2 * n)
    for k in range(n):
        omega[2 * k, 2 * k + 1], omega[2 * k + 1, 2 * k] = 1, -1
    w, U = mp.eigsy(V)
    root = U * mp.diag([mp.sqrt(x) for x in w]) * U.T
    vals = mp.eighe(mp.mpc(0, 1) * root * omega * root, eigvals_only=True)
    moduli = sorted((abs(v) for v in vals), reverse=True)
    return [(moduli[2 * k] + moduli[2 * k + 1]) / 2 for k in range(n)]


def _h(x):
    if x <= 1:
        return mp.mpf(0)
    a, b = (x + 1) / 2, (x - 1) / 2
    return a * mp.log(a, 2) - b * mp.log(b, 2)


def mp_report(variant, tau, omega, g, gp, mu):
    """i_ab, holevo, rate and both spectra of the finite-modulation protocol, at 40 digits."""
    with mp.workdps(DPS):
        tau, omega, g, gp, mu = (mp.mpf(v) for v in (tau, omega, g, gp, mu))
        attack = mp.matrix(
            [[omega, 0, g, 0], [0, omega, 0, gp], [g, 0, omega, 0], [0, gp, 0, omega]]
        )
        # mode order (a, A, a', A', e, E); B, B' are the transmitted arms
        src = _direct_sum(_tmsv(mu + 1), _tmsv(mu + 1), attack)
        mixed = _beamsplitter(_beamsplitter(src, 1, 4, tau), 3, 5, tau)
        order = [i for m in (0, 2, 1, 3) for i in (2 * m, 2 * m + 1)]
        V = _sub(mixed, order, order)
        total = _spectrum(V)
        v_b, v_b_cond = V[4, 4], _measure(_measure(V, 0), 0)[0, 0]
        if variant == NO_SWITCHING:
            i_ab = 2 * mp.log((v_b + 1) / (v_b_cond + 1), 2)
            cond = [_spectrum(_measure(_measure(V, 3), 2))]
        else:
            i_ab = mp.log(v_b / v_b_cond, 2)
            quads = [("q", "q"), ("p", "p")] if variant == SWITCHING else [("p", "q")]
            cond = [_spectrum(_measure(_measure(V, 3, b), 2, a)) for b, a in quads]
        s_cond = mp.fsum(mp.fsum(_h(nu) for nu in c) for c in cond) / len(cond)
        holevo = mp.fsum(_h(nu) for nu in total) - s_cond
        return {
            "i_ab": i_ab,
            "holevo": holevo,
            "rate": (i_ab - holevo) / 2,
            "total_spectrum": total,
            "conditional_spectrum": sorted((nu for c in cond for nu in c), reverse=True),
        }


def amplification(tau, omega, g, gp):
    """max(1, tau/(1 - tau)) * max(1, h'(nu_-)) at an interior lens point."""
    nu = math.sqrt(min((omega - g) * (omega - gp), (omega + g) * (omega + gp)))
    return max(1.0, tau / (1.0 - tau)) * max(1.0, math.log2((nu + 1.0) / (nu - 1.0)) / 2.0)


def errors(variant, tau, omega, g, gp, mu):
    """Errors of rate, holevo (absolute) and both spectra (relative), in eps*mu*omega."""
    report = key_rate_numeric(AttackParams(tau, omega, g, gp), ProtocolSpec(variant, mu, False))
    exact = mp_report(variant, tau, omega, g, gp, mu)
    scale = EPS * mu * omega
    out = {k: abs(getattr(report, k) - float(exact[k])) / scale for k in ("rate", "holevo")}
    for key in ("total_spectrum", "conditional_spectrum"):
        ours = getattr(report, key).tolist()
        assert len(ours) == len(exact[key])
        out[key] = max(abs(a - float(b)) / float(b) for a, b in zip(ours, exact[key])) / scale
    return out


@st.composite
def interior_points(draw):
    """(tau, omega, g, g') with (g, g') inside the lens, clear of its rim."""
    omega = math.exp(draw(st.floats(math.log(1.01), math.log(100.0))))
    reach = math.sqrt(omega * omega - 1.0)
    g = draw(st.floats(-0.95, 0.95)) * reach
    lo, hi = -omega + 1.0 / (omega + g), omega - 1.0 / (omega - g)
    gp = lo + draw(st.floats(0.05, 0.95)) * (hi - lo)
    return draw(st.floats(0.05, 0.95)), omega, g, gp


@settings(max_examples=60, deadline=None)
@given(
    point=interior_points(),
    mu=st.floats(2.0, 8.0).map(lambda e: 10.0**e),
    variant=st.sampled_from(VARIANTS),
)
def test_pipeline_within_budget(point, mu, variant):
    scale = amplification(*point)
    worst = {k: e / scale for k, e in errors(variant, *point, mu).items()}
    assert all(worst[k] <= BUDGETS[k] for k in BUDGETS), worst


def test_switching_point_near_unit_tau_meets_the_benchmark_tolerance():
    """A tau = 0.92 point whose 8x8 eigh/svd spectrum once put the rate 2.0e-8 off."""
    tau, omega, g, gp = 0.9247662993479845, 1.229953779864637, 0.14130065735030595, 0.21511416591456367
    mu = 1e6
    report = key_rate_numeric(AttackParams(tau, omega, g, gp), ProtocolSpec(SWITCHING, mu, False))
    exact = mp_report(SWITCHING, tau, omega, g, gp, mu)
    assert abs(report.rate - float(exact["rate"])) <= 1e-12 + 1e-14 * mu * omega


def _refuse(*args, **kwargs):
    raise AssertionError("the finite-modulation pipeline called dense linear algebra")


@pytest.mark.parametrize("variant", VARIANTS)
def test_pipeline_uses_no_dense_linear_algebra(monkeypatch, variant):
    for name in ("eigh", "eigvalsh", "svd", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, _refuse)
    report = key_rate_numeric(
        AttackParams(0.44, 7.3, 0.3, -0.1), ProtocolSpec(variant, mu=1e4, asymptotic=False)
    )
    assert report.total_spectrum.shape == (4,)
    assert report.conditional_spectrum.shape == ((4,) if variant == SWITCHING else (2,))
