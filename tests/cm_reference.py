"""Plain reference forms of the covariance-matrix (CM) operations, and closed-form CMs.

The ``ref_*`` forms act on interleaved CMs: they index with np.ix_,
build blocks with np.block/np.eye, multiply dense matrices and rebuild
the symplectic form on every call.  ``gausskey.gaussian`` instead holds
each state as its q and p sectors; the ``cm_*`` helpers below assemble
a sector kernel's output into one interleaved CM (and split a q-p-free
CM into sectors), so that ``tests/test_cm_bit_identity.py`` can hold
every kernel to its reference.  ``ref_total_cm`` chains the references
into the joint CM, every stage a validated ``CovMat``.
``ref_dense_spectrum`` is the project's only double-precision eigh/svd
symplectic spectrum; the library diagonalises q/p sectors only.

The ``closed_*`` forms are the joint and conditional CMs of the
finite-modulation pipeline written out entry by entry.  The library
builds these states only constructively (beam splitters, then
Schur-complement conditioning); these closed forms are the oracles it is
checked against.  Mode order is (a, a', B, B') for the joint CM and
(a, a') for the conditional ones.
"""

import math

import numpy as np

from gausskey import EPS_PHYS, DomainError, NumericalDegeneracyError, violated_constraint
from gausskey import gaussian, rates
from gausskey.gaussian import CovMat
from gausskey.attack import _attack_qp

# ------------------------------------------------ sectors and interleaved CMs


def assemble_cm(state):
    """The interleaved CM of a state held as its q and p sectors."""
    q, p = (np.array(x, dtype=float) for x in state)
    m = np.zeros((2 * len(q), 2 * len(q)))
    m[0::2, 0::2] = q
    m[1::2, 1::2] = p
    return m


def qp_state(m):
    """The q and p sectors of an interleaved CM with no q-p cross entries."""
    assert not m[0::2, 1::2].any(), "the CM has q-p cross entries"
    return m[0::2, 0::2].tolist(), m[1::2, 1::2].tolist()


def cm_tmsv(mu):
    return assemble_cm(gaussian._qp_tmsv(mu))


def cm_attack(omega, g, g_prime):
    return assemble_cm(_attack_qp(omega, g, g_prime))


def cm_direct_sum(*mats):
    return assemble_cm(gaussian._qp_direct_sum(*(qp_state(m) for m in mats)))


def cm_keep_modes(m, modes):
    return assemble_cm(gaussian._qp_keep(qp_state(m), modes))


def cm_beamsplitter(m, mode_a, mode_b, tau):
    return assemble_cm(gaussian._qp_beamsplitter(qp_state(m), mode_a, mode_b, tau))


def cm_heterodyne(m, mode):
    return assemble_cm(gaussian._qp_heterodyne(qp_state(m), mode))


def cm_homodyne(m, mode, quadrature):
    return assemble_cm(gaussian._qp_homodyne(qp_state(m), mode, quadrature))


def cm_joint(params, mu):
    """The pipeline's joint state of (a, a', B, B') as one interleaved CM."""
    return assemble_cm(rates._joint_qp(params, mu))


# ------------------------------------------------------------ reference forms


def ref_symplectic_form(n_modes):
    single = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = single
    return out


def ref_keep_modes(m, modes):
    idx = [i for k in modes for i in (2 * k, 2 * k + 1)]
    return m[np.ix_(idx, idx)]


def ref_split_measured(m, mode):
    n = m.shape[0] // 2
    idx = [i for k in range(n) if k != mode for i in (2 * k, 2 * k + 1)]
    midx = [2 * mode, 2 * mode + 1]
    return m[np.ix_(idx, idx)], m[np.ix_(idx, midx)], m[np.ix_(midx, midx)]


def ref_heterodyne_condition(m, mode):
    A, B, C = ref_split_measured(m, mode)
    out = A - B @ np.linalg.solve(C + np.eye(2), B.T)
    return (out + out.T) / 2.0


def ref_homodyne_condition(m, mode, quadrature):
    A, B, C = ref_split_measured(m, mode)
    j = 0 if quadrature == "q" else 1
    if C[j, j] < 1e-12:
        raise DomainError(
            f"degenerate homodyne measurement: {quadrature} variance {C[j, j]:g} below 1e-12"
        )
    b = B[:, j]
    out = A - np.outer(b, b) / C[j, j]
    return (out + out.T) / 2.0


def ref_tmsv_cm(mu):
    c = math.sqrt(mu * mu - 1.0)
    eye2 = np.eye(2)
    z = np.diag([1.0, -1.0])
    with np.errstate(invalid="ignore"):  # c = inf once mu*mu overflows: inf * 0 is NaN
        return np.block([[mu * eye2, c * z], [c * z, mu * eye2]])


def ref_direct_sum(*mats):
    out = np.zeros((sum(m.shape[0] for m in mats),) * 2)
    at = 0
    for m in mats:
        out[at : at + m.shape[0], at : at + m.shape[0]] = m
        at += m.shape[0]
    return out


def ref_attack_cm(omega, g, g_prime):
    eye2 = np.eye(2)
    G = np.diag([g, g_prime])
    return np.block([[omega * eye2, G], [G, omega * eye2]])


def ref_beamsplitter_apply(m, mode_a, mode_b, tau):
    t = math.sqrt(tau)
    r = math.sqrt(1.0 - tau)
    S = np.eye(m.shape[0])
    a, b = 2 * mode_a, 2 * mode_b
    S[a : a + 2, a : a + 2] = t * np.eye(2)
    S[a : a + 2, b : b + 2] = r * np.eye(2)
    S[b : b + 2, a : a + 2] = -r * np.eye(2)
    S[b : b + 2, b : b + 2] = t * np.eye(2)
    out = S @ m @ S.T
    return (out + out.T) / 2.0


def ref_two_mode_spectrum(m):
    """The q/p-sector route of a two-mode CM, from its 2x2 sector matrices, or None."""
    if m.shape != (4, 4) or m[0::2, 1::2].any() or m[1::2, 0::2].any():
        return None
    (q00, _), (q01, q11) = m[0::2, 0::2].tolist()
    (p00, _), (p01, p11) = m[1::2, 1::2].tolist()
    det_q = q00 * q11 - q01 * q01
    det_p = p00 * p11 - p01 * p01
    if not (q00 > 0.0 and det_q > 0.0 and p00 > 0.0 and det_p > 0.0):
        return None
    root = math.sqrt(det_p)
    M = [[p00 + root, p01], [p01, p11 + root]]
    Q = [[q00, q01], [q01, q11]]
    MQ = [[M[i][0] * Q[0][j] + M[i][1] * Q[1][j] for j in range(2)] for i in range(2)]
    trace = M[0][0] + M[1][1]
    S = [[(MQ[i][0] * M[0][j] + MQ[i][1] * M[1][j]) / trace for j in range(2)] for i in range(2)]
    big = (S[0][0] + S[1][1]) / 2.0 + math.hypot((S[0][0] - S[1][1]) / 2.0, S[0][1])
    small = min(det_q * det_p / big, big)
    if not (math.isfinite(big) and 0.0 < small < math.inf):
        return None
    return np.array([math.sqrt(big), math.sqrt(small)])


def ref_dense_spectrum(m):
    """Symplectic spectrum of any CM, descending: singular values of V^(1/2) Omega V^(1/2).

    Williamson's theorem (Weedbrook et al., Rev. Mod. Phys. 84, 621
    (2012)): each symplectic eigenvalue is a singular value taken twice.
    Raises NumericalDegeneracyError for an eigenvalue of V below
    -1e-9 max(1, w_max), or for doubled singular values that fail to pair
    up to 1e-9 max(1, sv_max).
    """
    w, U = np.linalg.eigh(m)
    if w[0] < -1e-9 * max(1.0, float(w[-1])):
        raise NumericalDegeneracyError(f"covariance matrix has negative eigenvalue {w[0]:g}")
    root = (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T
    L = root @ ref_symplectic_form(m.shape[0] // 2) @ root
    sv = np.linalg.svd(L, compute_uv=False)
    worst = np.max(np.abs(sv[0::2] - sv[1::2]))
    if worst > 1e-9 * max(1.0, sv[0]):
        raise NumericalDegeneracyError(
            "symplectic spectrum did not split into doubled singular values "
            f"(worst pair mismatch {worst:g})"
        )
    return (sv[0::2] + sv[1::2]) / 2.0


def ref_symplectic_spectrum(m):
    """The tests' dense spectrum oracle: the q/p-sector route where it applies, else eigh/svd."""
    two_mode = ref_two_mode_spectrum(m)
    return two_mode if two_mode is not None else ref_dense_spectrum(m)


def ref_is_physical(m):
    """True iff every symplectic eigenvalue of m is >= 1 - EPS_PHYS (False if degenerate)."""
    try:
        return bool(ref_symplectic_spectrum(m)[-1] >= 1.0 - EPS_PHYS)
    except NumericalDegeneracyError:
        return False


def ref_total_cm(params, mu):
    """The joint CM as validated CovMats chained through every stage."""
    violated = violated_constraint(params)
    if violated is not None:
        raise DomainError(f"unphysical attack parameters: violated {violated}")
    if not (math.isfinite(mu) and mu > 1.0):
        raise DomainError(f"modulation variance must be finite and > 1, got {mu}")
    source = CovMat(ref_tmsv_cm(mu + 1.0))
    ancilla = CovMat(ref_attack_cm(params.omega, params.g, params.g_prime))
    src = CovMat(ref_direct_sum(source.mat, source.mat, ancilla.mat))
    mixed = CovMat(ref_beamsplitter_apply(src.mat, 1, 4, params.tau))
    mixed = CovMat(ref_beamsplitter_apply(mixed.mat, 3, 5, params.tau))
    return CovMat(ref_keep_modes(mixed.mat, (0, 2, 1, 3)))


# ----------------------------------------------------------- closed-form CMs


def closed_total_cm(params, mu):
    """Joint CM of sender modes (a, a') and receiver modes (B, B').

    Closed form of the two-beam-splitter construction: sender blocks
    (mu+1)*I, receiver blocks Lambda*I, sender/receiver cross Phi*Z, and
    the attack correlations (1-tau)*diag(g, g') between B and B'.
    """
    tau, om, g, gp = params.tau, params.omega, params.g, params.g_prime
    lam = tau * (mu + 1.0) + (1.0 - tau) * om
    phi = math.sqrt(tau * ((mu + 1.0) ** 2 - 1.0))
    eye2 = np.eye(2)
    z = np.diag([1.0, -1.0])
    G = np.diag([g, gp])
    V = np.zeros((8, 8))
    V[0:2, 0:2] = (mu + 1.0) * eye2
    V[2:4, 2:4] = (mu + 1.0) * eye2
    V[4:6, 4:6] = lam * eye2
    V[6:8, 6:8] = lam * eye2
    V[0:2, 4:6] = V[4:6, 0:2] = phi * z
    V[2:4, 6:8] = V[6:8, 2:4] = phi * z
    V[4:6, 6:8] = V[6:8, 4:6] = (1.0 - tau) * G
    return V


def closed_conditional_cm_noswitching(params, mu):
    """Sender CM conditioned on heterodyne detection of both receiver modes.

    Closed form of the double Schur-complement update.  The q and p
    sectors decouple; each is a symmetric 2x2 with numerators k, k_tilde
    (q, denominator D_g) and k_prime, k_tilde_prime (p, denominator
    D_g').  The a/a' cross terms come out positive for positive
    correlations; that sign is fixed by the measurement update (its
    global flip is a spectrum-preserving reflection of one mode).
    """
    tau, om, g, gp = params.tau, params.omega, params.g, params.g_prime
    lam = tau * (mu + 1.0) + (1.0 - tau) * om
    phi2 = tau * mu * (mu + 2.0)
    d_g = (lam + 1.0) ** 2 - (1.0 - tau) ** 2 * g * g
    d_gp = (lam + 1.0) ** 2 - (1.0 - tau) ** 2 * gp * gp
    V = np.zeros((4, 4))
    V[0, 0] = V[2, 2] = ((mu + 1.0) * d_g - phi2 * (lam + 1.0)) / d_g
    V[1, 1] = V[3, 3] = ((mu + 1.0) * d_gp - phi2 * (lam + 1.0)) / d_gp
    V[0, 2] = V[2, 0] = (1.0 - tau) * g * phi2 / d_g
    V[1, 3] = V[3, 1] = (1.0 - tau) * gp * phi2 / d_gp
    return V


def closed_conditional_cm_switching(params, mu, quadratures=("q", "q")):
    """Sender CM conditioned on homodyne detection of both receiver modes.

    quadratures gives the measured quadrature of (B, B').  Matching
    quadratures leave the other sector untouched at variance mu + 1 and
    correlate the measured sector through the attack; mixed quadratures
    decouple the two senders entirely, removing every trace of (g, g').
    """
    tau, om, g, gp = params.tau, params.omega, params.g, params.g_prime
    lam = tau * (mu + 1.0) + (1.0 - tau) * om
    phi2 = tau * mu * (mu + 2.0)
    V = np.diag([mu + 1.0] * 4)
    if quadratures[0] == quadratures[1]:
        corr = g if quadratures[0] == "q" else gp
        d = lam * lam - (1.0 - tau) ** 2 * corr * corr
        j = 0 if quadratures[0] == "q" else 1
        V[j, j] = V[2 + j, 2 + j] = (mu + 1.0) - phi2 * lam / d
        V[j, 2 + j] = V[2 + j, j] = phi2 * (1.0 - tau) * corr / d
    else:
        diag = (mu + 1.0) - phi2 / lam
        j0 = 0 if quadratures[0] == "q" else 1
        j1 = 0 if quadratures[1] == "q" else 1
        V[j0, j0] = diag
        V[2 + j1, 2 + j1] = diag
    return V
