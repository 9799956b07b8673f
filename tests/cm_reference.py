"""Plain reference forms of the covariance-matrix (CM) operations, and closed-form CMs.

The ``ref_*`` forms act on interleaved CMs: they index with np.ix_,
build blocks with np.block/np.eye, multiply dense matrices and rebuild
the symplectic form on every call.  The ``qp_*`` kernels act on q and p
sectors held as lists of rows, on any number of modes and any mode
index: the TMSV and attack states, the lossy channel ``qp_channel``,
heterodyne and homodyne conditioning (``qp_heterodyne``,
``qp_homodyne``), the mirror-split spectrum ``qp_mirror_spectrum``, and
``qp_joint``, the pipeline's joint state chained through them.  The
library's pipeline (``rates.key_rate_numeric``) does the same steps as
straight-line arithmetic on packed sectors of one fixed layout, and must
match this chain bit for bit.  ``qp_unpack`` spreads a packed sector
into rows (``qp_pack`` packs them), and the ``cm_*`` helpers assemble a sector kernel's output
into one interleaved CM (and split a q-p-free CM into sectors), so that
``tests/test_cm_bit_identity.py`` can hold every kernel to its
reference.  ``qp_direct_sum`` and ``qp_keep`` build product states and
select modes on q/p sectors for the reference chain.
``ref_sector_beamsplitter`` is the full beam-splitter rotation on q/p
sectors, both output arms formed: ``qp_channel`` sends a mode through a
lossy channel without forming the reflected arm, and must match the
transmitted arm of this rotation bit for bit up to the sign of a zero.
``ref_channel_entrywise`` and ``ref_condition_entrywise`` spell the
channel and the rank-one conditioning update entry by entry, every
factor applied; the kernels must match them bit for bit, signed zeros
included.  ``ref_total_cm`` chains the dense references into the joint
CM, every stage a validated ``CovMat``.  ``ref_dense_spectrum`` is the
project's only double-precision eigh/svd symplectic spectrum; the
library diagonalises q/p sectors only.

The ``closed_*`` forms are the joint and conditional CMs of the
finite-modulation pipeline written out entry by entry.  The library
builds these states only constructively (beam splitters, then
Schur-complement conditioning); these closed forms are the oracles it is
checked against.  Mode order is (a, a', B, B') for the joint CM and
(a, a') for the conditional ones.
"""

import math
from functools import lru_cache
from itertools import chain

import numpy as np

from gausskey import EPS_PHYS, DomainError, NumericalDegeneracyError, violated_constraint
from gausskey import gaussian, rates
from gausskey.gaussian import CovMat

# ------------------------------------------------------ mode-indexed kernels


def _require_finite_rows(rows):
    """Reject a non-finite entry in any of the rows with the CovMat text."""
    # A non-finite entry makes the sum non-finite; a sum can also overflow.
    if not math.isfinite(sum(map(sum, rows))) and not all(map(math.isfinite, chain(*rows))):
        raise DomainError(gaussian._NON_FINITE)


def check_mode(mode, n_modes):
    if not 0 <= mode < n_modes:
        raise DomainError(f"mode index {mode} out of range for {n_modes} modes")


def qp_tmsv(mu):
    """TMSV of local variance mu >= 1: Q = [[mu, c], [c, mu]], P with -c, c = sqrt(mu^2 - 1)."""
    if not (mu >= 1.0):
        raise DomainError(f"TMSV variance must satisfy mu >= 1, got {mu}")
    c = math.sqrt(mu * mu - 1.0)  # inf once mu*mu overflows, and whenever mu is inf
    if not math.isfinite(c):
        raise DomainError(gaussian._NON_FINITE)
    return [[mu, c], [c, mu]], [[mu, -c], [-c, mu]]


def qp_attack(omega, g, g_prime):
    """Two-mode ancilla state as q and p sectors: [[omega, g], [g, omega]], g' in p."""
    return [[omega, g], [g, omega]], [[omega, g_prime], [g_prime, omega]]


def qp_channel(state, modes, env, tau):
    """Send the listed modes through a lossy channel of transmissivity tau.

    Each listed mode meets the matching mode of env on a beam splitter and
    is replaced by its transmitted arm t*A + r*E, t = sqrt(tau) and
    r = sqrt(1-tau).  With s = t on listed modes and 1 elsewhere, entry ij
    becomes s_i*(s_j*x_ij), plus r*(r*n_kl) between listed modes.  State
    and env are uncorrelated, so these round as the full rotation's do.
    A factor 1.0 changes no bit, -0.0 included, so entries between
    unlisted modes are copied, and each other entry takes t once per
    listed index, the env term last.
    """
    t, r = math.sqrt(tau), math.sqrt(1.0 - tau)
    unlisted = [i for i in range(len(state[0])) if i not in modes]
    out = []
    for x, n in zip(state, env):
        y = x.copy()  # every row is replaced below
        for i in unlisted:
            row = y[i] = x[i].copy()
            for j in modes:
                row[j] = t * row[j]
        for i, n_row in zip(modes, n):
            row = y[i] = [t * v for v in x[i]]
            for j, n_ij in zip(modes, n_row):
                row[j] = t * row[j] + r * (r * n_ij)
        out.append(y)
    q, p = out
    _require_finite_rows([q[i] for i in modes] + [p[i] for i in modes])  # the new entries
    return q, p


@lru_cache(maxsize=256)  # errors are not cached: a bad mode raises on every call
def _retained(n_modes, mode):
    """The modes that conditioning on one mode keeps, in order; formed once per (n_modes, mode)."""
    check_mode(mode, n_modes)
    if n_modes < 2:
        raise DomainError("conditioning needs at least one retained mode")
    return tuple(k for k in range(n_modes) if k != mode)


def _schur(x, mode, keep, d):
    """x on the kept modes minus the outer product of its measured column, over d."""
    col = x[mode]
    return [[x[i][j] - col[i] * col[j] / d for j in keep] for i in keep]


def qp_heterodyne(state, mode):
    """Condition on a heterodyne measurement of one mode (the outcome does not matter).

    The Schur complement A - B (C + I)^-1 B^T on the retained modes: C is
    diagonal, so each sector X takes the rank-one update of its measured
    column over X_kk + 1.
    """
    keep = _retained(len(state[0]), mode)
    dq, dp = state[0][mode][mode] + 1.0, state[1][mode][mode] + 1.0
    if dq == 0.0 or dp == 0.0:  # impossible for a physical state
        raise NumericalDegeneracyError(
            "singular heterodyne update; measured block + I is not invertible"
        )
    q, p = _schur(state[0], mode, keep, dq), _schur(state[1], mode, keep, dp)
    _require_finite_rows(q + p)
    return q, p


def qp_homodyne(state, mode, quadrature):
    """Condition on a homodyne measurement of one quadrature of one mode.

    The measured sector takes the rank-one update of its measured column
    over that quadrature's variance; the other sector drops the mode.
    """
    if quadrature not in ("q", "p"):
        raise DomainError(f"quadrature must be 'q' or 'p', got {quadrature!r}")
    keep = _retained(len(state[0]), mode)
    j = 0 if quadrature == "q" else 1
    measured, other = state[j], state[1 - j]
    c = measured[mode][mode]
    if c < 1e-12:
        raise DomainError(
            f"degenerate homodyne measurement: {quadrature} variance {c:g} below 1e-12"
        )
    updated = _schur(measured, mode, keep, c)
    _require_finite_rows(updated)
    dropped = [[other[i][k] for k in keep] for i in keep]
    return (updated, dropped) if j == 0 else (dropped, updated)


def qp_mirror_spectrum(state):
    """Symplectic spectrum of a state of modes (a, a', B, B') held as rows, descending.

    The rows form of the mirror split in ``rates.key_rate_numeric``: the
    mirror entries must be bit-equal (the library's packed joint state
    has them so by construction and does not check), and each sector
    splits into the halves [[X_aa +- X_aa', X_aB +- X_aB'], [., X_BB +- X_BB']].
    """
    (q00, q01, q02, q03), (_, q11, q12, q13), (_, _, q22, q23), (_, _, _, q33) = state[0]
    (p00, p01, p02, p03), (_, p11, p12, p13), (_, _, p22, p23), (_, _, _, p33) = state[1]
    if not (
        q00 == q11 and q02 == q13 and q03 == q12 and q22 == q33
        and p00 == p11 and p02 == p13 and p03 == p12 and p22 == p33
    ):
        raise NumericalDegeneracyError(
            "joint state is not symmetric under swapping (a, B) with (a', B')"
        )
    nu = gaussian._qp_spectrum(q00 + q01, q02 + q03, q22 + q23, p00 + p01, p02 + p03, p22 + p23)
    nu += gaussian._qp_spectrum(q00 - q01, q02 - q03, q22 - q23, p00 - p01, p02 - p03, p22 - p23)
    nu.sort(reverse=True)
    return np.array(nu)


def qp_joint(params, mu):
    """The joint state of (a, a', B, B') as rows, through the kernels above.

    Two TMSV(mu+1) sources in mode order (a, a', A, A') send (A, A')
    through a lossy channel whose environment is the attack state.
    """
    rates._require_physical(params)
    rates._require_finite_mu(mu)
    # each sector of the source pair: the TMSV sector's entries on (a, A) and on (a', A')
    sources = tuple(
        [[x00, 0.0, x01, 0.0], [0.0, x00, 0.0, x01], [x10, 0.0, x11, 0.0], [0.0, x10, 0.0, x11]]
        for (x00, x01), (x10, x11) in qp_tmsv(mu + 1.0)
    )
    ancillas = qp_attack(params.omega, params.g, params.g_prime)
    return qp_channel(sources, (2, 3), ancillas, params.tau)


def qp_pack(rows):
    """A symmetric sector's upper triangle, column by column, as the library packs it."""
    return tuple(rows[i][j] for j in range(len(rows)) for i in range(j + 1))


def qp_unpack(x):
    """The rows of a symmetric sector packed as its upper triangle, column by column."""
    n = math.isqrt(2 * len(x))
    rows = [[0.0] * n for _ in range(n)]
    at = 0
    for j in range(n):
        for i in range(j + 1):
            rows[i][j] = rows[j][i] = x[at]
            at += 1
    return rows


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


def qp_direct_sum(*states):
    """Sectors of a product state: each sector's blocks along the diagonal."""
    zeros = [0.0] * sum([len(state[0]) for state in states])
    q, p, at = [], [], 0
    for sq, sp in states:
        end = at + len(sq)
        for u, w in zip(sq, sp):
            q.append(zeros.copy())
            p.append(zeros.copy())
            q[-1][at:end], p[-1][at:end] = u, w
        at = end
    return q, p


def qp_keep(state, modes):
    """Reduced state of the listed modes, in the order given (a permutation reorders)."""
    for mode in modes:
        check_mode(mode, len(state[0]))
    return tuple([[row[j] for j in modes] for row in [x[i] for i in modes]] for x in state)


def cm_tmsv(mu):
    return assemble_cm(qp_tmsv(mu))


def cm_attack(omega, g, g_prime):
    return assemble_cm(qp_attack(omega, g, g_prime))


def cm_direct_sum(*mats):
    return assemble_cm(qp_direct_sum(*(qp_state(m) for m in mats)))


def cm_keep_modes(m, modes):
    return assemble_cm(qp_keep(qp_state(m), modes))


def cm_channel(m, modes, env, tau):
    return assemble_cm(qp_channel(qp_state(m), modes, qp_state(env), tau))


def cm_heterodyne(m, mode):
    return assemble_cm(qp_heterodyne(qp_state(m), mode))


def cm_homodyne(m, mode, quadrature):
    return assemble_cm(qp_homodyne(qp_state(m), mode, quadrature))


def cm_joint(params, mu):
    """The pipeline's joint state of (a, a', B, B') as one interleaved CM."""
    return assemble_cm([qp_unpack(x) for x in rates._joint_qp(params, mu)])


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


def _rotate(x, a, b, t, r):
    """S x S^T for S sending row a to t*a + r*b and row b to t*b - r*a, symmetric as built."""
    xa, xb = x[a], x[b]
    ya = [t * u + r * w for u, w in zip(xa, xb)]
    yb = [t * w - r * u for u, w in zip(xa, xb)]
    ya[a], ya[b] = t * ya[a] + r * ya[b], t * ya[b] - r * ya[a]
    yb[a], yb[b] = ya[b], t * yb[b] - r * yb[a]
    out = [row.copy() for row in x]
    for row, u, w in zip(out, ya, yb):
        row[a], row[b] = u, w
    out[a], out[b] = ya, yb
    return out


def ref_sector_beamsplitter(state, mode_a, mode_b, tau):
    """Beam splitter of transmissivity tau on q/p sectors, both arms formed.

    sqrt(tau)*A + sqrt(1-tau)*B replaces mode_a and mode_b carries
    -sqrt(1-tau)*A + sqrt(tau)*B; both sectors take the same rotation.
    """
    t, r = math.sqrt(tau), math.sqrt(1.0 - tau)
    return tuple(_rotate(x, mode_a, mode_b, t, r) for x in state)


def ref_channel_entrywise(state, modes, env, tau):
    """The lossy channel entry by entry: s_i*(s_j*x_ij), plus r*(r*n_kl) between listed modes.

    s = sqrt(tau) on listed modes and 1.0 elsewhere, r = sqrt(1 - tau), and
    n_kl is the env entry of the k-th and l-th listed modes; every entry
    takes both factors, 1.0 included.
    """
    t, r = math.sqrt(tau), math.sqrt(1.0 - tau)
    n_modes = len(state[0])
    scale = [t if i in modes else 1.0 for i in range(n_modes)]
    out = []
    for x, n in zip(state, env):
        y = [[scale[i] * (scale[j] * x[i][j]) for j in range(n_modes)] for i in range(n_modes)]
        for k, i in enumerate(modes):
            for l, j in enumerate(modes):
                y[i][j] = y[i][j] + r * (r * n[k][l])
        out.append(y)
    return tuple(out)


def ref_condition_entrywise(x, mode, d):
    """One sector conditioned on one mode: x_ij - c_i*c_j/d on every other mode, c = x[mode]."""
    keep = [k for k in range(len(x)) if k != mode]
    c = [x[i][mode] for i in range(len(x))]
    return [[x[i][j] - c[i] * c[j] / d for j in keep] for i in keep]


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
