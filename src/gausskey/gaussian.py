"""Gaussian-state covariance-matrix calculus in shot-noise units.

A covariance matrix (CM) uses the interleaved quadrature ordering
(q1, p1, ..., qn, pn) and shot-noise units, i.e. the vacuum quadrature
variance is 1.  A state is physical iff every symplectic eigenvalue is
>= 1 (up to the slack ``EPS_PHYS``).

The bosonic entropy h(x) is evaluated in a form that cancels nothing at
large x.  ``entropy_h_array`` runs it in numpy ufuncs; ``entropy_h``
calls the same two logarithm ufuncs on a Python float and does the rest
in Python float arithmetic, the same IEEE operations in the same order,
so the two agree bit for bit over the whole range (the tests check up to
1e300 and inf).

The finite-modulation pipeline (``rates.key_rate_numeric``) never forms
an interleaved CM.  Its states have exactly zero q-p cross entries, so
it holds each as its n x n sectors (Q, P), lists of rows of Python
floats, through one private kernel per operation (``_qp_tmsv``, the
lossy channel ``_qp_channel``, ``_qp_heterodyne``, ``_qp_homodyne``);
no state has more than four modes, as Eve's reflected arms are never
formed.  Each kernel computes only the entries it changes and copies the
rest.  Each kernel's output is symmetric by construction, and each kernel
that forms new entries rejects non-finite ones with the ``CovMat`` text.
``_qp_mirror_spectrum`` splits the joint state into two two-mode halves;
every pipeline spectrum comes from ``_qp_spectrum``, with no ``eigh``,
``svd`` or ``solve`` and no rate formula.  The package has no dense (eigh/svd)
spectrum; ``tests/cm_reference.py`` keeps one as the tests' oracle.

Everything here is a pure function of its inputs; ``CovMat`` instances
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

# Slack on the nu >= 1 physicality checks.
EPS_PHYS = 1e-9

# Maximum tolerated asymmetry |V - V^T| of a covariance matrix.
SYMMETRY_ATOL = 1e-12

LN2 = math.log(2.0)

_NON_FINITE = "covariance matrix contains non-finite entries"

# q and p sectors: at four modes, Python lists cost less than numpy's dispatch.
Sectors = tuple[list[list[float]], list[list[float]]]


class DomainError(ValueError):
    """An input lies outside the physically meaningful domain."""


class NumericalDegeneracyError(RuntimeError):
    """A linear-algebra result is too degenerate to trust at working tolerance."""


@dataclass(frozen=True)
class CovMat:
    """Validated covariance matrix of an n-mode Gaussian state.

    The wrapped array is 2n x 2n, real and symmetric (checked to
    ``SYMMETRY_ATOL``), in (q1, p1, ..., qn, pn) ordering and shot-noise
    units.  The array is copied and frozen on construction.

    No package function takes or returns one, and ``gausskey`` does not
    export it.  It stays for the reference chain of ``tests/cm_reference.py``,
    which validates every stage with it, and for ``bench/spans.py``, which
    patches ``CovMat.__post_init__`` on every traced benchmark run.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"covariance matrix must be square, got shape {m.shape}")
        if m.shape[0] == 0 or m.shape[0] % 2:
            raise DomainError(f"covariance matrix must be 2n x 2n, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise DomainError(_NON_FINITE)
        # m - m.T is antisymmetric, so its largest entry is max |m - m.T|
        if (m - m.T).max() > SYMMETRY_ATOL:
            raise DomainError(
                f"covariance matrix is not symmetric to {SYMMETRY_ATOL:g}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def n_modes(self) -> int:
        return self.mat.shape[0] // 2


def _require_finite_rows(rows: list[list[float]]) -> None:
    """Reject a non-finite entry in any of the rows with the CovMat text."""
    # A non-finite entry makes the sum non-finite; a sum can also overflow.
    if not math.isfinite(sum(map(sum, rows))) and not all(map(math.isfinite, chain(*rows))):
        raise DomainError(_NON_FINITE)


def _check_mode(mode: int, n_modes: int) -> None:
    if not 0 <= mode < n_modes:
        raise DomainError(f"mode index {mode} out of range for {n_modes} modes")


def _qp_tmsv(mu: float) -> Sectors:
    """TMSV of local variance mu >= 1: Q = [[mu, c], [c, mu]], P with -c, c = sqrt(mu^2 - 1)."""
    if not (mu >= 1.0):
        raise DomainError(f"TMSV variance must satisfy mu >= 1, got {mu}")
    c = math.sqrt(mu * mu - 1.0)  # inf once mu*mu overflows, and whenever mu is inf
    if not math.isfinite(c):
        raise DomainError(_NON_FINITE)
    return [[mu, c], [c, mu]], [[mu, -c], [-c, mu]]


def _qp_channel(state: Sectors, modes: tuple[int, ...], env: Sectors, tau: float) -> Sectors:
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
def _retained(n_modes: int, mode: int) -> tuple[int, ...]:
    """The modes that conditioning on one mode keeps, in order; formed once per (n_modes, mode)."""
    _check_mode(mode, n_modes)
    if n_modes < 2:
        raise DomainError("conditioning needs at least one retained mode")
    return tuple(k for k in range(n_modes) if k != mode)


def _schur(x: list[list[float]], mode: int, keep: tuple[int, ...], d: float) -> list[list[float]]:
    """x on the kept modes minus the outer product of its measured column, over d."""
    col = x[mode]
    return [[x[i][j] - col[i] * col[j] / d for j in keep] for i in keep]


def _qp_heterodyne(state: Sectors, mode: int) -> Sectors:
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


def _qp_homodyne(state: Sectors, mode: int, quadrature: str) -> Sectors:
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


def _qp_spectrum(q00, q01, q11, p00, p01, p11) -> list[float]:
    """Spectrum of a two-mode state from its 2x2 q and p sectors, larger first.

    A CM with no q-p correlation is Q (+) P, and its symplectic
    eigenvalues squared are the eigenvalues of R Q R with R = P^(1/2)
    (Williamson's theorem; Weedbrook et al., Rev. Mod. Phys. 84, 621
    (2012)).  R Q R equals M Q M / (tr P + 2 sqrt(det P)) with
    M = P + sqrt(det P) I.  The larger eigenvalue comes from the trace
    plus a hypot, a sum of non-negative terms, and the smaller one from
    det Q det P over the larger (capped at the larger), so a degenerate
    pair keeps its digits; the form (t +- sqrt(t^2 - 4 det))/2 would lose
    about sqrt(eps) there.  Raises NumericalDegeneracyError unless both
    sectors are strictly positive definite and the result is finite.
    """
    det_q = q00 * q11 - q01 * q01
    det_p = p00 * p11 - p01 * p01
    big = small = math.nan
    if q00 > 0.0 and det_q > 0.0 and p00 > 0.0 and det_p > 0.0:
        root = math.sqrt(det_p)
        m00, m11 = p00 + root, p11 + root
        # rows of M Q, then M Q M
        a00, a01 = m00 * q00 + p01 * q01, m00 * q01 + p01 * q11
        a10, a11 = p01 * q00 + m11 * q01, p01 * q01 + m11 * q11
        trace = m00 + m11
        s00 = (a00 * m00 + a01 * p01) / trace
        s01 = (a00 * p01 + a01 * m11) / trace
        s11 = (a10 * p01 + a11 * m11) / trace
        big = (s00 + s11) / 2.0 + math.hypot((s00 - s11) / 2.0, s01)
        small = min(det_q * det_p / big, big)  # a degenerate pair may round above big
    if not (math.isfinite(big) and 0.0 < small < math.inf):
        raise NumericalDegeneracyError(
            "q and p sectors are not both positive definite, or their products overflow"
        )
    return [math.sqrt(big), math.sqrt(small)]


def _qp_two_mode_spectrum(state: Sectors) -> np.ndarray:
    """Symplectic spectrum of a two-mode state, descending."""
    (q00, q01), (_, q11) = state[0]
    (p00, p01), (_, p11) = state[1]
    return np.array(_qp_spectrum(q00, q01, q11, p00, p01, p11))


def _qp_mirror_spectrum(state: Sectors) -> np.ndarray:
    """Symplectic spectrum of a state of modes (a, a', B, B'), descending.

    The state must be symmetric under swapping (a, B) with (a', B'), its
    mirror entries bit-equal; anything else raises.  Balanced beam
    splitters on (a, a') and (B, B'), a passive symplectic map, send each
    sector X exactly to the halves [[X_aa +- X_aa', X_aB +- X_aB'],
    [., X_BB +- X_BB']]: their cross terms are differences of equal entries.
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
    nu = _qp_spectrum(q00 + q01, q02 + q03, q22 + q23, p00 + p01, p02 + p03, p22 + p23)
    nu += _qp_spectrum(q00 - q01, q02 - q03, q22 - q23, p00 - p01, p02 - p03, p22 - p23)
    nu.sort(reverse=True)
    return np.array(nu)


def _h_above_one(x):
    """h(x) for x > 1 (NaN passes through, inf gives NaN), free of cancellation.

    With a = (x+1)/2 and b = (x-1)/2, a log2 a - b log2 b equals
    log2(a) + b log1p(1/b)/ln 2 because a - b = 1; the second form never
    subtracts two terms of size x log2 x.
    """
    a = (x + 1.0) / 2.0
    b = (x - 1.0) / 2.0
    with np.errstate(invalid="ignore"):  # h(inf) = inf * 0 is NaN, as in entropy_h
        return np.log2(a) + b * np.log1p(1.0 / b) / LN2


def entropy_h(x: float) -> float:
    """Bosonic entropy of a symplectic eigenvalue, in bits.

    h(x) = (x+1)/2 log2 (x+1)/2 - (x-1)/2 log2 (x-1)/2, with h(1) = 0
    (the 0*log 0 convention), evaluated in the cancellation-free form of
    _h_above_one.  Values in [1 - EPS_PHYS, 1] are clamped to 1;
    anything smaller is unphysical.  The logarithms are the same numpy
    ufuncs and the rest is Python float arithmetic, the same IEEE
    operations in the same order, so entropy_h_array agrees bit for bit.
    """
    if x < 1.0 - EPS_PHYS:
        raise DomainError(f"unphysical symplectic eigenvalue {x} < 1")
    if x <= 1.0:
        return 0.0
    x = float(x)  # Python floats: h(inf) = inf * 0 is NaN, where numpy scalars would warn
    a = (x + 1.0) / 2.0
    b = (x - 1.0) / 2.0
    return float(np.log2(a)) + b * float(np.log1p(1.0 / b)) / LN2


def entropy_h_array(x) -> np.ndarray:
    """entropy_h elementwise over an array, bit for bit.

    The first element (in C order) below 1 - EPS_PHYS raises the
    DomainError that entropy_h raises for it.
    """
    x = np.asarray(x, dtype=float)
    if (x > 1.0).all():  # nothing to reject or clamp: one pass over the whole array
        return np.asarray(_h_above_one(x))
    low = x < 1.0 - EPS_PHYS
    if low.any():
        raise DomainError(f"unphysical symplectic eigenvalue {float(x[low][0])} < 1")
    out = np.zeros(x.shape)
    live = ~(x <= 1.0)  # NaN stays NaN, as in entropy_h
    out[live] = _h_above_one(x[live])
    return out
