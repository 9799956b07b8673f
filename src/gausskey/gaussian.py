"""Gaussian-state covariance-matrix calculus in shot-noise units.

All covariance matrices (CMs) use the interleaved quadrature ordering
(q1, p1, ..., qn, pn) and shot-noise units, i.e. the vacuum quadrature
variance is 1.  A state is physical iff every symplectic eigenvalue is
>= 1 (up to the slack ``EPS_PHYS``).

The bosonic entropy h(x) is evaluated in a form that cancels nothing at
large x, in numpy ufuncs only; ``entropy_h`` (floats) and
``entropy_h_array`` (arrays) share that one expression and so agree bit
for bit.

Each CM operation is one private function on plain ``ndarray``s
(``_tmsv``, ``_direct_sum``, ``_keep_modes``, ``_beamsplitter``,
``_heterodyne``, ``_homodyne``, ``_symplectic_spectrum``), and the
finite-modulation pipeline (``rates.key_rate_numeric``) chains them
directly.  Every kernel output is symmetric by construction, and each
kernel that forms new entries rejects non-finite ones with the
``CovMat`` text.  All other checks -- input validation, the homodyne
variance floor, the spectrum's eigenvalue and pairing checks, and
``entropy_h``'s domain -- live in the kernels.

``CovMat`` is the validated type of a CM that a caller supplies: it
checks shape, finiteness and symmetry, and freezes a copy.  The public
functions that take a state (``symplectic_spectrum``, ``is_physical``)
take a ``CovMat``; no public function returns one.

Symplectic spectra take one of two routes behind ``_symplectic_spectrum``:
a two-mode CM with no q-p correlation and positive-definite sectors (every
conditional state of the finite-modulation pipeline) is diagonalised from
its 2x2 q and p sectors in closed arithmetic; every other CM goes through
``eigh`` and ``svd``.  Both are constructive: neither uses a rate formula.

Everything here is a pure function of its inputs; ``CovMat`` instances
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Slack on the nu >= 1 physicality checks.
EPS_PHYS = 1e-9

# Maximum tolerated asymmetry |V - V^T| of a covariance matrix.
SYMMETRY_ATOL = 1e-12

# Relative tolerance for negative-eigenvalue residue and for the pairing
# of doubled singular values in the symplectic spectrum.
DEGENERACY_RTOL = 1e-9

LN2 = math.log(2.0)

_EYE2 = np.eye(2)
_EYE2.setflags(write=False)


class DomainError(ValueError):
    """An input lies outside the physically meaningful domain."""


class NumericalDegeneracyError(RuntimeError):
    """A linear-algebra result is too degenerate to trust at working tolerance."""


def _require_finite(m: np.ndarray) -> np.ndarray:
    """m itself, once every entry is finite."""
    if not np.isfinite(m).all():
        raise DomainError("covariance matrix contains non-finite entries")
    return m


@dataclass(frozen=True)
class CovMat:
    """Covariance matrix of an n-mode Gaussian state, as a caller supplies it.

    The wrapped array is 2n x 2n, real and symmetric (checked to
    ``SYMMETRY_ATOL``), in (q1, p1, ..., qn, pn) ordering and shot-noise
    units.  The array is copied and frozen on construction.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"covariance matrix must be square, got shape {m.shape}")
        if m.shape[0] == 0 or m.shape[0] % 2:
            raise DomainError(f"covariance matrix must be 2n x 2n, got shape {m.shape}")
        _require_finite(m)
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


def symplectic_form(n_modes: int) -> np.ndarray:
    """Direct sum of n copies of [[0, 1], [-1, 0]]."""
    if n_modes < 1:
        raise DomainError("need at least one mode")
    single = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = single
    return out


@functools.lru_cache(maxsize=16)
def _frozen_symplectic_form(n_modes: int) -> np.ndarray:
    out = symplectic_form(n_modes)
    out.setflags(write=False)
    return out


def _direct_sum(*mats: np.ndarray) -> np.ndarray:
    """Covariance matrix of a product state: the blocks along the diagonal."""
    dims = [m.shape[0] for m in mats]
    out = np.zeros((sum(dims), sum(dims)))
    at = 0
    for m, d in zip(mats, dims):
        out[at : at + d, at : at + d] = m
        at += d
    return out


@functools.lru_cache(maxsize=256)
def _block_index(n_modes: int, modes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Flat take-indices into a 2n x 2n CM for the listed modes and the rest.

    Returns the (listed, listed), (rest, rest) and (rest, listed) blocks,
    listed modes in the order given, the rest in ascending order; each
    ``mat.take(index)`` equals the matching ``mat[np.ix_(rows, cols)]``.
    A mode index outside range(n_modes) raises DomainError (never cached).
    """
    for m in modes:
        if not 0 <= m < n_modes:
            raise DomainError(f"mode index {m} out of range for {n_modes} modes")
    rest = [m for m in range(n_modes) if m not in modes]
    listed = np.array([i for m in modes for i in (2 * m, 2 * m + 1)], dtype=np.intp)
    others = np.array([i for m in rest for i in (2 * m, 2 * m + 1)], dtype=np.intp)
    width = 2 * n_modes
    blocks = tuple(
        rows[:, None] * width + cols
        for rows, cols in ((listed, listed), (others, others), (others, listed))
    )
    for block in blocks:
        block.setflags(write=False)
    return blocks


def _keep_modes(m: np.ndarray, modes: tuple[int, ...] | list[int]) -> np.ndarray:
    """Reduced covariance matrix of the listed modes, in the order given.

    Doubles as the canonical mode-permutation helper: passing a
    permutation of range(n) reorders the modes.
    """
    return m.take(_block_index(m.shape[0] // 2, tuple(modes))[0])


def _tmsv(mu: float) -> np.ndarray:
    """Two-mode squeezed vacuum CM with local variance mu >= 1.

    Diagonal blocks mu*I, off-diagonal blocks sqrt(mu^2-1)*Z with
    Z = diag(1, -1); mu = 1 is vacuum (x) vacuum.
    """
    if not (mu >= 1.0):
        raise DomainError(f"TMSV variance must satisfy mu >= 1, got {mu}")
    c = math.sqrt(mu * mu - 1.0)  # inf once mu*mu overflows
    m = np.zeros((4, 4))
    m[0, 0] = m[1, 1] = m[2, 2] = m[3, 3] = mu
    m[0, 2] = m[2, 0] = c
    m[1, 3] = m[3, 1] = -c
    return _require_finite(m)


# Flat indices of the q-p cross entries of a 4x4 CM, both triangles.
_QP_CROSS_4 = (1, 3, 4, 6, 9, 11, 12, 14)


def _two_mode_qp_spectrum(m: np.ndarray) -> np.ndarray | None:
    """Spectrum of a 4x4 CM whose q-p cross entries are all exactly 0, or None.

    Such a CM is Q (+) P with Q, P the 2x2 q and p sectors, and its
    symplectic eigenvalues squared are the eigenvalues of R Q R with
    R = P^(1/2) (Williamson's theorem; Weedbrook et al., Rev. Mod. Phys.
    84, 621 (2012)).  R Q R equals M Q M / (tr P + 2 sqrt(det P)) with
    M = P + sqrt(det P) I.  The larger eigenvalue comes from the trace
    plus a hypot, a sum of non-negative terms, and the smaller one from
    det Q det P over the larger (capped at the larger), so a degenerate
    pair keeps its digits; the form (t +- sqrt(t^2 - 4 det))/2 would lose
    about sqrt(eps) there.  Returns None unless both sectors are strictly
    positive definite and the result is finite; the caller then takes the
    general route.
    """
    e = m.ravel().tolist()
    if any(e[k] for k in _QP_CROSS_4):  # NaN counts as nonzero
        return None
    q00, q01, q11 = e[0], e[8], e[10]
    p00, p01, p11 = e[5], e[13], e[15]
    det_q = q00 * q11 - q01 * q01
    det_p = p00 * p11 - p01 * p01
    if not (q00 > 0.0 and det_q > 0.0 and p00 > 0.0 and det_p > 0.0):
        return None
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
        return None
    return np.array([math.sqrt(big), math.sqrt(small)])


def _svd_spectrum(m: np.ndarray) -> np.ndarray:
    """Spectrum of any CM from the singular values of V^(1/2) Omega V^(1/2)."""
    w, U = np.linalg.eigh(m)
    scale = max(1.0, float(w[-1]))
    if w[0] < -DEGENERACY_RTOL * scale:
        raise NumericalDegeneracyError(
            f"covariance matrix has negative eigenvalue {w[0]:g}"
        )
    root = (U * np.sqrt(np.maximum(w, 0.0))) @ U.T
    L = root @ _frozen_symplectic_form(m.shape[0] // 2) @ root
    sv = np.linalg.svd(L, compute_uv=False)  # descending, each nu twice
    worst = abs(sv[0::2] - sv[1::2]).max()
    if worst > DEGENERACY_RTOL * max(1.0, sv[0]):
        raise NumericalDegeneracyError(
            "symplectic spectrum did not split into doubled singular values "
            f"(worst pair mismatch {worst:g})"
        )
    return (sv[0::2] + sv[1::2]) / 2.0


def _symplectic_spectrum(m: np.ndarray) -> np.ndarray:
    if m.shape[0] == 4:
        spectrum = _two_mode_qp_spectrum(m)
        if spectrum is not None:
            return spectrum
    return _svd_spectrum(m)


def symplectic_spectrum(V: CovMat) -> np.ndarray:
    """Symplectic eigenvalues of V, sorted descending.

    A two-mode V with every q-p cross entry exactly 0 and strictly
    positive-definite q and p sectors Q, P takes the two-mode route:
    nu^2 are the eigenvalues of P^(1/2) Q P^(1/2), a 2x2 problem solved
    in closed arithmetic (within about 2 kappa eps nu_max of 40-digit mpmath,
    kappa the larger sector condition number).  Every other V takes the
    general route: the singular values of V^(1/2) Omega V^(1/2), a real
    antisymmetric matrix whose singular values are the symplectic
    eigenvalues, each doubled.  That stays accurate for the large,
    nearly degenerate spectra of the finite-modulation pipeline's 8x8
    state, where an eigendecomposition of -(Omega V)^2 loses four to
    five digits on the doubled eigenvalues.  ``is_physical`` calls this
    function and the pipeline its kernel, ``_symplectic_spectrum``; no
    option selects the route.

    Raises
    ------
    NumericalDegeneracyError
        If V has a negative eigenvalue beyond tolerance, or the doubled
        singular values fail to pair up (general route only: the
        two-mode route admits only positive-definite sectors).
    """
    return _symplectic_spectrum(V.mat)


def _h_above_one(x):
    """h(x) for x > 1 (NaN passes through), free of cancellation.

    With a = (x+1)/2 and b = (x-1)/2, a log2 a - b log2 b equals
    log2(a) + b log1p(1/b)/ln 2 because a - b = 1; the second form never
    subtracts two terms of size x log2 x.  Only numpy ufuncs touch the
    value, so a Python float and an array element get the same bits.
    """
    a = (x + 1.0) / 2.0
    b = (x - 1.0) / 2.0
    return np.log2(a) + b * np.log1p(1.0 / b) / LN2


def entropy_h(x: float) -> float:
    """Bosonic entropy of a symplectic eigenvalue, in bits.

    h(x) = (x+1)/2 log2 (x+1)/2 - (x-1)/2 log2 (x-1)/2, with h(1) = 0
    (the 0*log 0 convention), evaluated in the cancellation-free form of
    _h_above_one.  Values in [1 - EPS_PHYS, 1] are clamped to 1;
    anything smaller is unphysical.
    """
    if x < 1.0 - EPS_PHYS:
        raise DomainError(f"unphysical symplectic eigenvalue {x} < 1")
    if x <= 1.0:
        return 0.0
    return float(_h_above_one(x))


def entropy_h_array(x) -> np.ndarray:
    """entropy_h elementwise over an array, bit for bit.

    The first element (in C order) below 1 - EPS_PHYS raises the
    DomainError that entropy_h raises for it.
    """
    x = np.asarray(x, dtype=float)
    low = x < 1.0 - EPS_PHYS
    if low.any():
        raise DomainError(f"unphysical symplectic eigenvalue {float(x[low][0])} < 1")
    out = np.zeros(x.shape)
    live = ~(x <= 1.0)  # NaN stays NaN, as in entropy_h
    out[live] = _h_above_one(x[live])
    return out


def _beamsplitter(m: np.ndarray, mode_a: int, mode_b: int, tau: float) -> np.ndarray:
    """Mix two modes on a beam splitter of transmissivity tau.

    The transmitted combination sqrt(tau)*A + sqrt(1-tau)*B replaces
    mode_a; mode_b carries the reflected arm -sqrt(1-tau)*A +
    sqrt(tau)*B.  Both outputs stay in the returned CM.
    """
    n = m.shape[0] // 2
    if mode_a == mode_b:
        raise DomainError("beam splitter needs two distinct modes")
    for mode in (mode_a, mode_b):
        if not 0 <= mode < n:
            raise DomainError(f"mode index {mode} out of range for {n} modes")
    if not 0.0 <= tau <= 1.0:
        raise DomainError(f"transmissivity must lie in [0, 1], got {tau}")
    t = math.sqrt(tau)
    r = math.sqrt(1.0 - tau)
    S = np.eye(2 * n)
    a, b = 2 * mode_a, 2 * mode_b
    S[a, a] = S[a + 1, a + 1] = S[b, b] = S[b + 1, b + 1] = t
    S[a, b] = S[a + 1, b + 1] = r
    S[b, a] = S[b + 1, a + 1] = -r
    S[b, a + 1] = S[b + 1, a] = -0.0  # the block is -r * I, signed zeros included
    out = S @ m @ S.T
    # matmul round-off breaks exact symmetry at large variances
    return _require_finite((out + out.T) / 2.0)


def _split_measured(m: np.ndarray, mode: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = m.shape[0] // 2
    measured, retained, cross = _block_index(n, (mode,))
    if n < 2:
        raise DomainError("conditioning needs at least one retained mode")
    return m.take(retained), m.take(cross), m.take(measured)


def _heterodyne(m: np.ndarray, mode: int) -> np.ndarray:
    """Condition on a heterodyne measurement of one mode.

    Returns the Schur complement A - B (C + I)^-1 B^T on the retained
    modes.  The conditional CM of a Gaussian measurement is independent
    of the outcome, so no outcome argument exists.
    """
    A, B, C = _split_measured(m, mode)
    try:
        update = B @ np.linalg.solve(C + _EYE2, B.T)
    except np.linalg.LinAlgError as exc:  # impossible for a physical state
        raise NumericalDegeneracyError(
            "singular heterodyne update; measured block + I is not invertible"
        ) from exc
    out = A - update
    return _require_finite((out + out.T) / 2.0)


def _homodyne(m: np.ndarray, mode: int, quadrature: str) -> np.ndarray:
    """Condition on a homodyne measurement of one quadrature of one mode.

    The pseudo-inverse of the projected measured block is rank one, so
    the update reduces to subtracting the outer product of the cross
    covariances with the measured quadrature, divided by its variance.
    """
    if quadrature not in ("q", "p"):
        raise DomainError(f"quadrature must be 'q' or 'p', got {quadrature!r}")
    A, B, C = _split_measured(m, mode)
    j = 0 if quadrature == "q" else 1
    c = C[j, j]
    if c < 1e-12:
        raise DomainError(
            f"degenerate homodyne measurement: {quadrature} variance {c:g} below 1e-12"
        )
    b = B[:, j]
    out = A - b[:, None] * b / c
    return _require_finite((out + out.T) / 2.0)


def is_physical(V: CovMat) -> bool:
    """True iff every symplectic eigenvalue is >= 1 - EPS_PHYS."""
    try:
        spectrum = symplectic_spectrum(V)
    except NumericalDegeneracyError:
        return False
    return bool(spectrum[-1] >= 1.0 - EPS_PHYS)
