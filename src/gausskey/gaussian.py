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
it holds each as its q and p sectors, and each symmetric sector as its
packed upper triangle (``Packed``), a tuple of Python floats taken column
by column: the sector on every mode but the last is a prefix.  Its
layout is fixed, modes (a, a', B, B'), and Bob measures B' and then B,
so each step is straight-line scalar arithmetic.  ``_measure_last``
conditions on the last mode with one rank-one update per measured
sector, and rejects non-finite entries with the ``CovMat`` text.
Every pipeline spectrum comes from ``_qp_spectrum``, with no ``eigh``,
``svd`` or ``solve`` and no rate formula: the joint state's from its two
mirror halves, which ``key_rate_numeric`` reads off the entries that
``rates._joint_qp`` writes, and each conditional state's directly.
``tests/cm_reference.py`` keeps the mode-indexed kernels on lists of
rows, and a dense (eigh/svd) spectrum, as the tests' reference chain and
oracle.

Everything here is a pure function of its inputs; ``CovMat`` instances
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Slack on the nu >= 1 physicality checks.
EPS_PHYS = 1e-9

# Maximum tolerated asymmetry |V - V^T| of a covariance matrix.
SYMMETRY_ATOL = 1e-12

LN2 = math.log(2.0)

_NON_FINITE = "covariance matrix contains non-finite entries"

# A symmetric sector as its upper triangle, column by column: (x00, x01,
# x11, x02, x12, x22, ...).  At four modes, tuples of Python floats cost
# less than numpy's dispatch.
Packed = tuple[float, ...]


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


def _require_finite(*xs: float) -> None:
    """Reject a non-finite value among the entries just formed with the CovMat text."""
    # A non-finite entry makes the sum non-finite; a sum can also overflow.
    if not math.isfinite(sum(xs)) and not all(map(math.isfinite, xs)):
        raise DomainError(_NON_FINITE)


def _rank_one_4(x: Packed, d: float) -> Packed:
    """x on modes 0-2 minus the outer product of its mode-3 column, over d."""
    x00, x01, x11, x02, x12, x22, c0, c1, c2, _ = x
    return (
        x00 - c0 * c0 / d, x01 - c0 * c1 / d, x11 - c1 * c1 / d,
        x02 - c0 * c2 / d, x12 - c1 * c2 / d, x22 - c2 * c2 / d,
    )


def _rank_one_3(x: Packed, d: float) -> Packed:
    """x on modes 0-1 minus the outer product of its mode-2 column, over d."""
    x00, x01, x11, c0, c1, _ = x
    return x00 - c0 * c0 / d, x01 - c0 * c1 / d, x11 - c1 * c1 / d


# By packed length (four modes, three modes): the update and the entries it keeps.
_RANK_ONE = {10: (_rank_one_4, 6), 6: (_rank_one_3, 3)}


def _measure_last(q: Packed, p: Packed, quadrature: str) -> tuple[Packed, Packed]:
    """Condition a state of four or three modes on a measurement of its last mode.

    The outcome does not matter.  A heterodyne ("qp") takes the Schur
    complement A - B (C + I)^-1 B^T: C is diagonal, so each sector takes
    the rank-one update of its last column over X_kk + 1.  A homodyne of
    "q" or "p" updates the measured sector over its X_kk, and the other
    sector drops the mode.
    """
    update, kept = _RANK_ONE[len(q)]
    if quadrature == "qp":
        dq, dp = q[-1] + 1.0, p[-1] + 1.0
        if dq == 0.0 or dp == 0.0:  # impossible for a physical state
            raise NumericalDegeneracyError(
                "singular heterodyne update; measured block + I is not invertible"
            )
        q, p = update(q, dq), update(p, dp)
        _require_finite(*q, *p)
        return q, p
    measured = q if quadrature == "q" else p
    c = measured[-1]
    if c < 1e-12:
        raise DomainError(
            f"degenerate homodyne measurement: {quadrature} variance {c:g} below 1e-12"
        )
    updated = update(measured, c)
    _require_finite(*updated)
    return (updated, p[:kept]) if quadrature == "q" else (q[:kept], updated)


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
