"""Secret-key rates of the one-way protocols under two-mode attacks.

The protocols run in two-mode blocks, in reverse reconciliation, and
differ only in what Bob measures on the block (B, B').  Each is one entry
of ``_RECEIVER``, Bob's measurements: no-switching heterodynes both
modes, switching homodynes the same quadrature (q or p) on both, and
switching-mixed homodynes q on B and p on B'.

Each rate exists in two routes: a closed asymptotic form in which the
modulation variance cancels (``key_rate_asymptotic``, ``key_rates``), and
a finite-modulation numeric pipeline (``key_rate_numeric``);
``rate_report`` reports either, the asymptotic one in a single pass, its
divergent quantities at ``DEFAULT_MU``.  A ``ProtocolSpec``'s mu alone
picks the route: None for the closed forms, a finite mu for the pipeline.
The pipeline's Holevo bound is built entirely by construction, in
straight-line scalar arithmetic on packed q/p sectors of the fixed mode
layout (a, a', B, B'): the lossy channel (``_joint_qp``), then
Schur-complement conditioning and symplectic diagonalisation (the
private steps of ``gaussian``), then scalar entropies.  It uses none of
the rate formulas; it is the oracle that every closed form is validated
against.  The joint state comes only from that construction, and no
function here returns a CM: the library keeps no closed form of the
joint or conditional CMs.  The pipeline's mutual
information is ``mutual_information``, the exact finite-mu closed form:
the receiver variances it needs are read off Lambda and
tau + (1-tau)*omega, not off a measured-down CM.

Conventions.  The source is a two-mode squeezed vacuum of local
variance mu + 1, so the classical modulation variance is mu - 1 and the
receiver variance is Lambda = tau*(mu+1) + (1-tau)*omega.  The mutual
information below uses these entanglement-based variances; the
prepare-and-measure bookkeeping (signal variance mu instead of mu + 1)
differs at finite mu by O(1/mu) and has the same asymptotics.  For the
homodyne protocols the block mutual information is
log2(V_B / V_B|A): two channel uses, each contributing half a log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attack import AttackParams, _mirror_modes, _require_omega, _require_physical, lens_mask
from .gaussian import (
    DomainError,
    Packed,
    _measure_last,
    _qp_spectrum,
    _require_finite,
    entropy_h,
    entropy_h_array,
)

NO_SWITCHING = "noswitching"
SWITCHING = "switching"
SWITCHING_MIXED = "switching-mixed"
# What Bob measures on (B, B') in each variant: its equally likely branches,
# each the quadrature measured on B and on B' ("qp" is a heterodyne).
_RECEIVER = {
    NO_SWITCHING: (("qp", "qp"),),
    SWITCHING: (("q", "q"), ("p", "p")),
    SWITCHING_MIXED: (("q", "p"),),
}
VARIANTS = tuple(_RECEIVER)

# The modulation at which an asymptotic report takes its divergent
# quantities.  Large enough for 1e-3 convergence, small enough to keep
# 64-bit conditioning.
DEFAULT_MU = 1.0e6

_LOG2_E_HALF = math.log2(math.e / 2.0)


@dataclass(frozen=True)
class _Elementwise:
    """Elementwise primitives of the closed forms: one set for floats, one for arrays.

    entropies(*xs) returns h of each argument and checks them in point
    order, each point's arguments in the order given, so that the first
    unphysical eigenvalue raises the same DomainError either way.
    """

    sqrt: Callable
    log2: Callable
    entropies: Callable


def _entropies_array(*xs: np.ndarray) -> list[np.ndarray]:
    # Every point that lens_mask admits has eigenvalues >= 1 - EPS_PHYS/2.
    h = entropy_h_array(np.stack(xs, axis=1))
    return [h[:, k] for k in range(len(xs))]


# log2 is the numpy ufunc in both sets, so scalar and array rates share its bits.
_SCALAR = _Elementwise(math.sqrt, lambda x: float(np.log2(x)), lambda *xs: list(map(entropy_h, xs)))
_ARRAY = _Elementwise(np.sqrt, np.log2, _entropies_array)

# Points per kernel pass: bounds the temporaries (about a dozen arrays of
# four entries per point) whatever the grid size.  _entropies_array stacks
# four doubles per point, so 2048 points keep that stack at 64 KiB; at 4096
# (128 KiB) it no longer stays in a typical per-core cache, and the entropy
# ufuncs cost about twice as much per element.
_KERNEL_CHUNK = 2048


def _receiver(variant: str) -> tuple[tuple[str, str], ...]:
    """Bob's branches in a variant; any other name, unhashable ones included, raises."""
    try:
        return _RECEIVER[variant]
    except (KeyError, TypeError):
        raise DomainError(f"unknown protocol variant {variant!r}") from None


def _require_finite_mu(mu: float) -> None:
    if not (math.isfinite(mu) and mu > 1.0):
        raise DomainError(f"modulation variance must be finite and > 1, got {mu}")


@dataclass(frozen=True)
class ProtocolSpec:
    """Protocol variant plus the modulation, which alone picks the route.

    mu None selects the closed forms; a finite mu > 1 runs the numeric
    pipeline.  asymptotic is stored as mu is None; a caller may pass it,
    but a value that disagrees with mu raises DomainError.
    """

    variant: str
    mu: float | None = None
    asymptotic: bool | None = None

    def __post_init__(self) -> None:
        _receiver(self.variant)
        if self.mu is not None:
            _require_finite_mu(self.mu)
        asymptotic = self.mu is None
        if self.asymptotic not in (None, asymptotic):
            raise DomainError(f"asymptotic={self.asymptotic} disagrees with mu={self.mu}")
        object.__setattr__(self, "asymptotic", asymptotic)


@dataclass(frozen=True)
class RateReport:
    """Mutual information, Holevo bound and rate, plus their spectra.

    i_ab and holevo are bits per two-use block; rate is bits per channel
    use and equals (i_ab - holevo)/2 exactly as computed.  In asymptotic
    mode i_ab and holevo are taken at DEFAULT_MU, and rate differs from
    key_rate_asymptotic's by at most 4 ulp of max(|i_ab|, |holevo|)
    (worst measured 2.5 ulp; omega in [1, 1e4], tau in [0.01, 0.99]).
    """

    params: AttackParams
    spec: ProtocolSpec
    i_ab: float
    holevo: float
    rate: float
    total_spectrum: np.ndarray
    conditional_spectrum: np.ndarray


def _nbar(tau, x, y, ew: _Elementwise = _SCALAR):
    """Large-mu conditional eigenvalue of the heterodyne protocol on a mirror mode of noise (x, y).

    sqrt(lam*lam')/tau with lam = 1 + (1-tau)*x and lam' = 1 + (1-tau)*y.
    """
    return ew.sqrt((1.0 + (1.0 - tau) * x) * (1.0 + (1.0 - tau) * y)) / tau


def _joint_qp(params: AttackParams, mu: float) -> tuple[Packed, Packed]:
    """Packed q and p sectors of the joint state of sender modes (a, a') and receiver modes (B, B').

    Two TMSV(mu+1) sources in mode order (a, a', A, A') send (A, A')
    through a lossy channel of transmissivity tau whose environment is the
    attack state (e, E): B and B' are the transmitted arms t*A + r*E,
    t = sqrt(tau) and r = sqrt(1-tau).  The Holevo bound needs only this
    state, so Eve's reflected arms are never formed.  Each entry takes t
    once per receiver index and the environment's r*(r*n) last, products
    that round as the full rotation's do; the TMSV correlation is
    c = sqrt(m^2 - 1), m = mu + 1, with sign -1 in p.
    """
    _require_physical(params)
    _require_finite_mu(mu)
    m = mu + 1.0
    c = math.sqrt(m * m - 1.0)  # inf once m*m overflows
    t, r = math.sqrt(params.tau), math.sqrt(1.0 - params.tau)
    zero = t * 0.0  # (a, B') and (a', B): each source's own zeros, transmitted
    receiver = t * (t * m) + r * (r * params.omega)
    cq, cp = t * c, t * -c
    q = (m, 0.0, m, cq, zero, receiver, zero, cq, t * zero + r * (r * params.g), receiver)
    p = (m, 0.0, m, cp, zero, receiver, zero, cp, t * zero + r * (r * params.g_prime), receiver)
    # the transmitted entries; t*c is finite exactly when c is, as 0 < t <= 1
    _require_finite(cq, receiver, q[8], p[8])
    return q, p


def mutual_information(params: AttackParams, spec: ProtocolSpec) -> float:
    """Sender/receiver mutual information, bits per two-use block.

    Independent of (g, g') in every variant.  Heterodyne reception:
    2 log2((V_B + 1)/(V_B|A + 1)); homodyne reception: log2(V_B / V_B|A).
    Finite mode uses the entanglement-based V_B = Lambda; asymptotic mode
    replaces Lambda by tau*mu at mu = DEFAULT_MU.
    """
    tau, om = params.tau, params.omega
    heterodyne = _RECEIVER[spec.variant][0][0] == "qp"
    den = 1.0 + tau + (1.0 - tau) * om if heterodyne else tau + (1.0 - tau) * om
    if spec.asymptotic:
        ratio = tau * DEFAULT_MU / den
    else:
        lam = tau * (spec.mu + 1.0) + (1.0 - tau) * om
        ratio = (lam + 1.0 if heterodyne else lam) / den
    if not ratio > 0.0:  # underflows to 0 at tiny tau and huge omega
        raise _not_finite(spec.variant, "mutual information", params)
    return 2.0 * math.log2(ratio) if heterodyne else math.log2(ratio)


def _not_finite(variant: str, quantity: str, params: AttackParams) -> DomainError:
    """The error of a quantity that leaves the floating-point range at params."""
    return DomainError(
        f"{variant} {quantity} at tau = {params.tau!r}, omega = {params.omega!r}, "
        f"(g, g') = ({params.g!r}, {params.g_prime!r}) is not finite: "
        "an intermediate value leaves the floating-point range"
    )


def _require_open_tau(tau: float) -> None:
    if not 0.0 < tau < 1.0:
        raise DomainError(
            f"rate formulas need 0 < tau < 1 (log singularities at the ends), got {tau}"
        )


def key_rate_asymptotic(params: AttackParams, variant: str) -> float:
    """The mu-free closed-form rate of a protocol variant, bits per channel use.

    With nu_pm = sqrt((omega +- g)(omega +- g')) and nbar_pm =
    sqrt(lam_pm lam'_pm)/tau, where lam_pm = 1 + (1-tau)(omega +- g) and
    lam'_pm carries g':
    * no-switching: log2((2/e) tau / ((1-tau)(1+tau+(1-tau) omega)))
      + [h(nbar_+) + h(nbar_-) - h(nu_+) - h(nu_-)]/2; a block is twice this;
    * switching: 0.5 log2(sqrt(nu_+ nu_-) / ((1-tau)(tau+(1-tau) omega)))
      - [h(nu_+) + h(nu_-)]/2;
    * switching-mixed: the same with omega in place of sqrt(nu_+ nu_-).
    Raises DomainError outside the lens, unless 0 < tau < 1, and where
    the rate is not finite.
    """
    _receiver(variant)
    _require_physical(params)
    _require_open_tau(params.tau)
    rate = _closed_form(variant, params.tau, params.omega, params.g, params.g_prime, _SCALAR)
    if not math.isfinite(rate):
        raise _not_finite(variant, "rate", params)
    return rate


def _closed_form(variant: str, tau: float, om: float, g, gp, ew: _Elementwise):
    """The asymptotic rate formulas, written once for floats and for arrays."""
    (x_plus, y_plus), (x_minus, y_minus) = _mirror_modes(om, g, gp)
    nu_plus, nu_minus = ew.sqrt(x_plus * y_plus), ew.sqrt(x_minus * y_minus)
    if variant == NO_SWITCHING:
        h_nbar_plus, h_nbar_minus, h_nu_plus, h_nu_minus = ew.entropies(
            _nbar(tau, x_plus, y_plus, ew), _nbar(tau, x_minus, y_minus, ew), nu_plus, nu_minus
        )
        den = 1.0 + tau + (1.0 - tau) * om
        ratio = 2.0 / math.e * tau / ((1.0 - tau) * den)
        # A subnormal tau underflows the ratio to 0: its log is -inf, and the
        # rate's finiteness check reports the point.
        lead = math.log2(ratio) if ratio > 0.0 else -math.inf
        return lead + 0.5 * (h_nbar_plus + h_nbar_minus - h_nu_plus - h_nu_minus)
    den = (1.0 - tau) * (tau + (1.0 - tau) * om)
    if variant == SWITCHING:
        lead = 0.5 * ew.log2(ew.sqrt(nu_plus * nu_minus) / den)
    else:
        lead = 0.5 * math.log2(om / den)
    h_nu_plus, h_nu_minus = ew.entropies(nu_plus, nu_minus)
    return lead - 0.5 * (h_nu_plus + h_nu_minus)


def _first_rejected(tau: float, omega: float, g: np.ndarray, gp: np.ndarray) -> int | None:
    """Index of the first point whose inputs a scalar rate call rejects, or None."""
    if g.size == 0:
        return None
    try:
        _require_open_tau(tau)
        _require_omega(omega)
    except DomainError:
        return 0
    inside = lens_mask(omega, g, gp)
    return None if inside.all() else int(np.argmin(inside))


def key_rates(
    variant: str, tau: float, omega: float, g, g_prime, mu: float | None = None
) -> np.ndarray:
    """Rates over arrays of (g, g') at fixed (tau, omega), in bits per channel use.

    g and g_prime broadcast against each other and the result takes
    their shape.  With mu None this is the array form of
    key_rate_asymptotic: both forms evaluate the same closed forms, and
    every element equals the scalar rate at that point bit for bit.  With
    a finite mu every element is key_rate_numeric's rate at that point,
    evaluated point by point.  Either way errors match a loop of scalar
    calls over the points in C order: the first point that fails (an
    unphysical (g, g') or tau, or a rate that overflows to a non-finite
    value) raises the error that its scalar call raises.
    """
    _receiver(variant)
    g, gp = np.broadcast_arrays(np.asarray(g, dtype=float), np.asarray(g_prime, dtype=float))
    shape = g.shape
    g, gp = g.ravel(), gp.ravel()
    if mu is not None:
        spec = ProtocolSpec(variant=variant, mu=mu)
        numeric = [
            key_rate_numeric(AttackParams(tau, omega, a, b), spec).rate
            for a, b in zip(g.tolist(), gp.tolist())
        ]
        return np.array(numeric, dtype=float).reshape(shape)
    rejected = _first_rejected(tau, omega, g, gp)
    accepted = g.size if rejected is None else rejected
    rates = np.empty(g.size)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow surfaces as a NaN rate
        for start in range(0, accepted, _KERNEL_CHUNK):
            part = slice(start, min(start + _KERNEL_CHUNK, accepted))
            rates[part] = _closed_form(variant, tau, omega, g[part], gp[part], _ARRAY)
    failed = np.flatnonzero(~np.isfinite(rates[:accepted]))
    first = int(failed[0]) if failed.size else rejected
    if first is not None:  # raises the scalar error of the first failing point
        key_rate_asymptotic(AttackParams(tau, omega, float(g[first]), float(gp[first])), variant)
    return rates.reshape(shape)


def key_rate_numeric(params: AttackParams, spec: ProtocolSpec) -> RateReport:
    """Finite-modulation rate with a Holevo bound computed through CM operations.

    Builds the joint state constructively (two TMSV arms sent through a
    lossy channel whose environment is the ancilla pair), takes its
    symplectic spectrum, and obtains the conditional entropy from
    measured-down Schur complements and their spectra; no rate formula
    enters the Holevo bound.  The mutual information is
    ``mutual_information(params, spec)``, exact in closed form.  Converges
    to the closed-form rate as O(1/mu).

    Round-off: the CM entries are of order mu*omega and the small
    eigenvalues cancel down from them, so the Holevo bound carries an
    absolute error that scales with eps*mu*omega, times tau/(1 - tau) and
    h'(nu_-) as tau -> 1 and as the smaller attack eigenvalue nears 1.
    Against 40-digit mpmath (mu 1e2 to 1e8, interior lens points) it
    reached 209 eps*mu*omega for tau in [0.05, 0.95] (3.3 with those
    factors divided out), 641 at tau = 0.99 and 1.6e6 at tau = 1 - 1e-6.
    The rate carries half of it; i_ab stays within about 2 ulps.

    Every stage is straight-line arithmetic on packed q/p sectors: the
    joint state of ``_joint_qp`` and its two mirror halves, then Bob's
    measurement of B' and of B (``gaussian._measure_last``) in each of
    his branches.  No CM is formed, and no ``eigh``, ``svd`` or ``solve``
    is called; each entry rounds as the mode-indexed reference chain of
    ``tests/cm_reference.py`` rounds it, so the report matches that chain
    byte for byte, errors included.
    """
    if spec.asymptotic:
        raise DomainError("key_rate_numeric needs a finite-modulation ProtocolSpec")
    q, p = _joint_qp(params, spec.mu)
    # Balanced beam splitters on (a, a') and (B, B') split the mirror-symmetric
    # joint state into halves [[X_aa +- X_aa', X_aB +- X_aB'], [., X_BB +- X_BB']];
    # _joint_qp writes X_aa' = X_aB' = +0.0, so X_aa and X_aB pass unchanged.
    m, _, _, cq, _, vq, _, _, eq, _ = q
    _, _, _, cp, _, vp, _, _, ep, _ = p
    total = _qp_spectrum(m, cq, vq + eq, m, cp, vp + ep)
    total += _qp_spectrum(m, cq, vq - eq, m, cp, vp - ep)
    total.sort(reverse=True)
    spectra = []  # the spectrum of (a, a') given each of Bob's branches
    for on_b, on_bp in _RECEIVER[spec.variant]:
        (q00, q01, q11), (p00, p01, p11) = _measure_last(*_measure_last(q, p, on_bp), on_b)
        spectra.append(_qp_spectrum(q00, q01, q11, p00, p01, p11))
    # every spectrum, then the h sums, the total first: its unphysical eigenvalue raises first
    s_total = sum(map(entropy_h, total))
    s_cond, cond = 0.0, []
    for spectrum in spectra:
        s_cond += sum(map(entropy_h, spectrum))
        cond += spectrum
    cond.sort(reverse=True)
    i_ab = mutual_information(params, spec)
    holevo = s_total - s_cond / len(spectra)  # minus the branches' mean
    return RateReport(
        params=params,
        spec=spec,
        i_ab=i_ab,
        holevo=holevo,
        rate=(i_ab - holevo) / 2.0,
        total_spectrum=np.array(total),
        conditional_spectrum=np.array(cond),
    )


def rate_report(params: AttackParams, spec: ProtocolSpec) -> RateReport:
    """RateReport for either route; a finite mu runs key_rate_numeric.

    Asymptotic mode checks the point once (key_rate_asymptotic's checks)
    and evaluates the divergent pieces at mu = DEFAULT_MU.  holevo is
    2 log2((e/2)(1-tau) mu) + h(nu_+) + h(nu_-) - h(nbar_+) - h(nbar_-)
    (no-switching) or h(nu_+) + h(nu_-) + log2((1-tau) tau mu / m), with
    m = sqrt(nu_+ nu_-) (switching) or omega (switching-mixed).  The total
    spectrum is nu_pm and the doubly degenerate (1-tau) mu; the
    conditional one is nbar_pm (no-switching), or sqrt(mu (1-tau)/tau)
    times sqrt(omega +- g) and sqrt(omega +- g') (switching) or times
    sqrt(omega), twice (switching-mixed).  Spectra are descending.
    """
    if not spec.asymptotic:
        return key_rate_numeric(params, spec)
    key_rate_asymptotic(params, spec.variant)  # the lens, 0 < tau < 1, and a finite rate
    tau, om, g, gp = params.tau, params.omega, params.g, params.g_prime
    mu = DEFAULT_MU
    i_ab = mutual_information(params, spec)
    (x_plus, y_plus), (x_minus, y_minus) = _mirror_modes(om, g, gp)
    nu_plus, nu_minus = math.sqrt(x_plus * y_plus), math.sqrt(x_minus * y_minus)
    if spec.variant == NO_SWITCHING:
        nbar_plus, nbar_minus = sorted(  # the spectrum is descending
            (_nbar(tau, x_plus, y_plus), _nbar(tau, x_minus, y_minus)), reverse=True
        )
        # summed left to right: pre-summing the h terms changes the bits
        holevo = (
            2.0 * (_LOG2_E_HALF + math.log2((1.0 - tau) * mu))
            + entropy_h(nu_plus)
            + entropy_h(nu_minus)
            - entropy_h(nbar_plus)
            - entropy_h(nbar_minus)
        )
        cond_spectrum = np.array([nbar_plus, nbar_minus])
    else:
        mixed = spec.variant == SWITCHING_MIXED
        gm = om if mixed else math.sqrt(nu_plus * nu_minus)
        lead = (1.0 - tau) * tau * mu / gm
        if not lead > 0.0:  # as in mutual_information
            raise _not_finite(spec.variant, "Holevo bound", params)
        holevo = entropy_h(nu_plus) + entropy_h(nu_minus) + math.log2(lead)
        ratio = (1.0 - tau) / tau
        spread = (om, om) if mixed else (x_plus, x_minus, y_plus, y_minus)
        coeffs = np.array([math.sqrt(ratio * x) for x in spread])
        cond_spectrum = np.sort(coeffs * math.sqrt(mu))[::-1]
    big = (1.0 - tau) * mu
    return RateReport(
        params=params,
        spec=spec,
        i_ab=i_ab,
        holevo=holevo,
        rate=(i_ab - holevo) / 2.0,
        total_spectrum=np.sort(np.array([nu_plus, nu_minus, big, big]))[::-1],
        conditional_spectrum=cond_spectrum,
    )
