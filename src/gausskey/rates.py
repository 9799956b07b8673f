"""Secret-key rates of the one-way protocols under two-mode attacks.

Two protocol families are covered, both in reverse reconciliation:

* no-switching -- Bob heterodynes every mode;
* switching    -- Bob homodynes, either the same quadrature on both
  modes of a block ("switching") or one q and one p ("switching-mixed").

Each rate exists in two routes: a closed asymptotic form in which the
modulation variance cancels (``key_rate_asymptotic``, ``key_rates``), and
a finite-modulation numeric pipeline (``key_rate_numeric``);
``rate_report`` reports either, the asymptotic one in a single pass.
The pipeline's Holevo bound is built entirely from the private q/p-sector
kernels of ``gaussian`` (beam splitters, Schur-complement conditioning,
symplectic diagonalisation, entropies) and uses none of the rate
formulas; it is the oracle that every closed form is validated against.
The joint state comes only from that construction (``_joint_qp``), and
no function here returns a CM: the library keeps no closed form of the
joint or conditional CMs.  The pipeline's mutual information is
``mutual_information``, the exact finite-mu closed form: the receiver
variances it needs are read off Lambda and tau + (1-tau)*omega, not off a
measured-down CM.

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
from itertools import islice
from typing import Callable

import numpy as np

from .attack import AttackParams, _attack_qp, lens_mask, violated_constraint
from .gaussian import (
    DomainError,
    Sectors,
    _qp_beamsplitter,
    _qp_direct_sum,
    _qp_heterodyne,
    _qp_homodyne,
    _qp_keep,
    _qp_mirror_spectrum,
    _qp_tmsv,
    _qp_two_mode_spectrum,
    entropy_h,
    entropy_h_array,
)

NO_SWITCHING = "noswitching"
SWITCHING = "switching"
SWITCHING_MIXED = "switching-mixed"
VARIANTS = (NO_SWITCHING, SWITCHING, SWITCHING_MIXED)

# Reference modulation used when a report needs finite-mu quantities
# (mutual information, Holevo bound) in asymptotic mode.  Large enough
# for 1e-3 convergence, small enough to keep 64-bit conditioning.
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
    maximum: Callable
    minimum: Callable
    entropies: Callable


def _entropies_array(*xs: np.ndarray) -> list[np.ndarray]:
    # Every point that lens_mask admits has eigenvalues >= 1 - EPS_PHYS/2.
    h = entropy_h_array(np.stack(xs, axis=1))
    return [h[:, k] for k in range(len(xs))]


def _entropies_scalar(*xs: float) -> list[float]:
    # An eigenvalue that overflowed to inf makes the rate NaN, as h(inf) does
    # in the array form; skipping h here keeps numpy from warning about it.
    return [entropy_h(x) if x < math.inf else math.nan for x in xs]


# log2 is the numpy ufunc in both sets, so scalar and array rates share its bits.
_SCALAR = _Elementwise(math.sqrt, lambda x: float(np.log2(x)), max, min, _entropies_scalar)
_ARRAY = _Elementwise(np.sqrt, np.log2, np.maximum, np.minimum, _entropies_array)

# Points per kernel pass: bounds the temporaries (about a dozen arrays of
# four entries per point) whatever the grid size.  _entropies_array stacks
# four doubles per point, so 2048 points keep that stack at 64 KiB; at 4096
# (128 KiB) it no longer stays in a typical per-core cache, and the entropy
# ufuncs cost about twice as much per element.
_KERNEL_CHUNK = 2048


def _require_finite_mu(mu: float) -> None:
    if not (math.isfinite(mu) and mu > 1.0):
        raise DomainError(f"modulation variance must be finite and > 1, got {mu}")


@dataclass(frozen=True)
class ProtocolSpec:
    """Protocol variant plus the modulation bookkeeping.

    asymptotic=True selects the closed forms (mu, if given, only feeds
    the divergent report quantities); asymptotic=False runs the numeric
    pipeline and requires a finite mu > 1.
    """

    variant: str
    mu: float | None = None
    asymptotic: bool = True

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown protocol variant {self.variant!r}")
        if self.mu is not None:
            _require_finite_mu(self.mu)
        if not self.asymptotic and self.mu is None:
            raise DomainError("finite-modulation mode requires mu")

    @property
    def mu_value(self) -> float:
        return self.mu if self.mu is not None else DEFAULT_MU


@dataclass(frozen=True)
class RateReport:
    """Mutual information, Holevo bound and rate, plus their spectra.

    i_ab and holevo are bits per two-use block; rate is bits per channel
    use and equals (i_ab - holevo)/2 exactly as computed.  In asymptotic
    mode i_ab and holevo are taken at spec.mu_value, and rate differs from
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


def _require_physical(params: AttackParams) -> None:
    violated = violated_constraint(params)
    if violated is not None:
        raise DomainError(f"unphysical attack parameters: violated {violated}")


def _nu_pm(om, g, gp, ew: _Elementwise = _SCALAR):
    """Attack-correlation eigenvalues sqrt((omega +- g)(omega +- g'))."""
    return ew.sqrt((om + g) * (om + gp)), ew.sqrt((om - g) * (om - gp))


def _nbar_noswitching(tau, om, g, gp, ew: _Elementwise = _SCALAR):
    """Large-mu conditional eigenvalues of the heterodyne protocol, larger first.

    sqrt(lam_plus*lam_prime_plus)/tau and sqrt(lam_minus*lam_prime_minus)/tau
    with lam_pm = 1 + (1-tau)*(omega +- g).
    """
    lp = 1.0 + (1.0 - tau) * (om + g)
    lm = 1.0 + (1.0 - tau) * (om - g)
    lpp = 1.0 + (1.0 - tau) * (om + gp)
    lmp = 1.0 + (1.0 - tau) * (om - gp)
    plus = ew.sqrt(lp * lpp) / tau
    minus = ew.sqrt(lm * lmp) / tau
    return ew.maximum(plus, minus), ew.minimum(plus, minus)


def _joint_qp(params: AttackParams, mu: float) -> Sectors:
    """q and p sectors of the joint state of sender modes (a, a') and receiver modes (B, B').

    Starts from TMSV(mu+1) (x) TMSV(mu+1) (x) attack state in mode order
    (a, A, a', A', e, E), applies a beam splitter of transmissivity tau
    on (A, e) and on (A', E), keeps (a, a', B, B') where B, B' are the
    transmitted outputs, and discards the reflected arms.
    """
    _require_physical(params)
    _require_finite_mu(mu)
    source = _qp_tmsv(mu + 1.0)  # read, never written, so one state serves both uses
    src = _qp_direct_sum(source, source, _attack_qp(params.omega, params.g, params.g_prime))
    mixed = _qp_beamsplitter(src, 1, 4, params.tau)
    mixed = _qp_beamsplitter(mixed, 3, 5, params.tau)
    return _qp_keep(mixed, (0, 2, 1, 3))


def mutual_information(params: AttackParams, spec: ProtocolSpec) -> float:
    """Sender/receiver mutual information, bits per two-use block.

    Independent of (g, g') in every variant.  Heterodyne reception:
    2 log2((V_B + 1)/(V_B|A + 1)); homodyne reception (both switching
    variants): log2(V_B / V_B|A).  Finite mode uses the entanglement-
    based V_B = Lambda; asymptotic mode replaces Lambda by tau*mu.
    """
    tau, om = params.tau, params.omega
    het_den = 1.0 + tau + (1.0 - tau) * om
    hom_den = tau + (1.0 - tau) * om
    if spec.asymptotic:
        mu = spec.mu_value
        if spec.variant == NO_SWITCHING:
            return 2.0 * math.log2(tau * mu / het_den)
        return math.log2(tau * mu / hom_den)
    mu = spec.mu
    _require_finite_mu(mu)
    lam = tau * (mu + 1.0) + (1.0 - tau) * om
    if spec.variant == NO_SWITCHING:
        return 2.0 * math.log2((lam + 1.0) / het_den)
    return math.log2(lam / hom_den)


def _require_open_tau(params: AttackParams) -> None:
    if not 0.0 < params.tau < 1.0:
        raise DomainError(
            f"rate formulas need 0 < tau < 1 (log singularities at the ends), got {params.tau}"
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
    return _key_rate_at(variant, params)


def _key_rate_at(variant: str, params: AttackParams) -> float:
    if variant not in VARIANTS:
        raise DomainError(f"unknown protocol variant {variant!r}")
    _require_physical(params)
    _require_open_tau(params)
    tau, omega, g, gp = params.tau, params.omega, params.g, params.g_prime
    rate = _closed_form(variant, tau, omega, g, gp, _SCALAR)
    if not math.isfinite(rate):
        raise DomainError(
            f"{variant} rate at tau = {tau!r}, omega = {omega!r}, (g, g') = ({g!r}, {gp!r}) "
            "is not finite: an intermediate value leaves the floating-point range"
        )
    return rate


def _closed_form(variant: str, tau: float, om: float, g, gp, ew: _Elementwise):
    """The asymptotic rate formulas, written once for floats and for arrays."""
    nu_plus, nu_minus = _nu_pm(om, g, gp, ew)
    if variant == NO_SWITCHING:
        nbar_plus, nbar_minus = _nbar_noswitching(tau, om, g, gp, ew)
        h_nbar_plus, h_nbar_minus, h_nu_plus, h_nu_minus = ew.entropies(
            nbar_plus, nbar_minus, nu_plus, nu_minus
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
    if not (math.isfinite(tau) and math.isfinite(omega) and 0.0 < tau < 1.0 and omega >= 1.0):
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
    if variant not in VARIANTS:
        raise DomainError(f"unknown protocol variant {variant!r}")
    g, gp = np.broadcast_arrays(np.asarray(g, dtype=float), np.asarray(g_prime, dtype=float))
    shape = g.shape
    g, gp = g.ravel(), gp.ravel()
    if mu is not None:
        spec = ProtocolSpec(variant=variant, mu=mu, asymptotic=False)
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
        _key_rate_at(variant, AttackParams(tau, omega, float(g[first]), float(gp[first])))
    return rates.reshape(shape)


def _spectrum_entropies(*spectra: np.ndarray) -> list[float]:
    """Entropy in bits of each state from its spectrum, its h terms summed in order.

    One entropy_h_array call: the first unphysical eigenvalue, in the order given, raises.
    """
    h = iter(entropy_h_array(np.concatenate(spectra)).tolist())
    return [float(sum(islice(h, len(s)))) for s in spectra]


def key_rate_numeric(params: AttackParams, spec: ProtocolSpec) -> RateReport:
    """Finite-modulation rate with a Holevo bound computed through CM operations.

    Builds the joint state constructively (two TMSVs mixed with the
    ancillas on beam splitters), takes its symplectic spectrum, and
    obtains the conditional entropy from measured-down Schur complements
    and their spectra; no rate formula enters the Holevo bound.  The
    mutual information is ``mutual_information(params, spec)``, exact in
    closed form.  Converges to the closed-form rate as O(1/mu).

    Round-off: the CM entries are of order mu*omega and the small
    eigenvalues cancel down from them, so the Holevo bound carries an
    absolute error that scales with eps*mu*omega, times tau/(1 - tau) and
    h'(nu_-) as tau -> 1 and as the smaller attack eigenvalue nears 1.
    Against 40-digit mpmath (mu 1e2 to 1e8, interior lens points) it
    reached 209 eps*mu*omega for tau in [0.05, 0.95] (3.3 with those
    factors divided out), 641 at tau = 0.99 and 1.6e6 at tau = 1 - 1e-6.
    The rate carries half of it; i_ab stays within about 2 ulps.

    Every stage runs on the q/p-sector kernels of ``gaussian``: no CM is
    formed, and no ``eigh``, ``svd`` or ``solve`` is called.
    """
    if spec.asymptotic:
        raise DomainError("key_rate_numeric needs a finite-modulation ProtocolSpec")
    V = _joint_qp(params, spec.mu)
    total_spectrum = _qp_mirror_spectrum(V)

    if spec.variant == NO_SWITCHING:
        cond_spectrum = _qp_two_mode_spectrum(_qp_heterodyne(_qp_heterodyne(V, 3), 2))
        s_total, s_cond = _spectrum_entropies(total_spectrum, cond_spectrum)
    elif spec.variant == SWITCHING:
        spec_q = _qp_two_mode_spectrum(_qp_homodyne(_qp_homodyne(V, 3, "q"), 2, "q"))
        spec_p = _qp_two_mode_spectrum(_qp_homodyne(_qp_homodyne(V, 3, "p"), 2, "p"))
        s_total, s_q, s_p = _spectrum_entropies(total_spectrum, spec_q, spec_p)
        s_cond = 0.5 * (s_q + s_p)
        cond_spectrum = np.sort(np.concatenate([spec_q, spec_p]))[::-1]
    elif spec.variant == SWITCHING_MIXED:
        cond_spectrum = _qp_two_mode_spectrum(_qp_homodyne(_qp_homodyne(V, 3, "p"), 2, "q"))
        s_total, s_cond = _spectrum_entropies(total_spectrum, cond_spectrum)
    else:
        raise DomainError(f"unknown protocol variant {spec.variant!r}")

    i_ab = mutual_information(params, spec)
    holevo = s_total - s_cond
    return RateReport(
        params=params,
        spec=spec,
        i_ab=i_ab,
        holevo=holevo,
        rate=(i_ab - holevo) / 2.0,
        total_spectrum=total_spectrum,
        conditional_spectrum=cond_spectrum,
    )


def rate_report(params: AttackParams, spec: ProtocolSpec) -> RateReport:
    """RateReport for either route; a finite mu runs key_rate_numeric.

    Asymptotic mode checks the point once (key_rate_asymptotic's checks)
    and evaluates the divergent pieces at spec.mu_value.  holevo is
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
    _key_rate_at(spec.variant, params)  # the lens, 0 < tau < 1, and a finite rate
    tau, om, g, gp = params.tau, params.omega, params.g, params.g_prime
    mu = spec.mu_value
    i_ab = mutual_information(params, spec)
    nu_plus, nu_minus = _nu_pm(om, g, gp)
    if spec.variant == NO_SWITCHING:
        nbar_plus, nbar_minus = _nbar_noswitching(tau, om, g, gp)
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
        holevo = entropy_h(nu_plus) + entropy_h(nu_minus) + math.log2((1.0 - tau) * tau * mu / gm)
        ratio = (1.0 - tau) / tau
        spread = (om, om) if mixed else (om + g, om - g, om + gp, om - gp)
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
