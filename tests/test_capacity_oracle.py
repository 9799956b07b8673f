"""Key rates against channel-capacity formulas that share no derivation with them.

A balanced beam splitter on Bob's two outputs maps the two channel uses
to two independent thermal-loss channels of transmissivity tau, whose
environments are squeezed thermal states of symplectic eigenvalue nu_+
and nu_- (nu_+-^2 = (omega +- g)(omega +- g')).  No key rate beats the
repeaterless PLOB bound of those channels (Pirandola, Laurenza,
Ottaviani and Banchi, Nat. Commun. 8, 15043 (2017)):

    rate per use <= [B(tau, nu_+) + B(tau, nu_-)] / 2,
    B(tau, nu) = -log2((1 - tau) tau^n) - h(nu),  n = (nu - 1)/2,

and B = 0 once n >= tau/(1 - tau), where the channel breaks
entanglement.  At omega = 1 the attack is pure loss and the rates have
closed forms (Laudenbach et al., arXiv:1703.09278).  Only entropy_h and
these formulas are used here; no mpmath.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gausskey import EPS_PHYS, constraint_slack, entropy_h, key_rates, lens_mask

EPS = 2.0**-52
VARIANTS = ("noswitching", "switching", "switching-mixed")
taus = st.floats(min_value=0.001, max_value=0.999)


def plob(tau, nu):
    """PLOB bound of a thermal-loss channel with environment eigenvalue nu, bits per use."""
    n = (nu - 1.0) / 2.0
    if n >= tau / (1.0 - tau):
        return 0.0
    return -math.log2(1.0 - tau) - n * math.log2(tau) - entropy_h(nu)


@st.composite
def strict_interior_points(draw):
    """(tau, omega, g, g') in the open lens, omega log-uniform in (1, 1e8]."""
    omega = math.exp(draw(st.floats(min_value=0.0, max_value=math.log(1e8), exclude_min=True)))
    tau = draw(st.floats(min_value=0.01, max_value=0.99))
    g = draw(st.floats(min_value=-1.0, max_value=1.0)) * math.sqrt(max(omega * omega - 1.0, 0.0))
    # sqrt(omega^2 - 1) rounds to omega at large omega; such a g is outside the
    # open lens, and the rim bounds below would divide by zero
    assume(abs(g) < omega)
    lo = -omega + 1.0 / (omega + g)
    hi = omega - 1.0 / (omega - g)
    gp = lo + draw(st.floats(min_value=0.0, max_value=1.0)) * (hi - lo)
    assume(lens_mask(omega, g, gp) and constraint_slack(omega, g, gp) > EPS_PHYS)
    return tau, omega, g, gp


@settings(max_examples=300, deadline=None)
@given(strict_interior_points())
def test_rates_below_plob_bound_of_the_two_channels(point):
    tau, omega, g, gp = point
    nu_plus = math.sqrt((omega + g) * (omega + gp))
    nu_minus = math.sqrt((omega - g) * (omega - gp))
    bound = 0.5 * (plob(tau, nu_plus) + plob(tau, nu_minus))
    for variant in VARIANTS:
        assert float(key_rates(variant, tau, omega, g, gp)) <= bound, variant


def pure_loss_noswitching(tau):
    """log2(tau / (e (1 - tau))) + h((2 - tau)/tau), and the size of its two terms."""
    lead = math.log2(tau / (math.e * (1.0 - tau)))
    entropy = entropy_h((2.0 - tau) / tau)
    return lead + entropy, abs(lead) + entropy


@settings(max_examples=200, deadline=None)
@given(taus)
def test_pure_loss_rates_at_unit_omega(tau):
    """Within 4 eps of the terms' size (measured up to 2.2 eps over 20,000 taus)."""
    rate, size = pure_loss_noswitching(tau)
    got = float(key_rates("noswitching", tau, 1.0, 0.0, 0.0))
    assert abs(got - rate) <= 4.0 * EPS * max(1.0, size)
    half = -0.5 * math.log2(1.0 - tau)  # half the pure-loss PLOB capacity
    for variant in ("switching", "switching-mixed"):
        got = float(key_rates(variant, tau, 1.0, 0.0, 0.0))
        assert abs(got - half) <= 4.0 * EPS * max(1.0, half)


def test_pure_loss_rates_at_chosen_taus():
    for tau in (0.1, 0.5, 0.99):
        assert float(key_rates("noswitching", tau, 1.0, 0.0, 0.0)) == pure_loss_noswitching(tau)[0]
        half = -0.5 * math.log2(1.0 - tau)
        for variant in ("switching", "switching-mixed"):
            assert abs(float(key_rates(variant, tau, 1.0, 0.0, 0.0)) - half) <= 6e-17
    assert abs(float(key_rates("switching", 0.99, 1.0, 0.0, 0.0)) - 3.32192809488736) < 1e-14
    assert abs(pure_loss_noswitching(0.5)[0] - 0.5573049591) < 1e-10
