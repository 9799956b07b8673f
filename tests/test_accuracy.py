"""Entropy and closed-form rates against 40-digit mpmath, in units of eps.

The references are the docstring formulas written out in mpmath; they
share no code with gausskey.  Tolerances are in eps times max(1, size),
so that they mean "a few ulps" at every scale.  The size of an entropy
is its value.  The size of a rate is the sum of the magnitudes of the
terms its formula adds: the no-switching rate at small tau is a
difference of terms near log2(1/tau), and no evaluation in doubles
keeps its error below a few ulps of those terms.
"""

import math

import mpmath as mp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gausskey import (
    AttackParams,
    boundary_curve_arrays,
    entropy_h,
    entropy_h_array,
    key_rate_noswitching,
    key_rate_switching,
    key_rate_switching_mixed,
    key_rates,
    violated_constraint,
)

EPS = 2.0**-52
DPS = 40

# Attack eigenvalues stay at least this far above 1: h has slope
# log2(2/(x-1))/2 there, which turns the eps of each eigenvalue into
# about 6 eps of rate.
NU_MARGIN = 1.001

# Near 1 the plain float range is too coarse, so also draw 1 + 2**k.
above_one = st.one_of(
    st.floats(min_value=1.0 + 2.0**-52, max_value=1e12),
    st.floats(min_value=-52.0, max_value=39.8).map(lambda k: 1.0 + 2.0**k),
)


def h_mp(x):
    """h(x) = (x+1)/2 log2 (x+1)/2 - (x-1)/2 log2 (x-1)/2, and 0 for x <= 1.

    A boundary point's exact nu_- may lie a little below 1; entropy_h
    clamps such values (down to 1 - EPS_PHYS) to 1, and so does this.
    """
    x = mp.mpf(x)
    if x <= 1:
        return mp.mpf(0)
    a, b = (x + 1) / 2, (x - 1) / 2
    return a * mp.log(a, 2) - b * mp.log(b, 2)


def rate_terms_mp(variant, tau, om, g, gp):
    """The rate formulas of the key_rate_* docstrings in mpmath, as the terms they add."""
    tau, om, g, gp = (mp.mpf(v) for v in (tau, om, g, gp))
    nu_plus = mp.sqrt((om + g) * (om + gp))
    nu_minus = mp.sqrt((om - g) * (om - gp))
    attack = [-h_mp(nu_plus) / 2, -h_mp(nu_minus) / 2]
    if variant == "noswitching":
        lam = [1 + (1 - tau) * (om + c) for c in (g, gp, -g, -gp)]
        nbar_plus = mp.sqrt(lam[0] * lam[1]) / tau
        nbar_minus = mp.sqrt(lam[2] * lam[3]) / tau
        lead = mp.log(2 / mp.e * tau / ((1 - tau) * (1 + tau + (1 - tau) * om)), 2)
        return [lead, h_mp(nbar_plus) / 2, h_mp(nbar_minus) / 2, *attack]
    den = (1 - tau) * (tau + (1 - tau) * om)
    mean = mp.sqrt(nu_plus * nu_minus) if variant == "switching" else om
    return [mp.log(mean / den, 2) / 2, *attack]


def eps_error(value, exact, scale):
    return float(abs(mp.mpf(value) - exact)) / (EPS * max(1.0, float(scale)))


@settings(max_examples=300, deadline=None)
@given(above_one)
def test_entropy_within_4_eps_of_mpmath(x):
    with mp.workdps(DPS):
        exact = h_mp(x)
        assert eps_error(entropy_h(x), exact, exact) <= 4.0
        assert eps_error(entropy_h_array([x])[0], exact, exact) <= 4.0


@st.composite
def interior_points(draw):
    """(tau, omega, g, g') with both attack eigenvalues >= NU_MARGIN.

    omega is log-uniform in [1.01, 1e6]; g spans the allowed width and
    g' the interval on which (omega -+ g)(omega -+ g') >= NU_MARGIN**2.
    """
    omega = math.exp(draw(st.floats(min_value=math.log(1.01), max_value=math.log(1e6))))
    tau = draw(st.floats(min_value=0.01, max_value=0.99))
    m2 = NU_MARGIN * NU_MARGIN
    g = draw(st.floats(min_value=-1.0, max_value=1.0)) * math.sqrt(omega * omega - m2)
    lo = -omega + m2 / (omega + g)
    hi = omega - m2 / (omega - g)
    gp = lo + draw(st.floats(min_value=0.0, max_value=1.0)) * (hi - lo)
    assume(violated_constraint(AttackParams(tau, omega, g, gp)) is None)
    return tau, omega, g, gp


@st.composite
def boundary_points(draw):
    """(tau, omega, g, g') at a sample of boundary_curve_arrays, omega log-uniform in (1, 1e8].

    On the rim nu_- is 1 to within round-off, where h has unbounded
    slope; the samples are rounded into the lens, so nu_- >= 1 - EPS_PHYS/2.
    """
    omega = math.exp(draw(st.floats(min_value=0.0, max_value=math.log(1e8), exclude_min=True)))
    assume(omega > 1.0)
    tau = draw(st.floats(min_value=0.01, max_value=0.99))
    g, gp = boundary_curve_arrays(omega, draw(st.integers(min_value=2, max_value=401)))
    assume(g.size > 0)
    k = draw(st.integers(min_value=0, max_value=g.size - 1))
    return tau, omega, float(g[k]), float(gp[k])


@settings(max_examples=200, deadline=None)
@given(st.one_of(interior_points(), boundary_points()))
def test_closed_form_rates_within_16_eps_of_mpmath(point):
    tau, omega, g, gp = point
    params = AttackParams(tau, omega, g, gp)
    for variant, rate in (
        ("noswitching", key_rate_noswitching),
        ("switching", key_rate_switching),
        ("switching-mixed", key_rate_switching_mixed),
    ):
        with mp.workdps(DPS):
            terms = rate_terms_mp(variant, tau, omega, g, gp)
            exact = mp.fsum(terms)
            scale = mp.fsum(terms, absolute=True)
            assert eps_error(rate(params), exact, scale) <= 16.0, variant
            array = float(key_rates(variant, tau, omega, g, gp))
            assert eps_error(array, exact, scale) <= 16.0, variant
