"""The q/p-sector route of the symplectic spectrum against 40-digit mpmath.

The library's only spectrum is the two-mode route
(``gaussian._qp_spectrum``), for a 4x4 CM whose q-p cross entries are all
exactly 0 and whose q and p sectors are strictly positive definite; the
finite-modulation pipeline takes every spectrum from it, the joint
state's through its mirror halves.  The test oracle
``cm_reference.ref_symplectic_spectrum`` takes the same route there and
the eigh/svd route (``cm_reference.ref_dense_spectrum``) for every other
CM.  The mpmath oracle here is written inline at 40 digits and knows
nothing of sectors.

Error bounds, each the worst seen in at least 24,000 draws of each
strategy, with headroom:
- against mpmath, within KAPPA_BUDGET * kappa * eps * nu_max, where kappa
  is the larger condition number of the two sectors (worst 1.97; a
  degenerate pair from strongly correlated sectors is the hard case);
- against the eigh/svd route, within ROUTE_BUDGET * eps * w_max *
  sqrt(w_max / w_min), with w the eigenvalues of V (worst 31, and below
  11 in 100,000 further draws).  That route's own error sets this scale:
  on the same draws it was up to 1.1e7 eps * nu_max off mpmath.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cm_reference import assemble_cm, ref_dense_spectrum, ref_is_physical, ref_symplectic_spectrum
from gausskey import AttackParams, NumericalDegeneracyError
from gausskey import gaussian, rates

EPS = 2.0**-52
KAPPA_BUDGET = 4.0
ROUTE_BUDGET = 64.0

_OMEGA = mp.matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


def mp_spectrum(m):
    """Symplectic eigenvalues of the float matrix m, descending, at 40 digits.

    They are the moduli of the eigenvalues of the Hermitian matrix
    i V^(1/2) Omega V^(1/2), each appearing as a +-pair; both
    eigensolvers are the Hermitian ones, which converge on the repeated
    eigenvalues of a degenerate pair.
    """
    with mp.workdps(40):
        w, U = mp.eigsy(mp.matrix(m.tolist()))
        root = U * mp.diag([mp.sqrt(x) for x in w]) * U.T
        vals = mp.eighe(mp.mpc(0, 1) * root * _OMEGA * root, eigvals_only=True)
        moduli = sorted((abs(v) for v in vals), reverse=True)
        return [(moduli[0] + moduli[1]) / 2, (moduli[2] + moduli[3]) / 2]


def sector_condition(s):
    """Condition number of the symmetric positive-definite 2x2 matrix s."""
    (a, b), (_, c) = s.tolist()
    big = (a + c) / 2.0 + math.hypot((a - c) / 2.0, b)
    return big * big / (a * c - b * b)


def two_mode_cm(Q, P):
    m = np.zeros((4, 4))
    m[0::2, 0::2] = Q
    m[1::2, 1::2] = P
    return m


def qp_route(m):
    """The two-mode route's spectrum of m, or None where it does not apply."""
    if m[0::2, 1::2].any() or m[1::2, 0::2].any():
        return None
    (q00, q01), (_, q11) = m[0::2, 0::2].tolist()
    (p00, p01), (_, p11) = m[1::2, 1::2].tolist()
    try:
        return np.array(gaussian._qp_spectrum(q00, q01, q11, p00, p01, p11))
    except NumericalDegeneracyError:
        return None


@st.composite
def sectors(draw):
    """A 2x2 positive-definite sector: eigenvalues in [1e-3, 1e6], any orientation.

    Equal eigenvalues and the 45-degree rotation (the most correlated
    sector for its spectrum) are drawn on purpose.
    """
    low = draw(st.floats(-3.0, 3.0))
    spread = draw(st.just(0.0) | st.floats(0.0, 3.0))
    angle = draw(st.sampled_from([0.0, math.pi / 4]) | st.floats(0.0, math.pi))
    a, b = 10.0**low, 10.0 ** (low + spread)
    c, s = math.cos(angle), math.sin(angle)
    off = (b - a) * c * s
    return np.array([[a * c * c + b * s * s, off], [off, a * s * s + b * c * c]])


@st.composite
def sector_pairs(draw):
    """(Q, P); in a degenerate pair P is a multiple of adj(Q), so nu_+ = nu_-."""
    Q = draw(sectors())
    if draw(st.booleans()):
        scale = 10.0 ** draw(st.floats(-2.0, 2.0))
        (a, b), (_, c) = Q.tolist()
        return Q, scale * np.array([[c, -b], [-b, a]])
    return Q, draw(sectors())


@st.composite
def pipeline_conditional_cms(draw):
    """Sender CMs conditioned as key_rate_numeric conditions them, origin included."""
    omega = math.exp(draw(st.floats(math.log(1.01), math.log(100.0))))
    tau = draw(st.floats(0.05, 0.95))
    if draw(st.booleans()):
        g = gp = 0.0
    else:
        reach = math.sqrt(omega * omega - 1.0)
        g = draw(st.floats(-0.9, 0.9)) * reach
        lo, hi = -omega + 1.0 / (omega + g), omega - 1.0 / (omega - g)
        gp = lo + draw(st.floats(0.05, 0.95)) * (hi - lo)
    mu = 10.0 ** draw(st.floats(2.0, 8.0))
    V = rates._joint_qp(AttackParams(tau, omega, g, gp), mu)
    measured = draw(st.sampled_from([None, ("q", "q"), ("p", "p"), ("p", "q")]))
    if measured is None:  # no-switching
        return assemble_cm(gaussian._qp_heterodyne(gaussian._qp_heterodyne(V, 3), 2))
    # switching measures (q, q) or (p, p); switching-mixed (p, q)
    hom = gaussian._qp_homodyne
    return assemble_cm(hom(hom(V, 3, measured[0]), 2, measured[1]))


def assert_route_accurate(m):
    spectrum = qp_route(m)
    assert spectrum is not None and spectrum.shape == (2,) and spectrum[0] >= spectrum[1]
    reference = mp_spectrum(m)
    kappa = max(sector_condition(m[0::2, 0::2]), sector_condition(m[1::2, 1::2]))
    bound = KAPPA_BUDGET * kappa * EPS * float(reference[0])
    for nu, exact in zip(spectrum.tolist(), reference):
        assert abs(nu - exact) <= bound
    w = np.linalg.eigvalsh(m)
    general = ref_dense_spectrum(m)
    assert np.abs(spectrum - general).max() <= ROUTE_BUDGET * EPS * w[-1] * math.sqrt(w[-1] / w[0])


@settings(max_examples=300, deadline=None)
@given(pair=sector_pairs())
def test_two_mode_route_on_random_sectors(pair):
    m = two_mode_cm(*pair)
    assert qp_route(m) is not None
    assert_route_accurate(m)


@settings(max_examples=200, deadline=None)
@given(m=pipeline_conditional_cms())
def test_two_mode_route_on_pipeline_states(m):
    assert qp_route(m) is not None
    assert_route_accurate(m)


def test_public_entry_points_share_the_route():
    """The kernel's entry points and the test oracle give the same bits on a two-mode state."""
    m = two_mode_cm(np.array([[2.0, 0.5], [0.5, 3.0]]), np.array([[1.5, -0.2], [-0.2, 1.0]]))
    route = qp_route(m)
    assert ref_symplectic_spectrum(m).tobytes() == route.tobytes()
    (q00, q01), (_, q11) = m[0::2, 0::2].tolist()
    (p00, p01), (_, p11) = m[1::2, 1::2].tolist()
    spectrum = gaussian._qp_spectrum(q00, q01, q11, p00, p01, p11)
    assert np.array(spectrum).tobytes() == route.tobytes()
    assert ref_is_physical(m) == bool(route[-1] >= 1.0 - gaussian.EPS_PHYS)


def test_mirror_split_refuses_an_asymmetric_state():
    """The joint state's spectrum has no other route: a broken mirror entry raises."""
    q, p = rates._joint_qp(AttackParams(0.44, 7.3, 0.3, -0.1), 1e4)
    assert gaussian._qp_mirror_spectrum((q, p)).shape == (4,)
    q[1][3] = q[3][1] = math.nextafter(q[0][2], math.inf)  # X_a'B' one ulp off X_aB
    with pytest.raises(NumericalDegeneracyError) as exc:
        gaussian._qp_mirror_spectrum((q, p))
    assert str(exc.value) == "joint state is not symmetric under swapping (a, B) with (a', B')"


@pytest.mark.parametrize(
    "m",
    [
        pytest.param(np.diag([1.0, 1.0, -1.0, 1.0]), id="q-sector-indefinite"),
        pytest.param(
            np.array([[1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0]]),
            id="q-p-correlated",
        ),
    ],
)
def test_other_inputs_keep_the_general_route_error(m):
    assert qp_route(m) is None
    for spectrum in (ref_symplectic_spectrum, ref_dense_spectrum):
        with pytest.raises(NumericalDegeneracyError) as exc:
            spectrum(m)
        assert str(exc.value) == "covariance matrix has negative eigenvalue -1"


def outcome(spectrum, m):
    """The spectrum's bytes, or the text of the degeneracy error raised."""
    try:
        return spectrum(m).tobytes()
    except NumericalDegeneracyError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(pair=sector_pairs(), data=st.data())
def test_other_inputs_keep_the_general_route_bits(pair, data):
    correlated = two_mode_cm(*pair)
    at = data.draw(st.sampled_from([(0, 1), (0, 3), (2, 1), (2, 3)]))
    correlated[at] = correlated[at[::-1]] = data.draw(st.sampled_from([1e-300, -1e-3, 0.1]))
    singular = two_mode_cm(np.diag([1.0, 0.0]), pair[1])  # semidefinite q sector
    for m in (correlated, singular):
        assert qp_route(m) is None
        assert outcome(ref_symplectic_spectrum, m) == outcome(ref_dense_spectrum, m)
