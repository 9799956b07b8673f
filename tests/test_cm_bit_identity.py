"""The q/p-sector kernels against plain interleaved reference forms.

The reference forms (``cm_reference``) act on interleaved CMs: they
index with np.ix_, build blocks with np.block/np.eye, multiply dense
matrices and rebuild the symplectic form on every call.  The kernels of
``cm_reference`` (``qp_*``) hold each state as its q and p sectors; each
kernel's output, assembled into one CM, must match its reference.  The
kernels that only move entries (TMSV, attack state, ``qp_keep``) and the
homodyne update match bit for bit, signed zeros included; the sector
beam splitter and the heterodyne update round differently from a dense
product and a ``solve``, and stay within a few ulps of the terms they
add.  The lossy channel matches the transmitted arms of the sector beam
splitter bit for bit up to the sign of a zero.  The channel and both
conditioning kernels skip factors of 1.0 and copy the entries they do
not change, so each is also held, signed zeros included, to its
entry-by-entry formula (``ref_channel_entrywise``,
``ref_condition_entrywise``), which applies every factor.  The kernels
also raise the error texts pinned here.

The library's pipeline does the same steps on packed sectors of one
fixed layout (``rates._joint_qp``, ``gaussian._measure_last``); each
step must match the kernels bit for bit, and raise their errors.

``ref_key_rate_numeric`` builds the six-mode state (a, A, a', A', e, E),
mixes each channel use with its ancilla on the sector beam splitter and
keeps (a, a', B, B'), then runs the conditioning kernels, with every
stage assembled into a validated ``CovMat`` and read back.  It splits
the joint CM into its mirror halves from the interleaved entries, and
sums scalar ``entropy_h``; the mutual information comes from
``rates.mutual_information`` as in the pipeline.  ``key_rate_numeric``
must match it byte for byte, and its errors in type and text, out to
the edges of the domain: mu up to 1e300, omega up to 1e150, tau = 1.
"""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cm_reference import (
    assemble_cm,
    cm_joint,
    qp_attack,
    qp_channel,
    qp_direct_sum,
    qp_heterodyne,
    qp_homodyne,
    qp_joint,
    qp_keep,
    qp_pack,
    qp_state,
    qp_tmsv,
    qp_unpack,
    ref_attack_cm,
    ref_beamsplitter_apply,
    ref_channel_entrywise,
    ref_condition_entrywise,
    ref_direct_sum,
    ref_heterodyne_condition,
    ref_homodyne_condition,
    ref_keep_modes,
    ref_sector_beamsplitter,
    ref_split_measured,
    ref_symplectic_spectrum,
    ref_tmsv_cm,
    ref_total_cm,
)
from conftest import random_attack
from gausskey import (
    AttackParams,
    DomainError,
    NumericalDegeneracyError,
    ProtocolSpec,
    entropy_h,
    key_rate_numeric,
)
from gausskey import gaussian, rates
from gausskey.gaussian import CovMat
from gausskey.rates import NO_SWITCHING, SWITCHING, SWITCHING_MIXED, VARIANTS

EPS = 2.0**-52

# Worst |kernel - reference| seen in 3,000 draws of random and pipeline
# states, in eps times the entry's scale (|S| |V| |S|^T for the beam
# splitter, |A| + |B| (C + I)^-1 |B|^T for heterodyne): 1.8 and 1.6.
BEAMSPLITTER_BUDGET = 4.0
HETERODYNE_BUDGET = 3.0
# The same for the lossy channel against one dense beam splitter per
# channel mode, in eps times |S| |V (+) N| |S|^T: 1.0 in 3,000 draws.
CHANNEL_BUDGET = 4.0

# ------------------------------------------------------- reference pipeline


def _stage(state):
    """state assembled into a validated CovMat and read back into sectors."""
    return qp_state(CovMat(assemble_cm(state)).mat)


def _mirror_spectrum(m):
    """Spectrum of the joint (a, a', B, B') CM from its mirror halves, read off m."""
    halves = ([], [])
    for j in (0, 1):
        x = m[j::2, j::2].tolist()
        if not (x[0][0] == x[1][1] and x[0][2] == x[1][3] and x[0][3] == x[1][2]
                and x[2][2] == x[3][3]):
            raise NumericalDegeneracyError(
                "joint state is not symmetric under swapping (a, B) with (a', B')"
            )
        halves[0].extend([x[0][0] + x[0][1], x[0][2] + x[0][3], x[2][2] + x[2][3]])
        halves[1].extend([x[0][0] - x[0][1], x[0][2] - x[0][3], x[2][2] - x[2][3]])
    nu = gaussian._qp_spectrum(*halves[0]) + gaussian._qp_spectrum(*halves[1])
    return np.sort(np.array(nu))[::-1]


def _two_mode_spectrum(m):
    (q00, q01), (_, q11) = m[0::2, 0::2].tolist()
    (p00, p01), (_, p11) = m[1::2, 1::2].tolist()
    return np.array(gaussian._qp_spectrum(q00, q01, q11, p00, p01, p11))


def ref_key_rate_numeric(params, spec):
    """key_rate_numeric with every stage a validated CovMat (see the module docstring)."""
    if spec.asymptotic:
        raise DomainError("key_rate_numeric needs a finite-modulation ProtocolSpec")
    rates._require_physical(params)
    rates._require_finite_mu(spec.mu)

    def het(state, mode):
        return _stage(qp_heterodyne(state, mode))

    def hom(state, mode, quadrature):
        return _stage(qp_homodyne(state, mode, quadrature))

    def entropy(spectrum):
        return float(sum(entropy_h(float(nu)) for nu in spectrum))

    source = _stage(qp_tmsv(spec.mu + 1.0))
    ancillas = _stage(qp_attack(params.omega, params.g, params.g_prime))
    src = _stage(qp_direct_sum(source, source, ancillas))
    mixed = _stage(ref_sector_beamsplitter(src, 1, 4, params.tau))
    mixed = _stage(ref_sector_beamsplitter(mixed, 3, 5, params.tau))
    V = _stage(qp_keep(mixed, (0, 2, 1, 3)))
    total_spectrum = _mirror_spectrum(assemble_cm(V))
    # every spectrum first, then the entropies: the first unphysical
    # eigenvalue, total spectrum first, raises
    if spec.variant == SWITCHING:
        spec_q = _two_mode_spectrum(assemble_cm(hom(hom(V, 3, "q"), 2, "q")))
        spec_p = _two_mode_spectrum(assemble_cm(hom(hom(V, 3, "p"), 2, "p")))
        s_total = entropy(total_spectrum)
        s_cond = 0.5 * (entropy(spec_q) + entropy(spec_p))
        cond_spectrum = np.sort(np.concatenate([spec_q, spec_p]))[::-1]
    else:
        if spec.variant == NO_SWITCHING:
            cond = het(het(V, 3), 2)
        else:
            cond = hom(hom(V, 3, "p"), 2, "q")
        cond_spectrum = _two_mode_spectrum(assemble_cm(cond))
        s_total = entropy(total_spectrum)
        s_cond = entropy(cond_spectrum)
    i_ab = rates.mutual_information(params, spec)
    holevo = s_total - s_cond
    return rates.RateReport(
        params=params,
        spec=spec,
        i_ab=i_ab,
        holevo=holevo,
        rate=(i_ab - holevo) / 2.0,
        total_spectrum=total_spectrum,
        conditional_spectrum=cond_spectrum,
    )


def report_bytes(report):
    """Every RateReport field: the inputs by value, the numbers as bytes."""
    def array_bytes(a):
        return type(a), a.dtype.str, a.shape, a.tobytes()

    floats = (report.i_ab, report.holevo, report.rate)
    return (
        report.params,
        report.spec,
        tuple(type(x) for x in floats),
        struct.pack("<3d", *floats),
        array_bytes(report.total_spectrum),
        array_bytes(report.conditional_spectrum),
    )


def outcome(fn, params, spec):
    """The report's bytes, or the type and text of the error raised."""
    try:
        return report_bytes(fn(params, spec))
    except (DomainError, NumericalDegeneracyError) as exc:
        return type(exc), str(exc)


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# --------------------------------------------------------------- strategies

seeds = st.integers(min_value=0, max_value=2**32 - 1)
mus = st.floats(min_value=1e2, max_value=1e6)


def _spd(rng, n, scale):
    a = rng.normal(size=(n, n)) * math.sqrt(scale)
    m = a @ a.T + np.eye(n)
    return (m + m.T) / 2.0


@st.composite
def qp_states(draw, min_modes=1, max_modes=4):
    """q and p sectors of random positive-definite states, some with large variances."""
    n = draw(st.integers(min_value=min_modes, max_value=max_modes))
    scale = draw(st.floats(min_value=1.0, max_value=1e6))
    rng = np.random.default_rng(draw(seeds))
    return _spd(rng, n, scale).tolist(), _spd(rng, n, scale).tolist()


@st.composite
def pipeline_states(draw):
    """Joint sender/receiver states as key_rate_numeric builds them, as rows."""
    params = random_attack(np.random.default_rng(draw(seeds)), omega_hi=100.0, strict=True)
    return qp_joint(params, draw(mus))


@st.composite
def conditional_states(draw):
    """Two-mode sender states conditioned as key_rate_numeric conditions them."""
    V = draw(pipeline_states())
    measured = draw(st.sampled_from([None, ("q", "q"), ("p", "p"), ("p", "q")]))
    if measured is None:
        return qp_heterodyne(qp_heterodyne(V, 3), 2)
    return qp_homodyne(qp_homodyne(V, 3, measured[0]), 2, measured[1])


@st.composite
def zero_laden_states(draw, min_modes=1, max_modes=4):
    """qp_states with some mirror pairs of off-diagonal entries set to 0.0 or -0.0."""
    state = draw(qp_states(min_modes, max_modes))
    for x in state:
        for i in range(len(x)):
            for j in range(i):
                zero = draw(st.sampled_from([None, None, 0.0, -0.0]))
                if zero is not None:
                    x[i][j] = x[j][i] = zero
    return state


def assert_exactly_symmetric(state):
    m = assemble_cm(state)
    assert m.tobytes() == m.T.tobytes()


any_state = st.one_of(qp_states(), pipeline_states(), conditional_states())
conditionable_state = st.one_of(qp_states(min_modes=2), pipeline_states())

# -------------------------------------------------------- kernels against references


@settings(max_examples=60, deadline=None)
@given(state=any_state, data=st.data())
def test_keep_modes_matches_ix_indexing(state, data):
    n = len(state[0])
    perm = data.draw(st.permutations(range(n)))
    subset = perm[: data.draw(st.integers(min_value=1, max_value=n))]
    for modes in (perm, subset, tuple(subset)):
        assert_same_bits(
            assemble_cm(qp_keep(state, modes)), ref_keep_modes(assemble_cm(state), modes)
        )


@settings(max_examples=60, deadline=None)
@given(state=conditionable_state)
def test_conditioning_matches_reference_on_every_mode(state):
    m = assemble_cm(state)
    for mode in range(len(state[0])):
        A, B, C = ref_split_measured(m, mode)
        scale = np.abs(A) + np.abs(B) @ np.diag(1.0 / (np.diag(C) + 1.0)) @ np.abs(B).T
        error = np.abs(
            assemble_cm(qp_heterodyne(state, mode)) - ref_heterodyne_condition(m, mode)
        )
        assert (error <= HETERODYNE_BUDGET * EPS * scale).all()
        for quadrature in ("q", "p"):
            assert_same_bits(
                assemble_cm(qp_homodyne(state, mode, quadrature)),
                ref_homodyne_condition(m, mode, quadrature),
            )


@settings(max_examples=100, deadline=None)
@given(
    mu=st.floats(min_value=1.0, max_value=1e12),
    omega=st.floats(min_value=1.0, max_value=1e6),
    u=st.floats(min_value=-1.0, max_value=1.0),
    v=st.floats(min_value=-1.0, max_value=1.0),
)
def test_tmsv_and_attack_cm_match_block_construction(mu, omega, u, v):
    assert_same_bits(assemble_cm(qp_tmsv(mu)), ref_tmsv_cm(mu))
    g, gp = u * omega, v * omega
    assert_same_bits(assemble_cm(qp_attack(omega, g, gp)), ref_attack_cm(omega, g, gp))
    assert_same_bits(assemble_cm(qp_attack(omega, -0.0, 0.0)), ref_attack_cm(omega, -0.0, 0.0))
    source = ref_tmsv_cm(mu)
    assert_same_bits(
        assemble_cm(qp_direct_sum(qp_state(source), qp_attack(omega, g, gp))),
        ref_direct_sum(source, ref_attack_cm(omega, g, gp)),
    )


def _abs_rotation(n_modes, a, b, tau):
    """|S| of the beam splitter on modes a, b, interleaved."""
    S = np.eye(2 * n_modes)
    t, r = math.sqrt(tau), math.sqrt(1.0 - tau)
    for k in range(2):
        S[2 * a + k, 2 * a + k] = S[2 * b + k, 2 * b + k] = t
        S[2 * a + k, 2 * b + k] = S[2 * b + k, 2 * a + k] = r
    return S


@settings(max_examples=60, deadline=None)
@given(state=conditionable_state, tau=st.floats(0.0, 1.0), data=st.data())
def test_beamsplitter_matches_five_eye_construction(state, tau, data):
    n = len(state[0])
    a, b = data.draw(st.permutations(range(n)))[:2]
    m = assemble_cm(state)
    error = np.abs(
        assemble_cm(ref_sector_beamsplitter(state, a, b, tau))
        - ref_beamsplitter_apply(m, a, b, tau)
    )
    S = _abs_rotation(n, a, b, tau)
    assert (error <= BEAMSPLITTER_BUDGET * EPS * (S @ np.abs(m) @ S.T)).all()


@settings(max_examples=100, deadline=None)
@given(state=qp_states(), tau=st.floats(0.0, 1.0), data=st.data())
def test_channel_is_the_transmitted_arm_of_beamsplitters(state, tau, data):
    """The channel is keep(beam splitters(state (+) env)): bit for bit, and near the dense form."""
    n = len(state[0])
    modes = tuple(data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))])
    env = data.draw(qp_states(min_modes=len(modes), max_modes=len(modes)))
    out = assemble_cm(qp_channel(state, modes, env, tau))
    chain = qp_direct_sum(state, env)
    for k, mode in enumerate(modes):
        chain = ref_sector_beamsplitter(chain, mode, n + k, tau)
    # + 0.0 maps -0.0 to 0.0: where t*x is -0.0 the rotation adds a +0.0
    # cross term and the channel does not, so only a zero's sign may differ
    # (the entrywise test below holds the signs)
    assert_same_bits(out + 0.0, assemble_cm(qp_keep(chain, range(n))) + 0.0)

    m = joint = ref_direct_sum(assemble_cm(state), assemble_cm(env))
    S = np.eye(len(joint))
    for k, mode in enumerate(modes):
        m = ref_beamsplitter_apply(m, mode, n + k, tau)
        S = _abs_rotation(n + len(modes), mode, n + k, tau) @ S
    scale = ref_keep_modes(S @ np.abs(joint) @ S.T, range(n))
    error = np.abs(out - ref_keep_modes(m, range(n)))
    assert (error <= CHANNEL_BUDGET * EPS * scale).all()


@settings(max_examples=150, deadline=None)
@given(
    state=zero_laden_states(),
    tau=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]),
    data=st.data(),
)
def test_channel_matches_entrywise_formula_bit_for_bit(state, tau, data):
    """Copied and once-scaled entries equal s_i*(s_j*x_ij), -0.0 included (no + 0.0 here)."""
    n = len(state[0])
    modes = tuple(data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))])
    env = data.draw(zero_laden_states(min_modes=len(modes), max_modes=len(modes)))
    before = assemble_cm(state).tobytes(), assemble_cm(env).tobytes()
    out = qp_channel(state, modes, env, tau)
    assert_same_bits(assemble_cm(out), assemble_cm(ref_channel_entrywise(state, modes, env, tau)))
    assert_exactly_symmetric(out)
    assert (assemble_cm(state).tobytes(), assemble_cm(env).tobytes()) == before


@settings(max_examples=100, deadline=None)
@given(state=st.one_of(zero_laden_states(min_modes=2), pipeline_states()))
def test_conditioning_matches_entrywise_update_bit_for_bit(state):
    """Both conditioning kernels on every mode: x_ij - c_i*c_j/d, exactly symmetric."""
    n = len(state[0])
    before = assemble_cm(state).tobytes()
    for mode in range(n):
        keep = [k for k in range(n) if k != mode]
        het = qp_heterodyne(state, mode)
        assert_same_bits(
            assemble_cm(het),
            assemble_cm([ref_condition_entrywise(x, mode, x[mode][mode] + 1.0) for x in state]),
        )
        assert_exactly_symmetric(het)
        for j, quadrature in enumerate("qp"):
            hom = qp_homodyne(state, mode, quadrature)
            expected = list(qp_keep(state, keep))
            expected[j] = ref_condition_entrywise(state[j], mode, state[j][mode][mode])
            assert_same_bits(assemble_cm(hom), assemble_cm(expected))
            assert_exactly_symmetric(hom)
    assert assemble_cm(state).tobytes() == before


# Worst |report.total_spectrum - eigh/svd oracle| seen in 2,000 draws of the
# test below, in eps * w_max * sqrt(w_max / w_min) with w the eigenvalues of
# the joint CM: 1.9.  The eigh/svd route's own error sets this scale.
ROUTE_BUDGET = 8.0


@settings(max_examples=30, deadline=None)
@given(seed=seeds, mu=mus, variant=st.sampled_from(VARIANTS))
def test_report_total_spectrum_is_the_spectrum_of_the_total_cm(seed, mu, variant):
    params = random_attack(np.random.default_rng(seed), omega_hi=100.0, strict=True)
    report = key_rate_numeric(params, ProtocolSpec(variant, mu=mu, asymptotic=False))
    V = cm_joint(params, mu)
    dense = ref_symplectic_spectrum(V)
    w = np.linalg.eigvalsh(V)
    bound = ROUTE_BUDGET * EPS * w[-1] * math.sqrt(w[-1] / w[0])
    assert np.abs(report.total_spectrum - dense).max() <= bound


# ------------------------------------------------- pipeline against the chain


@st.composite
def lens_points(draw, interior_only=False, omega_hi=1e3):
    """(omega, g, g') in the lens, interior or (unless interior_only) on its rim.

    omega is log-uniform up to omega_hi.  |g| <= sqrt(omega^2 - 1) spans
    the lens; for each g the two rim constraints bound g' to
    [-omega + 1/(omega + g), omega - 1/(omega - g)].  Rim points take an
    end of that interval (or g at its extreme) as computed, so round-off
    leaves some of them just outside the lens.
    """
    omega = math.exp(draw(st.floats(math.log(1.0001), math.log(omega_hi))))
    rim = not interior_only and draw(st.booleans())
    reach = math.sqrt(omega * omega - 1.0)
    if rim:
        a = draw(st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0))
        b = draw(st.sampled_from([0.0, 1.0]))
    else:
        a = draw(st.floats(-0.95, 0.95))
        b = draw(st.floats(0.05, 0.95))
    g = a * reach
    # past omega ~ 1e8, g = +-reach can round to -+omega: 1/(omega -+ g) is then omega +- g
    lo = -omega + 1.0 / (omega + g) if omega + g else g
    hi = omega - 1.0 / (omega - g) if omega - g else -g
    return omega, g, lo + b * (hi - lo)


# Half the draws at everyday omega and mu; the rest out to omega 1e150
# (omega^2 still finite) and mu 1e300 (where (mu + 1)^2 overflows).
edge_points = lens_points() | lens_points(omega_hi=1e150)
edge_mus = (st.floats(2.0, 8.0) | st.floats(0.01, 300.0)).map(lambda e: 10.0**e)


@settings(max_examples=600, deadline=None)
@given(
    point=edge_points,
    tau=st.floats(0.01, 0.99) | st.just(1.0),
    mu=edge_mus,
    variant=st.sampled_from(VARIANTS),
)
def test_numeric_report_matches_covmat_chain_bytes(point, tau, mu, variant):
    omega, g, gp = point
    params = AttackParams(tau=tau, omega=omega, g=g, g_prime=gp)
    spec = ProtocolSpec(variant, mu=mu, asymptotic=False)
    assert outcome(key_rate_numeric, params, spec) == outcome(ref_key_rate_numeric, params, spec)


def step_outcome(step, *args):
    """A step's sectors as one interleaved CM's bytes, or the type and text of its error."""
    try:
        return assemble_cm(step(*args)).tobytes()
    except (DomainError, NumericalDegeneracyError) as exc:
        return type(exc), str(exc)


def packed_joint(params, mu):
    return [qp_unpack(x) for x in rates._joint_qp(params, mu)]


def packed_measurement(state, quadrature):
    """The library's measurement of the last mode, on the packed sectors of state."""
    return [qp_unpack(x) for x in gaussian._measure_last(*map(qp_pack, state), quadrature)]


def kernel_measurement(state, quadrature):
    """The same measurement by the kernels: a heterodyne for "qp"."""
    last = len(state[0]) - 1
    if quadrature == "qp":
        return qp_heterodyne(state, last)
    return qp_homodyne(state, last, quadrature)


@settings(max_examples=200, deadline=None)
@given(point=edge_points, tau=st.floats(0.01, 0.99) | st.just(1.0), mu=edge_mus)
def test_packed_joint_state_matches_the_kernel_chain(point, tau, mu):
    params = AttackParams(tau, *point)
    assert step_outcome(packed_joint, params, mu) == step_outcome(qp_joint, params, mu)


@settings(max_examples=150, deadline=None)
@given(
    state=zero_laden_states(min_modes=3) | pipeline_states(),
    first=st.sampled_from([None, "qp", "q", "p"]),
)
def test_packed_measurement_matches_the_kernels_bit_for_bit(state, first):
    """Each of Bob's measurements on the last of four or three modes, signed zeros included."""
    if first is not None and len(state[0]) == 4:  # a three-mode state as the pipeline forms it
        state = kernel_measurement(state, first)
    before = assemble_cm(state).tobytes()
    for quadrature in ("qp", "q", "p"):
        expected = step_outcome(kernel_measurement, state, quadrature)
        assert step_outcome(packed_measurement, state, quadrature) == expected
    assert assemble_cm(state).tobytes() == before


def _crafted(n_modes, q_last, p_last, corner):
    """Identity sectors with the last mode's variances given and corner as X_0,last."""
    state = []
    for last in (q_last, p_last):
        x = np.eye(n_modes)
        x[-1, -1] = last
        x[0, -1] = x[-1, 0] = corner
        state.append(x.tolist())
    return state


_SINGULAR = "singular heterodyne update; measured block + I is not invertible"
_NON_FINITE = "covariance matrix contains non-finite entries"


@pytest.mark.parametrize("n_modes", [4, 3])
@pytest.mark.parametrize(
    "quadrature, q_last, p_last, corner, error, text",
    [
        ("qp", -1.0, 2.0, 0.0, NumericalDegeneracyError, _SINGULAR),
        ("qp", 2.0, -1.0, 0.0, NumericalDegeneracyError, _SINGULAR),
        (
            "q", 1e-14, 2.0, 0.0,
            DomainError, "degenerate homodyne measurement: q variance 1e-14 below 1e-12",
        ),
        (
            "p", 2.0, -3.0, 0.0,
            DomainError, "degenerate homodyne measurement: p variance -3 below 1e-12",
        ),
        ("qp", 1.0, 1.0, 1e200, DomainError, _NON_FINITE),
        ("q", 1.0, 1.0, 1e200, DomainError, _NON_FINITE),
        ("p", 1.0, 1.0, 1e200, DomainError, _NON_FINITE),
    ],
)
def test_packed_measurement_raises_the_kernel_errors(
    n_modes, quadrature, q_last, p_last, corner, error, text
):
    state = _crafted(n_modes, q_last, p_last, corner)
    assert step_outcome(packed_measurement, state, quadrature) == (error, text)
    assert step_outcome(kernel_measurement, state, quadrature) == (error, text)


@settings(max_examples=100, deadline=None)
@given(
    point=lens_points(interior_only=True),
    tau=st.floats(0.01, 0.99),
    mu=st.floats(2.0, 8.0).map(lambda e: 10.0**e),
    variant=st.sampled_from(VARIANTS),
)
def test_numeric_i_ab_is_mutual_information(point, tau, mu, variant):
    params = AttackParams(tau, *point)
    spec = ProtocolSpec(variant, mu=mu, asymptotic=False)
    report = key_rate_numeric(params, spec)
    expected = rates.mutual_information(params, spec)
    assert struct.pack("<d", report.i_ab) == struct.pack("<d", expected)


# Bound on |V_B|A - (tau + (1 - tau) omega)| for the double heterodyne
# conditioning, in units of eps*mu*omega.  The largest of 20,000 draws
# over this test's domain was 1.75.
RECEIVER_VARIANCE_BUDGET = 4.0


@settings(max_examples=300, deadline=None)
@given(
    point=lens_points(interior_only=True),
    tau=st.floats(0.01, 0.99) | st.just(1.0),
    mu=st.floats(2.0, 8.0).map(lambda e: 10.0**e),
)
def test_double_heterodyne_receiver_variance_is_the_closed_form(point, tau, mu):
    """The Schur-complement V_B|A that the pipeline once read, against its closed form."""
    omega, g, gp = point
    V = ref_total_cm(AttackParams(tau, omega, g, gp), mu)
    v_b_cond = ref_heterodyne_condition(ref_heterodyne_condition(V.mat, 0), 0)[0, 0]
    exact = Fraction(tau) + (1 - Fraction(tau)) * Fraction(omega)
    error = abs(Fraction(v_b_cond) - exact)
    assert error <= Fraction(RECEIVER_VARIANCE_BUDGET * 2.0**-52 * mu * omega)


PINNED_ERRORS = [
    pytest.param(
        (0.44, 1.2, 0.3, -0.1), NO_SWITCHING, 1e200,
        DomainError, "covariance matrix contains non-finite entries", id="mu-1e200",
    ),
    pytest.param(
        (0.44, 1.2, 0.3, -0.1), SWITCHING, 1.5e154,
        DomainError, "covariance matrix contains non-finite entries", id="mu-1.5e154",
    ),
    pytest.param(
        (0.5, 1e150, 0.0, 0.0), NO_SWITCHING, 1e10,
        NumericalDegeneracyError,
        "q and p sectors are not both positive definite, or their products overflow",
        id="omega-1e150",
    ),
    pytest.param(
        (1.0, 1.2, 0.3, -0.1), SWITCHING, 1e4,
        DomainError, "unphysical symplectic eigenvalue 0.9999999925501643 < 1",
        id="tau-1-switching",
    ),
    pytest.param(
        (1.0, 1.2, 0.3, -0.1), SWITCHING_MIXED, 1e4,
        DomainError, "unphysical symplectic eigenvalue 0.9999999925501643 < 1",
        id="tau-1-mixed",
    ),
    pytest.param(
        (0.5, 2.0, 1.9, -1.9), NO_SWITCHING, 1e4,
        DomainError,
        "unphysical attack parameters: violated "
        "omega*|g + g_prime| <= omega^2 + g*g_prime - 1 (0 > -0.61)",
        id="unphysical-g",
    ),
    pytest.param(
        (0.5, 2.0, 0.0, 0.0), NO_SWITCHING, None,
        DomainError, "key_rate_numeric needs a finite-modulation ProtocolSpec", id="asymptotic",
    ),
]


@pytest.mark.parametrize("point, variant, mu, error, text", PINNED_ERRORS)
def test_numeric_errors_pinned(point, variant, mu, error, text):
    params = AttackParams(*point)
    spec = ProtocolSpec(variant, mu=mu, asymptotic=mu is None)
    assert outcome(key_rate_numeric, params, spec) == (error, text)
    assert outcome(ref_key_rate_numeric, params, spec) == (error, text)


# ------------------------------------------------------------ kernel errors

# Each operation's kernel, under the operation name that the test ids carry.
KERNELS = {
    "tmsv_cm": qp_tmsv,
    "keep_modes": qp_keep,
    "heterodyne_condition": qp_heterodyne,
    "homodyne_condition": qp_homodyne,
}


def _bad_calls():
    V = qp_joint(AttackParams(0.44, 7.3, 0.3, -0.1), 1e4)
    flat = qp_state(np.diag([1.0, 1.0, 1e-14, 1e6]))
    return [
        ("mode index 4 out of range for 4 modes", "keep_modes", (V, (0, 4))),
        ("mode index -1 out of range for 4 modes", "heterodyne_condition", (V, -1)),
        ("mode index 7 out of range for 4 modes", "homodyne_condition", (V, 7, "q")),
        ("quadrature must be 'q' or 'p', got 'x'", "homodyne_condition", (V, 1, "x")),
        ("TMSV variance must satisfy mu >= 1, got 0.5", "tmsv_cm", (0.5,)),
        ("covariance matrix contains non-finite entries", "tmsv_cm", (1e200,)),
        (
            "degenerate homodyne measurement: q variance 1e-14 below 1e-12",
            "homodyne_condition",
            (flat, 1, "q"),
        ),
        (
            "conditioning needs at least one retained mode",
            "heterodyne_condition",
            (([[1.0]], [[1.0]]), 0),
        ),
    ]


@pytest.mark.parametrize("text, operation, args", _bad_calls())
def test_wrapper_and_kernel_raise_the_same_domain_error(text, operation, args):
    with pytest.raises(DomainError) as exc:
        KERNELS[operation](*args)
    assert str(exc.value) == text


@pytest.mark.parametrize(
    "mat, text",
    [
        (np.eye(3), "covariance matrix must be 2n x 2n, got shape (3, 3)"),
        (np.ones((2, 4)), "covariance matrix must be square, got shape (2, 4)"),
        (np.diag([1.0, np.inf]), "covariance matrix contains non-finite entries"),
        (np.array([[1.0, 1e-6], [0.0, 1.0]]), "covariance matrix is not symmetric to 1e-12"),
    ],
)
def test_public_entry_points_keep_covmat_validation(mat, text):
    with pytest.raises(DomainError) as exc:
        CovMat(mat)
    assert str(exc.value) == text


@pytest.mark.parametrize(
    "operation, args, text",
    [
        (  # the measured block + I is zero
            "heterodyne_condition",
            (qp_state(np.diag([1.0, 1.0, -1.0, -1.0])), 1),
            "singular heterodyne update; measured block + I is not invertible",
        ),
    ],
)
def test_wrapper_and_kernel_raise_the_same_degeneracy_error(operation, args, text):
    with pytest.raises(NumericalDegeneracyError) as exc:
        KERNELS[operation](*args)
    assert str(exc.value) == text


# ------------------------------------------------------ repeated bad calls


@pytest.mark.parametrize("bad", [-1, 3])
def test_bad_mode_message_unchanged_after_cached_calls(bad):
    """A bad mode raises the same text before and after good calls on the same state."""
    params = random_attack(np.random.default_rng(3))
    V = qp_keep(qp_joint(params, 1e3), (0, 1, 2))
    expected = f"mode index {bad} out of range for 3 modes"
    for _ in range(2):  # the second round runs after the good calls
        with pytest.raises(DomainError) as exc:
            qp_keep(V, (0, bad))
        assert str(exc.value) == expected
        with pytest.raises(DomainError) as exc:
            qp_heterodyne(V, bad)
        assert str(exc.value) == expected
        with pytest.raises(DomainError) as exc:
            qp_homodyne(V, bad, "q")
        assert str(exc.value) == expected
        qp_keep(V, (2, 0))
        qp_heterodyne(V, 1)
        qp_homodyne(V, 2, "p")


def test_single_mode_conditioning_still_rejected():
    with pytest.raises(DomainError, match="at least one retained mode"):
        qp_heterodyne(qp_keep(qp_tmsv(2.0), (0,)), 0)
