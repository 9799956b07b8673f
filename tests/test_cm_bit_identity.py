"""The covariance-matrix kernels against plain reference forms, bit for bit.

The reference forms (``cm_reference``) index with np.ix_, build blocks
with np.block/np.eye and rebuild the symplectic form on every call.  The
kernels of ``gausskey.gaussian`` take cached index arrays and fill
matrices entry by entry; every entry, signed zeros included, must come
out the same.  The kernels also raise the error texts pinned here.

``ref_key_rate_numeric`` chains the references with every stage wrapped
in a validated ``CovMat``, and takes the mutual information from
``rates.mutual_information`` as the pipeline does.  ``key_rate_numeric``
chains the private array kernels instead; its reports must match the
chained form byte for byte, and its errors in type and text.
"""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cm_reference import (
    ref_attack_cm,
    ref_beamsplitter_apply,
    ref_heterodyne_condition,
    ref_homodyne_condition,
    ref_keep_modes,
    ref_symplectic_form,
    ref_symplectic_spectrum,
    ref_tmsv_cm,
    ref_total_cm,
)
from conftest import random_attack
from gausskey import (
    AttackParams,
    CovMat,
    DomainError,
    NumericalDegeneracyError,
    ProtocolSpec,
    entropy_h,
    key_rate_numeric,
    symplectic_form,
    symplectic_spectrum,
)
from gausskey import attack, gaussian, rates
from gausskey.rates import NO_SWITCHING, SWITCHING, SWITCHING_MIXED, VARIANTS

# ------------------------------------------------------- reference pipeline


def ref_key_rate_numeric(params, spec):
    """key_rate_numeric from the plain references, every stage a validated CovMat."""
    if spec.asymptotic:
        raise DomainError("key_rate_numeric needs a finite-modulation ProtocolSpec")

    def het(V, mode):
        return CovMat(ref_heterodyne_condition(V.mat, mode))

    def hom(V, mode, quadrature):
        return CovMat(ref_homodyne_condition(V.mat, mode, quadrature))

    def entropy(spectrum):
        return float(sum(entropy_h(float(nu)) for nu in spectrum))

    V = ref_total_cm(params, spec.mu)
    total_spectrum = ref_symplectic_spectrum(V.mat)
    s_total = entropy(total_spectrum)
    if spec.variant == NO_SWITCHING:
        cond_spectrum = ref_symplectic_spectrum(het(het(V, 3), 2).mat)
        s_cond = entropy(cond_spectrum)
    elif spec.variant == SWITCHING:
        spec_q = ref_symplectic_spectrum(hom(hom(V, 3, "q"), 2, "q").mat)
        spec_p = ref_symplectic_spectrum(hom(hom(V, 3, "p"), 2, "p").mat)
        s_cond = 0.5 * (entropy(spec_q) + entropy(spec_p))
        cond_spectrum = np.sort(np.concatenate([spec_q, spec_p]))[::-1]
    else:
        cond_spectrum = ref_symplectic_spectrum(hom(hom(V, 3, "p"), 2, "q").mat)
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


@st.composite
def covariance_matrices(draw, min_modes=1, max_modes=4):
    """Symmetric positive-definite CMs, some with large variances."""
    n = draw(st.integers(min_value=min_modes, max_value=max_modes))
    scale = draw(st.floats(min_value=1.0, max_value=1e6))
    rng = np.random.default_rng(draw(seeds))
    a = rng.normal(size=(2 * n, 2 * n)) * math.sqrt(scale)
    m = a @ a.T + np.eye(2 * n)
    return (m + m.T) / 2.0


@st.composite
def pipeline_cms(draw):
    """Joint sender/receiver CMs as key_rate_numeric builds them."""
    params = random_attack(np.random.default_rng(draw(seeds)), omega_hi=100.0, strict=True)
    return rates._total_cm_via_beamsplitters(params, draw(mus))


@st.composite
def conditional_cms(draw):
    """Two-mode sender CMs conditioned as key_rate_numeric conditions them."""
    V = draw(pipeline_cms())
    measured = draw(st.sampled_from([None, ("q", "q"), ("p", "p"), ("p", "q")]))
    if measured is None:
        return gaussian._heterodyne(gaussian._heterodyne(V, 3), 2)
    return gaussian._homodyne(gaussian._homodyne(V, 3, measured[0]), 2, measured[1])


any_cm = st.one_of(covariance_matrices(), pipeline_cms(), conditional_cms())
conditionable_cm = st.one_of(covariance_matrices(min_modes=2), pipeline_cms())

# -------------------------------------------------------------- bit identity


@settings(max_examples=60, deadline=None)
@given(V=any_cm, data=st.data())
def test_keep_modes_matches_ix_indexing(V, data):
    n = V.shape[0] // 2
    perm = data.draw(st.permutations(range(n)))
    subset = perm[: data.draw(st.integers(min_value=1, max_value=n))]
    for modes in (perm, subset, list(subset)):
        assert_same_bits(gaussian._keep_modes(V, modes), ref_keep_modes(V, modes))


@settings(max_examples=60, deadline=None)
@given(V=conditionable_cm)
def test_conditioning_matches_reference_on_every_mode(V):
    for mode in range(V.shape[0] // 2):
        assert_same_bits(gaussian._heterodyne(V, mode), ref_heterodyne_condition(V, mode))
        for quadrature in ("q", "p"):
            assert_same_bits(
                gaussian._homodyne(V, mode, quadrature),
                ref_homodyne_condition(V, mode, quadrature),
            )


@settings(max_examples=100, deadline=None)
@given(
    mu=st.floats(min_value=1.0, max_value=1e12),
    omega=st.floats(min_value=1.0, max_value=1e6),
    u=st.floats(min_value=-1.0, max_value=1.0),
    v=st.floats(min_value=-1.0, max_value=1.0),
)
def test_tmsv_and_attack_cm_match_block_construction(mu, omega, u, v):
    assert_same_bits(gaussian._tmsv(mu), ref_tmsv_cm(mu))
    g, gp = u * omega, v * omega
    assert_same_bits(attack._attack_block(omega, g, gp), ref_attack_cm(omega, g, gp))
    assert_same_bits(attack._attack_block(omega, -0.0, 0.0), ref_attack_cm(omega, -0.0, 0.0))


@settings(max_examples=60, deadline=None)
@given(V=conditionable_cm, tau=st.floats(0.0, 1.0), data=st.data())
def test_beamsplitter_matches_five_eye_construction(V, tau, data):
    a, b = data.draw(st.permutations(range(V.shape[0] // 2)))[:2]
    assert_same_bits(
        gaussian._beamsplitter(V, a, b, tau), ref_beamsplitter_apply(V, a, b, tau)
    )


@settings(max_examples=60, deadline=None)
@given(V=any_cm)
def test_symplectic_spectrum_matches_uncached_form(V):
    expected = ref_symplectic_spectrum(V)
    assert_same_bits(gaussian._symplectic_spectrum(V), expected)
    assert_same_bits(symplectic_spectrum(CovMat(V)), expected)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, mu=mus, variant=st.sampled_from(VARIANTS))
def test_report_total_spectrum_is_the_spectrum_of_the_total_cm(seed, mu, variant):
    params = random_attack(np.random.default_rng(seed), omega_hi=100.0, strict=True)
    report = key_rate_numeric(params, ProtocolSpec(variant, mu=mu, asymptotic=False))
    V = rates._total_cm_via_beamsplitters(params, mu)
    assert_same_bits(report.total_spectrum, symplectic_spectrum(CovMat(V)))
    assert_same_bits(report.total_spectrum, ref_symplectic_spectrum(V))


# ------------------------------------------------- pipeline against the chain


@st.composite
def lens_points(draw, interior_only=False):
    """(omega, g, g') in the lens, interior or (unless interior_only) on its rim.

    |g| <= sqrt(omega^2 - 1) spans the lens; for each g the two rim
    constraints bound g' to [-omega + 1/(omega + g), omega - 1/(omega - g)].
    Rim points take an end of that interval (or g at its extreme) as
    computed, so round-off leaves some of them just outside the lens.
    """
    omega = math.exp(draw(st.floats(math.log(1.0001), math.log(1e3))))
    rim = not interior_only and draw(st.booleans())
    reach = math.sqrt(omega * omega - 1.0)
    if rim:
        a = draw(st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0))
        b = draw(st.sampled_from([0.0, 1.0]))
    else:
        a = draw(st.floats(-0.95, 0.95))
        b = draw(st.floats(0.05, 0.95))
    g = a * reach
    lo, hi = -omega + 1.0 / (omega + g), omega - 1.0 / (omega - g)
    return omega, g, lo + b * (hi - lo)


@settings(max_examples=300, deadline=None)
@given(
    point=lens_points(),
    tau=st.floats(0.01, 0.99) | st.just(1.0),
    mu=st.floats(2.0, 8.0).map(lambda e: 10.0**e),
    variant=st.sampled_from(VARIANTS),
)
def test_numeric_report_matches_covmat_chain_bytes(point, tau, mu, variant):
    omega, g, gp = point
    params = AttackParams(tau=tau, omega=omega, g=g, g_prime=gp)
    spec = ProtocolSpec(variant, mu=mu, asymptotic=False)
    assert outcome(key_rate_numeric, params, spec) == outcome(ref_key_rate_numeric, params, spec)


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
        DomainError, "unphysical symplectic eigenvalue 2.8914273913279026e-77 < 1",
        id="omega-1e150",
    ),
    pytest.param(
        (1.0, 1.2, 0.3, -0.1), SWITCHING, 1e4,
        DomainError, "unphysical symplectic eigenvalue 0.9999999965402822 < 1",
        id="tau-1-switching",
    ),
    pytest.param(
        (1.0, 1.2, 0.3, -0.1), SWITCHING_MIXED, 1e4,
        DomainError, "unphysical symplectic eigenvalue 0.9999999965402822 < 1",
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
    "tmsv_cm": gaussian._tmsv,
    "keep_modes": gaussian._keep_modes,
    "beamsplitter_apply": gaussian._beamsplitter,
    "heterodyne_condition": gaussian._heterodyne,
    "homodyne_condition": gaussian._homodyne,
    "symplectic_spectrum": gaussian._symplectic_spectrum,
}


def _bad_calls():
    V = rates._total_cm_via_beamsplitters(AttackParams(0.44, 7.3, 0.3, -0.1), 1e4)
    flat = np.diag([1.0, 1.0, 1e-14, 1e6])
    return [
        ("mode index 4 out of range for 4 modes", "keep_modes", (V, (0, 4))),
        ("mode index -1 out of range for 4 modes", "heterodyne_condition", (V, -1)),
        ("mode index 7 out of range for 4 modes", "homodyne_condition", (V, 7, "q")),
        ("mode index 4 out of range for 4 modes", "beamsplitter_apply", (V, 0, 4, 0.5)),
        ("beam splitter needs two distinct modes", "beamsplitter_apply", (V, 1, 1, 0.5)),
        ("quadrature must be 'q' or 'p', got 'x'", "homodyne_condition", (V, 1, "x")),
        ("transmissivity must lie in [0, 1], got 1.5", "beamsplitter_apply", (V, 0, 1, 1.5)),
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
            (np.eye(2), 0),
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
            (np.diag([1.0, 1.0, -1.0, -1.0]), 1),
            "singular heterodyne update; measured block + I is not invertible",
        ),
        (
            "symplectic_spectrum",
            (np.diag([1.0, -1.0]),),
            "covariance matrix has negative eigenvalue -1",
        ),
    ],
)
def test_wrapper_and_kernel_raise_the_same_degeneracy_error(operation, args, text):
    calls = [lambda: KERNELS[operation](*args)]
    if operation == "symplectic_spectrum":  # the public function takes a CovMat
        calls.append(lambda: symplectic_spectrum(CovMat(args[0])))
    for call in calls:
        with pytest.raises(NumericalDegeneracyError) as exc:
            call()
        assert str(exc.value) == text


# -------------------------------------------------------------- cache safety


def test_mutating_symplectic_form_leaves_spectrum_alone():
    # four modes: the route that uses the form
    V = gaussian._direct_sum(gaussian._tmsv(3.0), gaussian._tmsv(2.0))
    before = gaussian._symplectic_spectrum(V)
    form = symplectic_form(4)
    assert form.flags.writeable
    form[:] = 7.0
    assert_same_bits(gaussian._symplectic_spectrum(V), before)
    assert_same_bits(symplectic_form(4), ref_symplectic_form(4))


def test_cached_symplectic_form_is_read_only():
    gaussian._symplectic_spectrum(gaussian._direct_sum(gaussian._tmsv(2.0), gaussian._tmsv(2.0)))
    cached = gaussian._frozen_symplectic_form(4)
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 1] = 0.0
    assert_same_bits(cached, ref_symplectic_form(4))


def test_cached_block_indices_are_read_only():
    for index in gaussian._block_index(3, (1,)):
        assert not index.flags.writeable


@pytest.mark.parametrize("bad", [-1, 3])
def test_bad_mode_message_unchanged_after_cached_calls(bad):
    params = random_attack(np.random.default_rng(3))
    V = gaussian._keep_modes(rates._total_cm_via_beamsplitters(params, 1e3), (0, 1, 2))
    expected = f"mode index {bad} out of range for 3 modes"
    for _ in range(2):  # the second round runs with the good keys cached
        with pytest.raises(DomainError) as exc:
            gaussian._keep_modes(V, (0, bad))
        assert str(exc.value) == expected
        with pytest.raises(DomainError) as exc:
            gaussian._heterodyne(V, bad)
        assert str(exc.value) == expected
        with pytest.raises(DomainError) as exc:
            gaussian._homodyne(V, bad, "q")
        assert str(exc.value) == expected
        with pytest.raises(DomainError) as exc:
            gaussian._beamsplitter(V, 0, bad, 0.5)
        assert str(exc.value) == expected
        gaussian._keep_modes(V, (2, 0))
        gaussian._heterodyne(V, 1)
        gaussian._homodyne(V, 2, "p")
        gaussian._beamsplitter(V, 0, 2, 0.5)


def test_single_mode_conditioning_still_rejected():
    with pytest.raises(DomainError, match="at least one retained mode"):
        gaussian._heterodyne(gaussian._keep_modes(gaussian._tmsv(2.0), (0,)), 0)
