"""The covariance-matrix helpers against plain reference forms, bit for bit.

The references below index with np.ix_, build blocks with np.block/np.eye
and rebuild the symplectic form on every call.  The helpers take cached
index arrays and fill matrices entry by entry; every entry, signed zeros
included, must come out the same.

``ref_key_rate_numeric`` chains the references the way the pipeline once
chained the public functions, wrapping every stage in a validated
``CovMat``, and takes the mutual information from
``rates.mutual_information`` as the pipeline does.  ``key_rate_numeric``
runs on the private array kernels instead; its reports must match the
chained form byte for byte, and its errors in type and text.
"""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_attack
from gausskey import (
    AttackParams,
    CovMat,
    DomainError,
    NumericalDegeneracyError,
    ProtocolSpec,
    attack_cm,
    beamsplitter_apply,
    direct_sum,
    entropy_h,
    heterodyne_condition,
    homodyne_condition,
    keep_modes,
    key_rate_numeric,
    symplectic_form,
    symplectic_spectrum,
    tmsv_cm,
    violated_constraint,
)
from gausskey import attack, gaussian, rates
from gausskey.rates import (
    NO_SWITCHING,
    SWITCHING,
    SWITCHING_MIXED,
    VARIANTS,
    total_cm_via_beamsplitters,
)

# --------------------------------------------------------- reference copies


def ref_symplectic_form(n_modes):
    single = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = single
    return out


def ref_keep_modes(m, modes):
    idx = [i for k in modes for i in (2 * k, 2 * k + 1)]
    return m[np.ix_(idx, idx)]


def ref_split_measured(m, mode):
    n = m.shape[0] // 2
    idx = [i for k in range(n) if k != mode for i in (2 * k, 2 * k + 1)]
    midx = [2 * mode, 2 * mode + 1]
    return m[np.ix_(idx, idx)], m[np.ix_(idx, midx)], m[np.ix_(midx, midx)]


def ref_heterodyne_condition(m, mode):
    A, B, C = ref_split_measured(m, mode)
    out = A - B @ np.linalg.solve(C + np.eye(2), B.T)
    return (out + out.T) / 2.0


def ref_homodyne_condition(m, mode, quadrature):
    A, B, C = ref_split_measured(m, mode)
    j = 0 if quadrature == "q" else 1
    if C[j, j] < 1e-12:
        raise DomainError(
            f"degenerate homodyne measurement: {quadrature} variance {C[j, j]:g} below 1e-12"
        )
    b = B[:, j]
    out = A - np.outer(b, b) / C[j, j]
    return (out + out.T) / 2.0


def ref_tmsv_cm(mu):
    c = math.sqrt(mu * mu - 1.0)
    eye2 = np.eye(2)
    z = np.diag([1.0, -1.0])
    with np.errstate(invalid="ignore"):  # c = inf once mu*mu overflows: inf * 0 is NaN
        return np.block([[mu * eye2, c * z], [c * z, mu * eye2]])


def ref_direct_sum(*mats):
    out = np.zeros((sum(m.shape[0] for m in mats),) * 2)
    at = 0
    for m in mats:
        out[at : at + m.shape[0], at : at + m.shape[0]] = m
        at += m.shape[0]
    return out


def ref_attack_cm(omega, g, g_prime):
    eye2 = np.eye(2)
    G = np.diag([g, g_prime])
    return np.block([[omega * eye2, G], [G, omega * eye2]])


def ref_beamsplitter_apply(m, mode_a, mode_b, tau):
    t = math.sqrt(tau)
    r = math.sqrt(1.0 - tau)
    S = np.eye(m.shape[0])
    a, b = 2 * mode_a, 2 * mode_b
    S[a : a + 2, a : a + 2] = t * np.eye(2)
    S[a : a + 2, b : b + 2] = r * np.eye(2)
    S[b : b + 2, a : a + 2] = -r * np.eye(2)
    S[b : b + 2, b : b + 2] = t * np.eye(2)
    out = S @ m @ S.T
    return (out + out.T) / 2.0


def ref_two_mode_spectrum(m):
    """The q/p-sector route of a two-mode CM, from its 2x2 sector matrices, or None."""
    if m.shape != (4, 4) or m[0::2, 1::2].any() or m[1::2, 0::2].any():
        return None
    (q00, _), (q01, q11) = m[0::2, 0::2].tolist()
    (p00, _), (p01, p11) = m[1::2, 1::2].tolist()
    det_q = q00 * q11 - q01 * q01
    det_p = p00 * p11 - p01 * p01
    if not (q00 > 0.0 and det_q > 0.0 and p00 > 0.0 and det_p > 0.0):
        return None
    root = math.sqrt(det_p)
    M = [[p00 + root, p01], [p01, p11 + root]]
    Q = [[q00, q01], [q01, q11]]
    MQ = [[M[i][0] * Q[0][j] + M[i][1] * Q[1][j] for j in range(2)] for i in range(2)]
    trace = M[0][0] + M[1][1]
    S = [[(MQ[i][0] * M[0][j] + MQ[i][1] * M[1][j]) / trace for j in range(2)] for i in range(2)]
    big = (S[0][0] + S[1][1]) / 2.0 + math.hypot((S[0][0] - S[1][1]) / 2.0, S[0][1])
    small = min(det_q * det_p / big, big)
    if not (math.isfinite(big) and 0.0 < small < math.inf):
        return None
    return np.array([math.sqrt(big), math.sqrt(small)])


def ref_symplectic_spectrum(m):
    two_mode = ref_two_mode_spectrum(m)
    if two_mode is not None:
        return two_mode
    w, U = np.linalg.eigh(m)
    if w[0] < -1e-9 * max(1.0, float(w[-1])):
        raise NumericalDegeneracyError(f"covariance matrix has negative eigenvalue {w[0]:g}")
    root = (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T
    L = root @ ref_symplectic_form(m.shape[0] // 2) @ root
    sv = np.linalg.svd(L, compute_uv=False)
    worst = np.max(np.abs(sv[0::2] - sv[1::2]))
    if worst > 1e-9 * max(1.0, sv[0]):
        raise NumericalDegeneracyError(
            "symplectic spectrum did not split into doubled singular values "
            f"(worst pair mismatch {worst:g})"
        )
    return (sv[0::2] + sv[1::2]) / 2.0


def ref_total_cm(params, mu):
    """The joint CM as validated CovMats chained through every stage."""
    violated = violated_constraint(params)
    if violated is not None:
        raise DomainError(f"unphysical attack parameters: violated {violated}")
    if not (math.isfinite(mu) and mu > 1.0):
        raise DomainError(f"modulation variance must be finite and > 1, got {mu}")
    source = CovMat(ref_tmsv_cm(mu + 1.0))
    ancilla = CovMat(ref_attack_cm(params.omega, params.g, params.g_prime))
    src = CovMat(ref_direct_sum(source.mat, source.mat, ancilla.mat))
    mixed = CovMat(ref_beamsplitter_apply(src.mat, 1, 4, params.tau))
    mixed = CovMat(ref_beamsplitter_apply(mixed.mat, 3, 5, params.tau))
    return CovMat(ref_keep_modes(mixed.mat, (0, 2, 1, 3)))


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
    return CovMat((m + m.T) / 2.0)


@st.composite
def pipeline_cms(draw):
    """Joint sender/receiver CMs as key_rate_numeric builds them."""
    params = random_attack(np.random.default_rng(draw(seeds)), omega_hi=100.0, strict=True)
    return total_cm_via_beamsplitters(params, draw(mus))


@st.composite
def conditional_cms(draw):
    """Two-mode sender CMs conditioned as key_rate_numeric conditions them."""
    V = draw(pipeline_cms())
    measured = draw(st.sampled_from([None, ("q", "q"), ("p", "p"), ("p", "q")]))
    if measured is None:
        return heterodyne_condition(heterodyne_condition(V, 3), 2)
    return homodyne_condition(homodyne_condition(V, 3, measured[0]), 2, measured[1])


any_cm = st.one_of(covariance_matrices(), pipeline_cms(), conditional_cms())
conditionable_cm = st.one_of(covariance_matrices(min_modes=2), pipeline_cms())

# -------------------------------------------------------------- bit identity


@settings(max_examples=60, deadline=None)
@given(V=any_cm, data=st.data())
def test_keep_modes_matches_ix_indexing(V, data):
    n = V.n_modes
    perm = data.draw(st.permutations(range(n)))
    subset = perm[: data.draw(st.integers(min_value=1, max_value=n))]
    for modes in (perm, subset, list(subset)):
        assert_same_bits(keep_modes(V, modes).mat, ref_keep_modes(V.mat, modes))


@settings(max_examples=60, deadline=None)
@given(V=conditionable_cm)
def test_conditioning_matches_reference_on_every_mode(V):
    for mode in range(V.n_modes):
        assert_same_bits(
            heterodyne_condition(V, mode).mat, ref_heterodyne_condition(V.mat, mode)
        )
        for quadrature in ("q", "p"):
            assert_same_bits(
                homodyne_condition(V, mode, quadrature).mat,
                ref_homodyne_condition(V.mat, mode, quadrature),
            )


@settings(max_examples=100, deadline=None)
@given(
    mu=st.floats(min_value=1.0, max_value=1e12),
    omega=st.floats(min_value=1.0, max_value=1e6),
    u=st.floats(min_value=-1.0, max_value=1.0),
    v=st.floats(min_value=-1.0, max_value=1.0),
)
def test_tmsv_and_attack_cm_match_block_construction(mu, omega, u, v):
    assert_same_bits(tmsv_cm(mu).mat, ref_tmsv_cm(mu))
    g, gp = u * omega, v * omega
    assert_same_bits(attack_cm(omega, g, gp).mat, ref_attack_cm(omega, g, gp))
    assert_same_bits(attack_cm(omega, -0.0, 0.0).mat, ref_attack_cm(omega, -0.0, 0.0))


@settings(max_examples=60, deadline=None)
@given(V=conditionable_cm, tau=st.floats(0.0, 1.0), data=st.data())
def test_beamsplitter_matches_five_eye_construction(V, tau, data):
    a, b = data.draw(st.permutations(range(V.n_modes)))[:2]
    assert_same_bits(
        beamsplitter_apply(V, a, b, tau).mat, ref_beamsplitter_apply(V.mat, a, b, tau)
    )


@settings(max_examples=60, deadline=None)
@given(V=any_cm)
def test_symplectic_spectrum_matches_uncached_form(V):
    assert_same_bits(symplectic_spectrum(V), ref_symplectic_spectrum(V.mat))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, mu=mus, variant=st.sampled_from(VARIANTS))
def test_report_total_spectrum_is_the_spectrum_of_the_total_cm(seed, mu, variant):
    params = random_attack(np.random.default_rng(seed), omega_hi=100.0, strict=True)
    report = key_rate_numeric(params, ProtocolSpec(variant, mu=mu, asymptotic=False))
    V = total_cm_via_beamsplitters(params, mu)
    assert_same_bits(report.total_spectrum, symplectic_spectrum(V))
    assert_same_bits(report.total_spectrum, ref_symplectic_spectrum(V.mat))


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


# ----------------------------------------------------- wrappers and kernels

KERNEL_OF = {
    tmsv_cm: gaussian._tmsv,
    attack_cm: attack._attack_block,
    direct_sum: gaussian._direct_sum,
    keep_modes: gaussian._keep_modes,
    beamsplitter_apply: gaussian._beamsplitter,
    heterodyne_condition: gaussian._heterodyne,
    homodyne_condition: gaussian._homodyne,
    symplectic_spectrum: gaussian._symplectic_spectrum,
    total_cm_via_beamsplitters: rates._total_cm_via_beamsplitters,
}


def call_both(public, args):
    """The public call and its kernel's call, CovMat arguments passed as arrays."""
    raw = [a.mat if isinstance(a, CovMat) else a for a in args]
    return (lambda: public(*args)), (lambda: KERNEL_OF[public](*raw))


def _wrapped_calls():
    params = AttackParams(0.44, 7.3, 0.3, -0.1)
    V = total_cm_via_beamsplitters(params, 1e4)
    src = direct_sum(tmsv_cm(1e4), tmsv_cm(1e4), attack_cm(7.3, 0.3, -0.1))
    calls = [
        (tmsv_cm, (1e4,)),
        (attack_cm, (7.3, 0.3, -0.1)),
        (direct_sum, (V, tmsv_cm(3.0))),
        (keep_modes, (V, (3, 0, 2))),
        (beamsplitter_apply, (src, 1, 4, 0.44)),
        (heterodyne_condition, (V, 2)),
        (homodyne_condition, (V, 3, "p")),
        (symplectic_spectrum, (V,)),
        (total_cm_via_beamsplitters, (params, 1e4)),
    ]
    return [pytest.param(public, args, id=public.__name__) for public, args in calls]


@pytest.mark.parametrize("public, args", _wrapped_calls())
def test_public_function_wraps_its_kernel(public, args):
    wrapped, kernel = call_both(public, args)
    result, raw = wrapped(), kernel()
    assert isinstance(raw, np.ndarray)
    if isinstance(result, CovMat):
        assert not result.mat.flags.writeable
        assert_same_bits(result.mat, raw)
    else:  # the spectrum is a plain array
        assert isinstance(result, np.ndarray)
        assert_same_bits(result, raw)


def _bad_calls():
    V = total_cm_via_beamsplitters(AttackParams(0.44, 7.3, 0.3, -0.1), 1e4)
    flat = CovMat(np.diag([1.0, 1.0, 1e-14, 1e6]))
    return [
        ("mode index 4 out of range for 4 modes", keep_modes, (V, (0, 4))),
        ("mode index -1 out of range for 4 modes", heterodyne_condition, (V, -1)),
        ("mode index 7 out of range for 4 modes", homodyne_condition, (V, 7, "q")),
        ("mode index 4 out of range for 4 modes", beamsplitter_apply, (V, 0, 4, 0.5)),
        ("beam splitter needs two distinct modes", beamsplitter_apply, (V, 1, 1, 0.5)),
        ("quadrature must be 'q' or 'p', got 'x'", homodyne_condition, (V, 1, "x")),
        ("transmissivity must lie in [0, 1], got 1.5", beamsplitter_apply, (V, 0, 1, 1.5)),
        ("TMSV variance must satisfy mu >= 1, got 0.5", tmsv_cm, (0.5,)),
        ("covariance matrix contains non-finite entries", tmsv_cm, (1e200,)),
        (
            "degenerate homodyne measurement: q variance 1e-14 below 1e-12",
            homodyne_condition,
            (flat, 1, "q"),
        ),
        (
            "conditioning needs at least one retained mode",
            heterodyne_condition,
            (CovMat(np.eye(2)), 0),
        ),
    ]


@pytest.mark.parametrize("text, public, args", _bad_calls())
def test_wrapper_and_kernel_raise_the_same_domain_error(text, public, args):
    for call in call_both(public, args):
        with pytest.raises(DomainError) as exc:
            call()
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
    "public, args, text",
    [
        (  # the measured block + I is zero
            heterodyne_condition,
            (CovMat(np.diag([1.0, 1.0, -1.0, -1.0])), 1),
            "singular heterodyne update; measured block + I is not invertible",
        ),
        (
            symplectic_spectrum,
            (CovMat(np.diag([1.0, -1.0])),),
            "covariance matrix has negative eigenvalue -1",
        ),
    ],
)
def test_wrapper_and_kernel_raise_the_same_degeneracy_error(public, args, text):
    for call in call_both(public, args):
        with pytest.raises(NumericalDegeneracyError) as exc:
            call()
        assert str(exc.value) == text


# -------------------------------------------------------------- cache safety


def test_mutating_symplectic_form_leaves_spectrum_alone():
    V = direct_sum(tmsv_cm(3.0), tmsv_cm(2.0))  # four modes: the route that uses the form
    before = symplectic_spectrum(V)
    form = symplectic_form(4)
    assert form.flags.writeable
    form[:] = 7.0
    assert_same_bits(symplectic_spectrum(V), before)
    assert_same_bits(symplectic_form(4), ref_symplectic_form(4))


def test_cached_symplectic_form_is_read_only():
    symplectic_spectrum(direct_sum(tmsv_cm(2.0), tmsv_cm(2.0)))
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
    V = keep_modes(total_cm_via_beamsplitters(params, 1e3), (0, 1, 2))
    expected = f"mode index {bad} out of range for 3 modes"
    for _ in range(2):  # the second round runs with the good keys cached
        with pytest.raises(DomainError) as exc:
            keep_modes(V, (0, bad))
        assert str(exc.value) == expected
        with pytest.raises(DomainError) as exc:
            heterodyne_condition(V, bad)
        assert str(exc.value) == expected
        with pytest.raises(DomainError) as exc:
            homodyne_condition(V, bad, "q")
        assert str(exc.value) == expected
        with pytest.raises(DomainError) as exc:
            beamsplitter_apply(V, 0, bad, 0.5)
        assert str(exc.value) == expected
        keep_modes(V, (2, 0))
        heterodyne_condition(V, 1)
        homodyne_condition(V, 2, "p")
        beamsplitter_apply(V, 0, 2, 0.5)


def test_single_mode_conditioning_still_rejected():
    with pytest.raises(DomainError, match="at least one retained mode"):
        heterodyne_condition(keep_modes(tmsv_cm(2.0), (0,)), 0)
