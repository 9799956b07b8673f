"""The covariance-matrix helpers against plain reference forms, bit for bit.

The references below index with np.ix_, build blocks with np.block/np.eye
and rebuild the symplectic form on every call.  The helpers take cached
index arrays and fill matrices entry by entry; every entry, signed zeros
included, must come out the same.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_attack
from gausskey import (
    CovMat,
    DomainError,
    ProtocolSpec,
    attack_cm,
    beamsplitter_apply,
    heterodyne_condition,
    homodyne_condition,
    keep_modes,
    key_rate_numeric,
    symplectic_form,
    symplectic_spectrum,
    tmsv_cm,
)
from gausskey import gaussian
from gausskey.rates import VARIANTS, total_cm_via_beamsplitters

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
    b = B[:, j]
    out = A - np.outer(b, b) / C[j, j]
    return (out + out.T) / 2.0


def ref_tmsv_cm(mu):
    c = math.sqrt(mu * mu - 1.0)
    eye2 = np.eye(2)
    z = np.diag([1.0, -1.0])
    return np.block([[mu * eye2, c * z], [c * z, mu * eye2]])


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


def ref_symplectic_spectrum(m):
    w, U = np.linalg.eigh(m)
    root = (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T
    L = root @ ref_symplectic_form(m.shape[0] // 2) @ root
    sv = np.linalg.svd(L, compute_uv=False)
    assert np.max(np.abs(sv[0::2] - sv[1::2])) <= 1e-9 * max(1.0, sv[0])
    return (sv[0::2] + sv[1::2]) / 2.0


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


any_cm = st.one_of(covariance_matrices(), pipeline_cms())
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


# -------------------------------------------------------------- cache safety


def test_mutating_symplectic_form_leaves_spectrum_alone():
    V = tmsv_cm(3.0)
    before = symplectic_spectrum(V)
    form = symplectic_form(2)
    assert form.flags.writeable
    form[:] = 7.0
    assert_same_bits(symplectic_spectrum(V), before)
    assert_same_bits(symplectic_form(2), ref_symplectic_form(2))


def test_cached_symplectic_form_is_read_only():
    symplectic_spectrum(tmsv_cm(2.0))
    cached = gaussian._frozen_symplectic_form(2)
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 1] = 0.0
    assert_same_bits(cached, ref_symplectic_form(2))


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
