"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from gausskey import (
    DEFAULT_MU,
    AttackParams,
    ProtocolSpec,
    analytic_detH_noswitching,
    analytic_detH_switching,
    analytic_second_derivs_switching,
    entropy_h,
    hessian_at_origin,
    key_rate_asymptotic,
    key_rate_numeric,
    find_zero_rate_transmissivity,
    rate_function,
    rate_report,
    verify_minimality,
)
from gausskey.rates import NO_SWITCHING, SWITCHING
from cm_reference import (
    assemble_cm,
    cm_attack,
    cm_channel,
    cm_direct_sum,
    cm_heterodyne,
    cm_homodyne,
    cm_keep_modes,
    cm_tmsv,
    qp_state,
    ref_is_physical,
    ref_sector_beamsplitter,
    ref_symplectic_spectrum,
)
from conftest import random_attack


def _report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_1_zero_rate_point():
    start = time.perf_counter()
    tau_star = find_zero_rate_transmissivity(NO_SWITCHING, 1.2)
    elapsed = time.perf_counter() - start
    assert tau_star == pytest.approx(0.44, abs=0.005)
    assert elapsed < 1.0
    _report(
        "criterion 1 (zero-rate transmissivity)",
        f"tau* = {tau_star:.6f} in 0.44 +- 0.005, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_2_minimality_sweep():
    start = time.perf_counter()
    checked = 0
    for protocol in (NO_SWITCHING, SWITCHING):
        for tau in (0.1, 0.3, 0.44, 0.6, 0.9):
            for omega in (1.1, 1.2, 1.5, 2.0, 5.0):
                report = verify_minimality(protocol, tau, omega, 101)
                assert report.verdict, (protocol, tau, omega)
                assert all(
                    rate > report.origin_rate for _, _, rate in report.boundary_rates
                ), (protocol, tau, omega)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        "criterion 2 (origin is the strict minimum)",
        f"{checked} (protocol, tau, omega) combinations, grid+boundary, {elapsed:.1f} s",
    )


def test_criterion_3_hessian_positivity_noswitching():
    taus = np.linspace(0.0, 1.0, 52)[1:-1]
    omegas = np.linspace(1.0, 10.0, 51)[1:]
    dets = [
        analytic_detH_noswitching(float(tau), float(omega))
        for tau in taus
        for omega in omegas
    ]
    assert all(det > 0.0 for det in dets)
    spots = 0
    for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
        for omega in (1.1, 1.5, 2.0, 3.0, 5.0):
            fn = rate_function(NO_SWITCHING, tau, omega)
            fd_det = float(np.linalg.det(hessian_at_origin(fn, omega)))
            analytic = analytic_detH_noswitching(tau, omega)
            assert analytic == pytest.approx(fd_det, rel=1e-4), (tau, omega)
            spots += 1
    _report(
        "criterion 3 (no-switching Hessian determinant)",
        f"positive on a {len(taus)}x{len(omegas)} grid; {spots} finite-difference "
        "spot checks within 1e-4 relative",
    )


def test_criterion_4_hessian_positivity_switching():
    omegas = (1.001, 1.01, 1.1, 1.5, 2.0, 5.0, 50.0)
    assert all(analytic_detH_switching(omega) > 0.0 for omega in omegas)
    for omega in omegas:
        fn = rate_function(SWITCHING, 0.5, omega)
        H = hessian_at_origin(fn, omega)
        same, cross = analytic_second_derivs_switching(omega)
        assert H[0, 0] == pytest.approx(same, rel=1e-4), omega
        assert H[1, 1] == pytest.approx(same, rel=1e-4), omega
        if omega <= 5.0:
            # at omega = 50 the cross entry is ~omega^-4, three orders below
            # the diagonal, under the double-precision stencil resolution;
            # the determinant check below still covers it there
            assert H[0, 1] == pytest.approx(cross, rel=1e-4), omega
        fd_det = float(np.linalg.det(H))
        assert analytic_detH_switching(omega) == pytest.approx(fd_det, rel=1e-4), omega
    _report(
        "criterion 4 (switching Hessian determinant)",
        f"positive and matching finite differences at omega in {omegas}",
    )


def test_criterion_5_long_distance_scaling():
    p = AttackParams(tau=0.01, omega=1.0, g=0.0, g_prime=0.0)
    ratio = key_rate_asymptotic(p, NO_SWITCHING) / (0.01 / math.log(4.0))
    assert ratio == pytest.approx(1.0, abs=0.02)
    _report(
        "criterion 5 (long-distance pure-loss scaling)",
        f"rate / (tau/ln 4) = {ratio:.4f} at tau = 0.01",
    )


def test_criterion_6_asymptotic_formula_validation():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(20):
        p = random_attack(rng, omega_lo=1.0, omega_hi=3.0, tau_lo=0.1, tau_hi=0.9)
        for variant in (NO_SWITCHING, SWITCHING):
            closed = key_rate_asymptotic(p, variant)
            err = {}
            for mu in (1e4, 1e6):
                spec = ProtocolSpec(variant, mu=mu, asymptotic=False)
                err[mu] = abs(key_rate_numeric(p, spec).rate - closed)
            assert err[1e6] < 2e-3, (variant, p)
            assert err[1e4] > err[1e6], (variant, p)
            worst = max(worst, err[1e6])
    _report(
        "criterion 6 (finite-modulation pipeline agreement)",
        f"20 random draws x 2 protocols; worst |closed - numeric(1e6)| = {worst:.2e} bits",
    )


def test_criterion_7_single_mode_reduction():
    checked = 0
    for tau in (0.2, 0.44, 0.7):
        for omega in (1.1, 1.2, 2.0):
            p = AttackParams(tau=tau, omega=omega, g=0.0, g_prime=0.0)
            nu_bar = (1.0 + (1.0 - tau) * omega) / tau
            mu = DEFAULT_MU
            report = rate_report(p, ProtocolSpec(NO_SWITCHING))
            assert report.conditional_spectrum == pytest.approx([nu_bar, nu_bar], abs=1e-12)
            chi_single = 2.0 * (
                math.log2(math.e / 2.0 * (1.0 - tau) * mu)
                + entropy_h(omega)
                - entropy_h(nu_bar)
            )
            rate_single = (
                math.log2(
                    2.0 / math.e * tau / ((1.0 - tau) * (1.0 + tau + (1.0 - tau) * omega))
                )
                + entropy_h(nu_bar)
                - entropy_h(omega)
            )
            assert report.holevo == pytest.approx(chi_single, abs=1e-12)
            assert key_rate_asymptotic(p, NO_SWITCHING) == pytest.approx(rate_single, abs=1e-12)
            checked += 1
    _report(
        "criterion 7 (single-mode reduction)",
        f"{checked} (tau, omega) points match the uncorrelated-attack formulas at 1e-12",
    )


def test_criterion_8_gaussian_property_suite():
    rng = np.random.default_rng(67)
    cases = 0
    for _ in range(250):  # TMSV purity
        mu = 1.0 + 99.0 * rng.random()
        assert ref_symplectic_spectrum(cm_tmsv(mu)) == pytest.approx([1.0, 1.0], abs=1e-9)
        cases += 1
    for _ in range(250):  # the channel keeps one arm of a spectrum-preserving beam splitter
        p = random_attack(rng)
        source = cm_tmsv(1.0 + 9.0 * rng.random())
        env = cm_attack(p.omega, p.g, p.g_prime)
        cm = cm_direct_sum(source, env)
        tau = rng.random()
        full = assemble_cm(ref_sector_beamsplitter(qp_state(cm), 1, 3, tau))
        assert ref_symplectic_spectrum(full) == pytest.approx(ref_symplectic_spectrum(cm), abs=1e-9)
        assert np.array_equal(cm_channel(source, (1,), cm_keep_modes(env, (1,)), tau), full[:4, :4])
        cases += 1
    for _ in range(250):  # the channel and conditioning keep physicality
        p = random_attack(rng)
        mu = 1.0 + 9.0 * rng.random()
        sources = cm_direct_sum(cm_tmsv(mu), cm_tmsv(mu))
        cm = cm_channel(sources, (1, 3), cm_attack(p.omega, p.g, p.g_prime), rng.random())
        assert ref_is_physical(cm)
        assert ref_is_physical(cm_heterodyne(cm, 1))
        assert ref_is_physical(cm_homodyne(cm, 0, "q" if rng.random() < 0.5 else "p"))
        cases += 1
    for _ in range(250):  # two-mode closed-form spectrum
        p = random_attack(rng)
        spec = ref_symplectic_spectrum(cm_attack(p.omega, p.g, p.g_prime))
        expected = sorted(
            (
                math.sqrt((p.omega + p.g) * (p.omega + p.g_prime)),
                math.sqrt((p.omega - p.g) * (p.omega - p.g_prime)),
            ),
            reverse=True,
        )
        assert spec == pytest.approx(expected, abs=1e-9)
        cases += 1
    assert cases == 1000
    _report(
        "criterion 8 (covariance-calculus property suite)",
        f"{cases}/1000 randomized cases passed",
    )


def test_criterion_9_cli_contract(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "gausskey", *args], capture_output=True, text=True
        )

    scan_args = ("scan", "--tau", "0.44", "--omega", "1.2", "--grid-resolution", "21")
    first = run(*scan_args)
    second = run(*scan_args)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical re-runs
    assert first.stdout.splitlines()[0] == "g,g_prime,rate,physical,on_boundary"

    as_json = json.loads(run(*scan_args, "--format", "json").stdout)
    csv_rows = [line.split(",") for line in first.stdout.strip().splitlines()[1:]]
    assert len(csv_rows) == len(as_json["rows"])
    for csv_row, json_row in zip(csv_rows, as_json["rows"]):
        assert float(csv_row[2]) == json_row["rate"]

    assert run("rate", "--tau", "0.5", "--omega", "1.2").returncode == 0
    assert run("rate", "--tau", "oops", "--omega", "1.2").returncode == 1
    assert (
        run("rate", "--tau", "0.5", "--omega", "1.2", "--g", "1.5").returncode == 2
    )
    _report(
        "criterion 9 (CLI determinism and schema)",
        "byte-identical re-runs, exact header, exit codes 0/1/2",
    )
