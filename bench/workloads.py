"""The benchmark's three workloads: inputs from a seed, operations, checks.

A workload is one pass: a fixed list of operations generated from the
seed.  A run repeats the same pass, so every run attempts whole rounds of
the same operations and the share of failed operations never depends on
run length.  Each operation is timed alone; its outputs are checked after
the timer stops, against ``reference`` (mpmath) and against properties the
method must have.  An operation fails when the program raises or a check
finds a problem.

Two operations are known faults of the program and are expected to fail
on every pass (``Op.fault`` names the failure text to expect):

* ``certify``: verify_minimality at omega = 1e4, one per protocol, raises
  DomainError (boundary samples accepted at CONSTRAINT_TOL*omega^2 are
  rejected by violated_constraint at the absolute CONSTRAINT_TOL);
* ``cli``: ``scan --clamp-nonnegative`` at tau 0.3, omega 1.2 reports a
  different verdict from the unclamped scan.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

VARIANTS = ref.VARIANTS
RESOLUTION = 101
OMEGA_RANGE = (1.01, 100.0)
TAU_RANGE = (0.05, 0.95)
MUS = (1e2, 1e3, 1e4, 1e5, 1e6)

# Fixed inputs of the known faults (independent of the seed).
LARGE_OMEGA = 1e4
LARGE_OMEGA_TAU = 0.5
CLAMP_ARGS = ["--tau", "0.3", "--omega", "1.2", "--grid-resolution", "101"]

# Closed-form rates agree with the mpmath reference to ~2e-12 over the
# whole domain; a 1e-7 error is far outside this tolerance.
RATE_TOL = 1e-9
# Mirror images of one grid point differ by at most an ulp in g and g'.
SYMMETRY_TOL = 1e-10
# Lens slack (relative to max(1, omega^2)) beyond which a grid point
# must be kept, and within which a point counts as on the rim.
MUST_BAND = 1e-7
RIM_TOL = 1e-9
# Truncation error of the finite-modulation pipeline: mu*|numeric -
# closed| stays below this multiple of omega (observed up to 8.4).
TRUNCATION_COEFF = 20.0
# Hessian by central differences against mpmath.diff, relative to max|H|:
# the default step loses up to ~6e-3 to round-off at omega = 100, tau = 0.05.
HESSIAN_RTOL = 3e-2
DET_RTOL = 1e-9
GRADIENT_ATOL = 1e-7


def finite_mu_tol(mu: float, omega: float) -> float:
    """Round-off budget of the double-precision pipeline at an interior point.

    The 8x8 covariance matrices carry entries of order mu*omega, so the
    absolute error of the small symplectic eigenvalues grows with their
    product; observed errors stay below a tenth of this budget.
    """
    return 1e-12 + 1e-14 * mu * max(1.0, omega)


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not.

    ``check(result)`` returns (problems, points).  ``fault`` is set on the
    known-fault operations: the text their failure must contain.  CLI
    operations name the files their commands write in ``outputs``.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], int]]
    fault: str | None = None
    outputs: dict[str, Path] = field(default_factory=dict)


@dataclass
class Workload:
    """One pass of operations, and how to time the workload's set-up.

    ``setup_argv`` runs in a fresh interpreter; when ``setup_reports_time``
    the child prints its own import-plus-first-call time, otherwise the
    child's whole wall time (a cold start) is the set-up time.
    """

    ops: list[Op]
    setup_argv: list[str]
    setup_reports_time: bool
    output_bytes: Callable[[], int] = lambda: 0


# --- cached reference values ------------------------------------------------


@lru_cache(maxsize=None)
def ref_rate(variant: str, tau: float, omega: float, g: float, gp: float) -> float:
    return float(ref.closed_rate(variant, tau, omega, g, gp))


@lru_cache(maxsize=None)
def ref_hessian(variant: str, tau: float, omega: float) -> np.ndarray:
    return np.array(ref.hessian_at_origin(variant, tau, omega))


@lru_cache(maxsize=None)
def ref_finite(variant: str, tau: float, omega: float, g: float, gp: float, mu: float) -> dict:
    out = ref.finite_mu_report(variant, tau, omega, g, gp, mu)
    return {
        "i_ab": float(out["i_ab"]),
        "holevo": float(out["holevo"]),
        "rate": float(out["rate"]),
        "total_spectrum": [float(x) for x in out["total_spectrum"]],
    }


# --- seeded inputs ------------------------------------------------------------


def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws in [0, 1), one per stratum of width 1/n, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def tau_omega(rng: np.random.Generator, n: int, omega_range=OMEGA_RANGE) -> list[tuple[float, float]]:
    """Latin-hypercube draws: tau uniform, omega log-uniform over the ranges."""
    lo, hi = math.log(omega_range[0]), math.log(omega_range[1])
    taus = TAU_RANGE[0] + (TAU_RANGE[1] - TAU_RANGE[0]) * stratified(rng, n)
    omegas = np.exp(lo + (hi - lo) * stratified(rng, n))
    return [(float(t), float(o)) for t, o in zip(taus, omegas)]


def interior_point(rng: np.random.Generator, omega: float) -> tuple[float, float]:
    """Uniform draw from the part of the lens with slack > 0.1 (omega^2 - 1)."""
    need = 0.1 * (omega * omega - 1.0)
    while True:
        cand = rng.uniform(-omega, omega, size=(4096, 2))
        ok = np.flatnonzero(ref.lens_slack(omega, cand[:, 0], cand[:, 1]) > need)
        if ok.size:
            g, gp = cand[ok[0]]
            return float(g), float(gp)


# --- shared checks --------------------------------------------------------------


def check_points(omega: float, resolution: int, grid, boundary) -> list[str]:
    """Every must-keep grid point present, nothing outside the lens, rim sampled."""
    problems: list[str] = []
    scale = max(1.0, omega * omega)
    axis, must, may = ref.expected_grid(omega, resolution, MUST_BAND)
    index = {float(v): i for i, v in enumerate(axis)}
    seen = np.zeros_like(must)
    for g, gp in grid:
        i, j = index.get(g), index.get(gp)
        if i is None or j is None:
            problems.append(f"grid point ({g!r}, {gp!r}) is off the grid axis")
            continue
        if seen[i, j]:
            problems.append(f"grid point ({g!r}, {gp!r}) emitted twice")
        seen[i, j] = True
        if not (must[i, j] or may[i, j]):
            problems.append(f"grid point ({g!r}, {gp!r}) lies outside the lens")
    missing = int(np.count_nonzero(must & ~seen))
    if missing:
        problems.append(f"{missing} grid points inside the lens were not emitted")
    lo, hi = ref.expected_boundary_count(omega, resolution, MUST_BAND)
    if not lo <= len(boundary) <= hi:
        problems.append(f"{len(boundary)} boundary samples, expected {lo}..{hi}")
    abscissae = set(ref.open_axis(omega, resolution).tolist())
    for g, gp in boundary:
        if abs(g) >= omega or abs(gp) >= omega or g not in abscissae:
            problems.append(f"boundary sample ({g!r}, {gp!r}) outside the sampled range")
        elif abs(float(ref.lens_slack(omega, g, gp))) > RIM_TOL * scale:
            problems.append(f"boundary sample ({g!r}, {gp!r}) is off the rim")
    return problems[:5]


def check_symmetry(omega: float, resolution: int, grid_rows, tol: float = SYMMETRY_TOL) -> list[str]:
    """rate(g, g') = rate(g', g) = rate(-g, -g') over mirrored grid points."""
    axis = ref.grid_axis(omega, resolution)
    index = {float(v): i for i, v in enumerate(axis)}
    n = len(axis)
    rates = {}
    for g, gp, rate in grid_rows:
        if g in index and gp in index:
            rates[index[g], index[gp]] = rate
    for (i, j), rate in rates.items():
        for mirror in ((j, i), (n - 1 - i, n - 1 - j)):
            other = rates.get(mirror)
            if other is not None and abs(other - rate) > tol * max(1.0, abs(rate)):
                return [f"rate at grid ({i}, {j}) is {rate!r} but {other!r} at mirror {mirror}"]
    return []


def check_min_verdict(rows, origin_rate: float, verdict) -> list[str]:
    """Origin strictly lowest (the paper's claim) and the verdict agrees."""
    problems = []
    nonzero = [r for g, gp, r in rows if (g, gp) != (0.0, 0.0)]
    if not nonzero:
        problems.append("no nonzero point was checked")
    lowest = min(nonzero, default=math.inf)
    if not lowest > origin_rate:
        problems.append(f"a correlated point rates {lowest!r} <= origin {origin_rate!r}")
    if verdict is not True:
        problems.append(f"verdict is {verdict!r}, expected true")
    return problems


def sample_rows(rows, seed_key: tuple, count: int = 4) -> list:
    """The origin, the lowest nonzero row and `count` seeded rows."""
    picks = [r for r in rows if (r[0], r[1]) == (0.0, 0.0)]
    nonzero = [r for r in rows if (r[0], r[1]) != (0.0, 0.0)]
    if nonzero:
        picks.append(min(nonzero, key=lambda r: r[2]))
        rng = np.random.default_rng(list(seed_key))
        picks += [nonzero[k] for k in rng.choice(len(nonzero), min(count, len(nonzero)), replace=False)]
    return picks


def check_reference_rates(variant: str, tau: float, omega: float, rows) -> list[str]:
    for g, gp, rate in rows:
        expected = ref_rate(variant, tau, omega, g, gp)
        if not abs(rate - expected) <= RATE_TOL:
            return [f"rate at ({g!r}, {gp!r}) is {rate!r}, reference {expected!r}"]
    return []


def check_hessian(variant, tau, omega, hessian, det_h, analytic_det, gradient, is_minimum) -> list[str]:
    problems = []
    expected = ref_hessian(variant, tau, omega)
    scale = np.max(np.abs(expected))
    if np.max(np.abs(np.asarray(hessian) - expected)) > HESSIAN_RTOL * scale:
        problems.append(f"Hessian {np.asarray(hessian).tolist()} vs reference {expected.tolist()}")
    exact_det = float(np.linalg.det(expected))
    if abs(analytic_det - exact_det) > DET_RTOL * abs(exact_det):
        problems.append(f"analytic det {analytic_det!r} vs reference {exact_det!r}")
    if max(abs(x) for x in gradient) > GRADIENT_ATOL * max(1.0, scale):
        problems.append(f"gradient at the origin {list(gradient)} is not zero")
    if not (det_h > 0.0 and is_minimum is True):
        problems.append(f"origin not reported a minimum (det {det_h!r}, {is_minimum!r})")
    return problems


def check_convergence(variant, tau, omega, g, gp, pairs) -> list[str]:
    """|numeric - closed| below TRUNCATION_COEFF*omega/mu, and smaller at the top mu."""
    closed = ref_rate(variant, tau, omega, g, gp)
    gaps = [(mu, abs(rate - closed)) for mu, rate in pairs]
    for mu, gap in gaps:
        if not gap * mu <= TRUNCATION_COEFF * omega:
            return [f"mu*|numeric - closed| = {gap * mu!r} at mu={mu:g} exceeds {TRUNCATION_COEFF}*omega"]
    if not gaps[-1][1] < gaps[0][1]:
        return [f"|numeric - closed| did not fall from mu={gaps[0][0]:g} to mu={gaps[-1][0]:g}: {gaps}"]
    return []


def check_finite_reference(variant, tau, omega, g, gp, mu, report) -> list[str]:
    expected = ref_finite(variant, tau, omega, g, gp, mu)
    tol = finite_mu_tol(mu, omega)
    for key in ("i_ab", "holevo", "rate"):
        if key in report and not abs(report[key] - expected[key]) <= tol * max(1.0, abs(expected[key])):
            return [f"{key} {report[key]!r} vs reference {expected[key]!r} at mu={mu:g}"]
    spectrum = report.get("total_spectrum")
    if spectrum is not None:
        for got, want in zip(spectrum, expected["total_spectrum"]):
            if not abs(got - want) <= tol * want:
                return [f"total spectrum {list(spectrum)} vs reference {expected['total_spectrum']}"]
    return []


# --- certify ----------------------------------------------------------------------


def certify(seed: int, per_protocol: int = 8) -> Workload:
    """The paper's certification: grid + boundary scan and origin Hessian."""
    import gausskey.landscape as landscape

    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    for variant in VARIANTS:
        for tau, omega in tau_omega(rng, per_protocol):
            ops.append(_certify_op(landscape, variant, tau, omega, (seed, len(ops))))
    for variant in VARIANTS:
        ops.append(
            _certify_op(
                landscape, variant, LARGE_OMEGA_TAU, LARGE_OMEGA, (seed, len(ops)), fault="DomainError"
            )
        )
    zero_omegas = [o for _, o in tau_omega(rng, len(VARIANTS))]
    for variant, omega in zip(VARIANTS, zero_omegas):
        ops.append(_zero_op(landscape, variant, omega))
    setup = (
        "import time\n"
        "t = time.perf_counter()\n"
        "import gausskey.landscape as landscape\n"
        "landscape.verify_minimality('noswitching', 0.44, 1.2, 101)\n"
        "landscape.critical_point_report('noswitching', 0.44, 1.2)\n"
        "print(time.perf_counter() - t)\n"
    )
    return Workload(ops, ["-c", setup], setup_reports_time=True)


def _certify_op(landscape, variant, tau, omega, key, fault=None) -> Op:
    def run():
        return (
            landscape.verify_minimality(variant, tau, omega, RESOLUTION),
            landscape.critical_point_report(variant, tau, omega),
        )

    def check(result):
        report, crit = result
        grid = [(g, gp) for g, gp, _ in report.grid_rates]
        boundary = [(g, gp) for g, gp, _ in report.boundary_rates]
        rows = list(report.grid_rates) + list(report.boundary_rates)
        problems = check_min_verdict(rows, report.origin_rate, report.verdict)
        problems += check_points(omega, RESOLUTION, grid, boundary)
        problems += check_symmetry(omega, RESOLUTION, report.grid_rates)
        problems += check_reference_rates(variant, tau, omega, sample_rows(rows, key))
        origin = [r for r in report.grid_rates if (r[0], r[1]) == (0.0, 0.0)]
        if not origin or origin[0][2] != report.origin_rate:
            problems.append("origin_rate does not match the origin row")
        problems += check_hessian(
            variant, tau, omega, crit.hessian_at_origin, crit.det_h,
            crit.analytic_det_h, crit.gradient_at_origin, crit.is_minimum,
        )
        return problems, len(rows)

    return Op(f"certify:{variant}", run, check, fault)


def _zero_op(landscape, variant, omega) -> Op:
    def run():
        return landscape.find_zero_rate_transmissivity(variant, omega)

    def check(tau):
        if not 1e-3 < tau < 0.999:
            return [f"zero-rate tau {tau!r} outside the bracket"], 0
        rate = ref_rate(variant, tau, omega, 0.0, 0.0)
        if not abs(rate) <= 1e-9:
            return [f"reference rate {rate!r} at the returned zero tau {tau!r}"], 0
        return [], 0

    return Op(f"zero:{variant}", run, check)


# --- pipeline -----------------------------------------------------------------------


def pipeline(seed: int, points: int = 16, reference_ops: int = 2) -> Workload:
    """The finite-modulation covariance-matrix pipeline over a mu sweep."""
    import gausskey.attack as attack
    import gausskey.rates as rates

    rng = np.random.default_rng(seed)
    inputs = []
    for tau, omega in tau_omega(rng, points):
        g, gp = interior_point(rng, omega)
        for variant in VARIANTS:
            inputs.append((variant, tau, omega, g, gp))
    pinned = set(rng.choice(len(inputs), reference_ops, replace=False).tolist())
    ops = [
        _pipeline_op(attack, rates, *args, with_reference=k in pinned)
        for k, args in enumerate(inputs)
    ]
    setup = (
        "import time\n"
        "t = time.perf_counter()\n"
        "import gausskey.attack as attack, gausskey.rates as rates\n"
        "rates.key_rate_numeric(attack.AttackParams(0.44, 1.2, 0.3, -0.1),"
        " rates.ProtocolSpec('noswitching', mu=1e4, asymptotic=False))\n"
        "print(time.perf_counter() - t)\n"
    )
    return Workload(ops, ["-c", setup], setup_reports_time=True)


def _pipeline_op(attack, rates, variant, tau, omega, g, gp, with_reference) -> Op:
    def run():
        params = attack.AttackParams(tau=tau, omega=omega, g=g, g_prime=gp)
        return [
            rates.key_rate_numeric(params, rates.ProtocolSpec(variant, mu=mu, asymptotic=False))
            for mu in MUS
        ]

    def check(reports):
        problems = []
        for mu, rep in zip(MUS, reports):
            if not abs(rep.i_ab - rep.holevo - 2.0 * rep.rate) <= 1e-12 * max(1.0, abs(rep.i_ab)):
                problems.append(f"i_ab - holevo != 2 rate at mu={mu:g}")
            spectra = list(rep.total_spectrum) + list(rep.conditional_spectrum)
            if min(spectra) < 1.0 - 1e-9:
                problems.append(f"unphysical symplectic eigenvalue {min(spectra)!r} at mu={mu:g}")
            if with_reference:
                problems += check_finite_reference(
                    variant, tau, omega, g, gp, mu,
                    {"i_ab": rep.i_ab, "holevo": rep.holevo, "rate": rep.rate,
                     "total_spectrum": list(rep.total_spectrum)},
                )
        problems += check_convergence(
            variant, tau, omega, g, gp, [(mu, rep.rate) for mu, rep in zip(MUS, reports)]
        )
        return problems, len(reports)

    return Op(f"numeric:{variant}", run, check)


# --- cli ----------------------------------------------------------------------------


SCAN_RESOLUTION = 31
MU_SCAN_RESOLUTION = 7
MU_SCAN = 1e4
SCAN_HEADER = "g,g_prime,rate,physical,on_boundary"
# Scans draw omega from here so every configuration emits a comparable
# number of rows (55-100% of the grid); the thin lenses near omega = 1
# are certify's.
CLI_OMEGA_RANGE = (2.0, 100.0)
# The finite-mu scan stays below omega = 10: at mu = 1e4 and omega near 100
# the pipeline's round-off pushes rim eigenvalues below 1 - EPS_PHYS on some
# draws and the scan exits 2 (a fault of the program, left out here).
MU_SCAN_OMEGA_RANGE = (2.0, 10.0)


@dataclass
class Command:
    """One gausskey invocation of a CLI operation and the check of its output."""

    name: str
    argv: list[str]
    check: Callable[[str], tuple[list[str], int]]
    threads: str = "1"


class CliRunner:
    """Runs gausskey.cli.main in process; every command writes one output file."""

    def __init__(self, cli, out_dir: Path) -> None:
        self.cli = cli
        self.out_dir = out_dir
        self.outputs: dict[str, bytes] = {}
        self.written = 0

    def path(self, name: str) -> Path:
        return self.out_dir / f"{name}.out"

    def op(self, kind: str, commands: list[Command], fault: str | None = None) -> Op:
        def run():
            codes = []
            for cmd in commands:
                os.environ["GAUSSKEY_THREADS"] = cmd.threads
                err = io.StringIO()
                try:
                    code = self.cli.main([*cmd.argv, "--output", str(self.path(cmd.name))], stderr=err)
                finally:
                    os.environ["GAUSSKEY_THREADS"] = "1"
                codes.append((code, err.getvalue()))
            return codes

        def inspect(codes):
            problems, points = [], 0
            for cmd, (code, err) in zip(commands, codes):
                if code != 0:
                    problems.append(f"{cmd.name}: exit {code}: {err.strip()}")
                    continue
                data = self.path(cmd.name).read_bytes()
                self.outputs[cmd.name] = data
                self.written += len(data)
                found, rows = cmd.check(data.decode("utf-8"))
                problems += [f"{cmd.name}: {p}" for p in found]
                points += rows
            return problems, points

        return Op(kind, run, inspect, fault, {c.name: self.path(c.name) for c in commands})


def _floats_round_trip(fields) -> list[str]:
    for text in fields:
        if format(float(text), ".17g") != text:
            return [f"CSV float {text!r} does not round-trip"]
    return []


def parse_scan_csv(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != SCAN_HEADER:
        return None, [f"bad scan header {lines[:1]!r}"]
    rows, problems = [], []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5 or parts[3] != "true" or parts[4] not in ("true", "false"):
            return None, [f"bad scan row {line!r}"]
        problems += _floats_round_trip(parts[:3])
        rows.append((float(parts[0]), float(parts[1]), float(parts[2]), parts[4] == "true"))
    return rows, problems[:1]


def json_rows(payload) -> list[tuple]:
    return [(r["g"], r["g_prime"], r["rate"], r["on_boundary"]) for r in payload["rows"]]


def check_scan_rows(variant, tau, omega, resolution, rows, key, include_grid=True, mu=None) -> list[str]:
    """Rows of a scan/boundary command: coverage, lens, rim flags, symmetry, rates."""
    axis = {float(v) for v in ref.grid_axis(omega, resolution)}
    scale = max(1.0, omega * omega)
    grid, boundary, problems = [], [], []
    for g, gp, rate, on_rim in rows:
        slack = float(ref.lens_slack(omega, g, gp))
        if on_rim and abs(slack) > RIM_TOL * scale:
            problems.append(f"row ({g!r}, {gp!r}) flagged on the rim with slack {slack:g}")
        if not on_rim and slack < -RIM_TOL * scale:
            problems.append(f"row ({g!r}, {gp!r}) lies outside the lens")
        if include_grid and g in axis and gp in axis:
            grid.append((g, gp, rate))
        elif on_rim:
            boundary.append((g, gp, rate))
        else:
            problems.append(f"row ({g!r}, {gp!r}) is neither a grid point nor on the rim")
    if [(r[0], r[1]) for r in rows] != sorted((r[0], r[1]) for r in rows):
        problems.append("rows are not sorted by (g, g')")
    if include_grid:
        problems += check_points(omega, resolution, [r[:2] for r in grid], [r[:2] for r in boundary])
        sym_tol = SYMMETRY_TOL if mu is None else 10 * finite_mu_tol(mu, omega)
        problems += check_symmetry(omega, resolution, grid, sym_tol)
    else:
        lo, hi = ref.expected_boundary_count(omega, resolution, MUST_BAND)
        if not lo <= len(boundary) <= hi:
            problems.append(f"{len(boundary)} boundary rows, expected {lo}..{hi}")
    triples = [r[:3] for r in rows]
    if mu is None:
        problems += check_reference_rates(variant, tau, omega, sample_rows(triples, key))
    else:
        problems += check_convergence_rows(variant, tau, omega, mu, triples)
        # interior rows only: at the rim the pipeline's round-off is amplified
        # by the entropy's diverging slope, see finite_mu_tol
        for g, gp, rate in sample_rows(triples, key, 0):
            problems += check_finite_reference(variant, tau, omega, g, gp, mu, {"rate": rate})
    return problems[:5]


def check_convergence_rows(variant, tau, omega, mu, triples) -> list[str]:
    for g, gp, rate in triples:
        gap = abs(rate - ref_rate(variant, tau, omega, g, gp))
        if not gap * mu <= TRUNCATION_COEFF * omega:
            return [f"finite-mu rate at ({g!r}, {gp!r}) is {gap:g} from the closed form"]
    return []


def cli(seed: int, out_dir: Path, per_protocol: int = 4) -> Workload:
    """The gausskey command as scripts drive it, one output file per command.

    One operation is one configuration's report: scan as CSV and as JSON,
    boundary, critical, converge and rate --format json.  Each pass also
    runs one threaded scan, one finite-mu scan and the clamp pair.
    """
    import gausskey.cli as cli_module

    rng = np.random.default_rng(seed)
    runner = CliRunner(cli_module, out_dir)
    configs = []
    for variant in VARIANTS:
        for tau, omega in tau_omega(rng, per_protocol, CLI_OMEGA_RANGE):
            configs.append((variant, tau, omega, *interior_point(rng, omega)))
    ops = [
        _report_op(runner, k, *config, (seed, k)) for k, config in enumerate(configs)
    ]
    _, tau, omega, _, _ = configs[0]
    ((mu_tau, mu_omega),) = tau_omega(rng, 1, MU_SCAN_OMEGA_RANGE)
    ops += _pass_ops(runner, tau, omega, mu_tau, mu_omega, (seed, len(configs)))
    setup = ["-m", "gausskey", "rate", "--tau", "0.44", "--omega", "1.2", "--g", "0.3", "--gprime", "-0.1"]
    return Workload(ops, setup, setup_reports_time=False, output_bytes=lambda: runner.written)


def _scan_checker(variant, tau, omega, resolution, key, mu=None):
    def check(text):
        rows, problems = parse_scan_csv(text)
        if rows is None:
            return problems, 0
        problems += check_scan_rows(variant, tau, omega, resolution, rows, key, mu=mu)
        return problems, len(rows)

    return check


def _report_op(runner, k, variant, tau, omega, g, gp, key) -> Op:
    base = ["--protocol", variant, "--tau", repr(tau), "--omega", repr(omega)]
    res = ["--grid-resolution", str(SCAN_RESOLUTION)]
    point = ["--g", repr(g), "--gprime", repr(gp)]
    tag = f"c{k}"
    scan_csv = _scan_checker(variant, tau, omega, SCAN_RESOLUTION, key)

    def scan_json(text):
        payload = json.loads(text)
        rows = json_rows(payload)
        csv_rows, _ = parse_scan_csv(runner.outputs.get(f"{tag}-scan-csv", b"").decode())
        problems = []
        if csv_rows != rows:
            problems.append("JSON rows differ from the CSV rows of the same scan")
        if not all(r["physical"] is True for r in payload["rows"]):
            problems.append("a JSON row is not marked physical")
        origin = [r[2] for r in rows if (r[0], r[1]) == (0.0, 0.0)]
        if origin != [payload["origin_rate"]]:
            problems.append("origin_rate does not match the origin row")
        problems += check_min_verdict([r[:3] for r in rows], payload["origin_rate"], payload["verdict"])
        return problems, len(rows)

    def boundary(text):
        rows, problems = parse_scan_csv(text)
        if rows is None:
            return problems, 0
        if not all(r[3] for r in rows):
            problems.append("boundary row not flagged on the rim")
        problems += check_scan_rows(variant, tau, omega, SCAN_RESOLUTION, rows, key, include_grid=False)
        return problems, len(rows)

    def critical(text):
        pairs = dict(line.split(",", 1) for line in text.splitlines()[1:])
        problems = _floats_round_trip(v for k_, v in pairs.items() if k_ not in ("protocol", "is_minimum"))
        hess = [[float(pairs["hessian_gg"]), float(pairs["hessian_ggp"])],
                [float(pairs["hessian_gpg"]), float(pairs["hessian_gpgp"])]]
        problems += check_hessian(
            variant, tau, omega, hess, float(pairs["det_h"]), float(pairs["analytic_det_h"]),
            (float(pairs["gradient_g"]), float(pairs["gradient_g_prime"])),
            pairs["is_minimum"] == "true",
        )
        return problems, 1

    def converge(text):
        lines = text.splitlines()
        if lines[0] != "mu,rate_numeric,rate_asymptotic,abs_delta":
            return [f"bad converge header {lines[0]!r}"], 0
        table = [[float(x) for x in line.split(",")] for line in lines[1:]]
        problems = _floats_round_trip(x for line in lines[1:] for x in line.split(","))
        if [row[0] for row in table] != list(MUS):
            problems.append(f"converge swept {[row[0] for row in table]}")
        for mu, numeric, closed, delta in table:
            if delta != abs(numeric - closed):
                problems.append(f"abs_delta {delta!r} != |numeric - closed| at mu={mu:g}")
        problems += check_reference_rates(variant, tau, omega, [(g, gp, table[0][2])])
        problems += check_convergence(variant, tau, omega, g, gp, [(row[0], row[1]) for row in table])
        return problems, len(table)

    def rate_json(text):
        payload = json.loads(text)
        problems = []
        if payload["i_ab"] - payload["holevo"] != 2.0 * payload["rate"]:
            problems.append("i_ab - holevo != 2 rate")
        problems += check_reference_rates(variant, tau, omega, [(g, gp, payload["rate"])])
        return problems, 1

    return runner.op(
        f"report:{variant}",
        [
            Command(f"{tag}-scan-csv", ["scan", *base, *res], scan_csv),
            Command(f"{tag}-scan-json", ["scan", *base, *res, "--format", "json"], scan_json),
            Command(f"{tag}-boundary", ["boundary", *base, *res], boundary),
            Command(f"{tag}-critical", ["critical", *base], critical),
            Command(f"{tag}-converge", ["converge", *base, *point], converge),
            Command(f"{tag}-rate", ["rate", *base, *point, "--format", "json"], rate_json),
        ],
    )


def _pass_ops(runner, tau, omega, mu_tau, mu_omega, key) -> list[Op]:
    """Once per pass: a threaded scan, a finite-mu scan, and the clamp pair."""
    variant = VARIANTS[0]
    base = ["--protocol", variant, "--tau", repr(tau), "--omega", repr(omega)]
    mu_base = ["--protocol", variant, "--tau", repr(mu_tau), "--omega", repr(mu_omega)]
    scan_csv = _scan_checker(variant, tau, omega, SCAN_RESOLUTION, key)

    def scan_threads(text):
        if runner.outputs.get("c0-scan-csv") != text.encode():
            return ["output bytes changed under GAUSSKEY_THREADS=2"], text.count("\n") - 1
        return scan_csv(text)

    clamp_base = ["scan", *CLAMP_ARGS, "--format", "json"]
    clamp_tau, clamp_omega = 0.3, 1.2

    def raw(text):
        payload = json.loads(text)
        rows = json_rows(payload)
        problems = check_scan_rows(variant, clamp_tau, clamp_omega, 101, rows, (0, 0))
        problems += check_min_verdict([r[:3] for r in rows], payload["origin_rate"], payload["verdict"])
        return problems, len(rows)

    def clamped(text):
        payload = json.loads(text)
        unclamped = json.loads(runner.outputs.get("clamp-raw", b"null"))
        if unclamped is None:
            return ["the unclamped scan produced no output"], 0
        problems = []
        if [r["rate"] for r in payload["rows"]] != [max(r["rate"], 0.0) for r in unclamped["rows"]]:
            problems.append("clamped rates differ from max(rate, 0) of the unclamped scan")
        if payload["verdict"] != unclamped["verdict"]:
            problems.append(
                f"clamped verdict {payload['verdict']!r} differs from the unclamped "
                f"verdict {unclamped['verdict']!r}"
            )
        return problems, len(payload["rows"])

    mu_res = ["--grid-resolution", str(MU_SCAN_RESOLUTION), "--mu", repr(MU_SCAN)]
    return [
        runner.op(
            "scan-threads",
            [Command("threads-scan-csv", ["scan", *base, "--grid-resolution", str(SCAN_RESOLUTION)],
                     scan_threads, threads="2")],
        ),
        runner.op(
            "scan-mu",
            [Command("mu-scan-csv", ["scan", *mu_base, *mu_res],
                     _scan_checker(variant, mu_tau, mu_omega, MU_SCAN_RESOLUTION, key, mu=MU_SCAN))],
        ),
        runner.op("clamp-raw", [Command("clamp-raw", clamp_base, raw)]),
        runner.op("clamp", [Command("clamp", [*clamp_base, "--clamp-nonnegative"], clamped)], fault="verdict"),
    ]
