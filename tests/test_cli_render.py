"""The table renderer and the per-process argument parser of gausskey.cli.

The renderer works from named columns.  A scan or boundary table has the
(g, g', rate, on_boundary) columns plus the raw origin rate and verdict
that the scan's report carries; it must give the bytes of the
dict-per-row renderer it replaced, kept here as reference_render_rows.
A converge table has the (mu, rate_numeric, rate_asymptotic, abs_delta)
columns; it must give the bytes of the dict-per-row renderer that
converge used before, kept here as reference_render_converge.  The
renderer renders each distinct bit pattern once, so the suites draw
columns full of repeats, of -0.0 next to 0.0 and of NaNs with different
payloads, and compare whole scans, boundaries and converge tables at the
sizes where the repeats pay.  main parses with one parser per process; a
run of calls must give the bytes and exit codes of the same calls each
made with a fresh parser.
"""

import contextlib
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausskey import attack, cli, landscape, rates

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 1.5e-7,
    0.1, 1e16, -1e16, 1e22, 123456789012345680.0, 1e300, -1.7976931348623157e308,
]
NON_FINITE = [math.nan, math.inf, -math.inf]


def reference_render_rows(cfg, points, raw_origin=None, verdict=None):
    """The renderer before columns: one dict per row, json.dumps and fmt."""
    g, gp, rates, on_boundary = points
    origin_rate = None if raw_origin is None else cli._clamp(cfg, raw_origin)
    rows = [
        {"g": a, "g_prime": b, "rate": cli._clamp(cfg, rate), "physical": True, "on_boundary": edge}
        for a, b, rate, edge in zip(g.tolist(), gp.tolist(), rates.tolist(), on_boundary.tolist())
    ]
    if cfg.format == "json":
        payload = {
            "params": {
                "protocol": cfg.protocol,
                "tau": cfg.tau,
                "omega": cfg.omega,
                "mu": "asymptotic" if cfg.mu is None else cli.fmt(cfg.mu),
                "grid_resolution": cfg.grid_resolution,
            },
            "rows": rows,
            "origin_rate": origin_rate,
            "verdict": verdict,
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [cli.SCAN_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                (
                    cli.fmt(row["g"]),
                    cli.fmt(row["g_prime"]),
                    cli.fmt(row["rate"]),
                    cli._fmt_bool(row["physical"]),
                    cli._fmt_bool(row["on_boundary"]),
                )
            )
        )
    return "\n".join(lines) + "\n"


CONVERGE_COLUMNS = ("mu", "rate_numeric", "rate_asymptotic", "abs_delta")


def reference_render_converge(cfg, rows):
    """converge's table before columns: one dict per row, json.dumps and fmt."""
    if cfg.format == "json":
        payload = {
            "params": {
                "protocol": cfg.protocol,
                "tau": cfg.tau,
                "omega": cfg.omega,
                "g": cfg.g,
                "g_prime": cfg.gprime,
            },
            "rows": [dict(zip(CONVERGE_COLUMNS, row)) for row in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(CONVERGE_COLUMNS)] + [",".join(map(cli.fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def render_rows(cfg, points, origin_rate=None, verdict=None):
    """cli's table of scan columns, as cmd_scan (with an origin) or cmd_boundary renders it."""
    origin_rate = None if origin_rate is None else cli._clamp(cfg, origin_rate)
    return cli._table(cfg, cli._scan_columns(cfg, *points), origin_rate=origin_rate, verdict=verdict)


def render_converge(cfg, columns):
    """cli's table of converge columns, as cmd_converge renders it."""
    return cli._table(cfg, dict(zip(CONVERGE_COLUMNS, columns)))


def scan_config(fmt, clamp, mu=None, protocol="noswitching", tau=0.44, omega=1.2, resolution=21):
    return cli.RunConfig(
        command="scan",
        protocol=protocol,
        tau=tau,
        omega=omega,
        g=0.0,
        gprime=0.0,
        mu=mu,
        grid_resolution=resolution,
        output=None,
        format=fmt,
        clamp_nonnegative=clamp,
    )


def converge_config(fmt, protocol="noswitching", tau=0.44, omega=1.2, g=0.0, gprime=0.0):
    return cli.RunConfig(
        command="converge",
        protocol=protocol,
        tau=tau,
        omega=omega,
        g=g,
        gprime=gprime,
        mu=None,
        grid_resolution=101,
        output=None,
        format=fmt,
        clamp_nonnegative=False,
    )


def assert_same_text(got, expected):
    """got == expected, reporting only the first difference.

    pytest's own diff of two long renders runs difflib for minutes, and
    hypothesis would repeat it for each example it shrinks.
    """
    if got == expected:
        return
    k = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
    raise AssertionError(
        f"renders differ at character {k} of {len(got)}/{len(expected)}: "
        f"{got[max(k - 60, 0):k + 60]!r} != {expected[max(k - 60, 0):k + 60]!r}"
    )


def assert_same_render(cfg, g, gp, rates, on_boundary, origin_rate=None, verdict=None):
    points = (
        np.array(g, dtype=float),
        np.array(gp, dtype=float),
        np.array(rates, dtype=float),
        np.array(on_boundary, dtype=bool),
    )
    expected = reference_render_rows(cfg, points, origin_rate, verdict)
    assert_same_text(render_rows(cfg, points, origin_rate, verdict), expected)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("clamp", [False, True])
def test_edge_columns_render_as_before(fmt, clamp):
    values = EDGE_FLOATS + NON_FINITE
    n = len(values)
    g = [0.0] + values
    gp = [-0.0] + values[::-1]
    rates = [-0.0] + values[3:] + values[:3]
    flags = [k % 3 == 0 for k in range(n + 1)]
    assert_same_render(scan_config(fmt, clamp), g, gp, rates, flags, -0.0, True)
    assert_same_render(scan_config(fmt, clamp, mu=1e4), g, gp, rates, flags, -1e-3, False)
    assert_same_render(scan_config(fmt, clamp), g, gp, rates, flags)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_empty_rows_render_as_before(fmt):
    assert_same_render(scan_config(fmt, True), [], [], [], [])


def assert_same_converge(cfg, *columns):
    columns = [np.array(column, dtype=float) for column in columns]
    expected = reference_render_converge(cfg, list(zip(*(column.tolist() for column in columns))))
    assert_same_text(render_converge(cfg, columns), expected)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_edge_converge_columns_render_as_before(fmt):
    values = EDGE_FLOATS + NON_FINITE
    mu, numeric, delta = values, values[::-1], values[3:] + values[:3]
    cfg = converge_config(fmt, "switching", 0.3, 1.5, -0.0, 0.1)
    for closed in (-0.0, 0.0, 5e-324, math.nan, -math.inf, -2.5910136975535956):
        assert_same_converge(cfg, mu, numeric, [closed] * len(values), delta)
    assert_same_converge(converge_config(fmt), [], [], [], [])


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
any_rate = st.floats() | st.sampled_from(EDGE_FLOATS + NON_FINITE)
rows = st.lists(st.tuples(finite, finite, any_rate, st.booleans()), max_size=25)
configs = st.builds(
    scan_config,
    fmt=st.sampled_from(["csv", "json"]),
    clamp=st.booleans(),
    mu=st.none() | st.floats(1.0, 1e12, exclude_min=True),
    protocol=st.sampled_from(["noswitching", "switching", "switching-mixed"]),
    tau=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    omega=st.floats(1.0, 1e6),
    resolution=st.integers(2, 1001),
)


@settings(max_examples=300, deadline=None)
@given(cfg=configs, drawn=rows, origin=st.none() | st.tuples(any_rate, st.booleans()))
def test_column_renderer_equals_dict_renderer(cfg, drawn, origin):
    origin_rate = verdict = None
    if origin is not None:
        origin_rate, verdict = origin
        drawn = [(0.0, 0.0, origin_rate, True), *drawn]
    columns = list(zip(*drawn)) or [(), (), (), ()]
    assert_same_render(cfg, *columns, origin_rate, verdict)


converge_configs = st.builds(
    converge_config,
    fmt=st.sampled_from(["csv", "json"]),
    protocol=st.sampled_from(["noswitching", "switching", "switching-mixed"]),
    tau=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    omega=st.floats(1.0, 1e6),
    g=finite,
    gprime=finite,
)


@settings(max_examples=300, deadline=None)
@given(cfg=converge_configs, drawn=st.lists(st.tuples(any_rate, any_rate, any_rate, any_rate), max_size=25))
def test_converge_column_renderer_equals_dict_renderer(cfg, drawn):
    assert_same_converge(cfg, *(list(zip(*drawn)) or [(), (), (), ()]))


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv, stderr=err)
    return code, out.getvalue(), err.getvalue()


def float_bits(*values):
    return np.array(values, dtype=float).view(np.uint64)


# Floats that equal others (-0.0 == 0.0) or nothing (NaN), told apart only by
# their bits, next to infinities, subnormals and the edge floats.
POOL_BITS = np.unique(
    np.concatenate(
        [
            float_bits(0.0, -0.0, math.nan, math.inf, -math.inf, 1e-310, -1e-310, 4e-320),
            np.array([0x7FF8_0000_0000_0123, 0xFFF8_0000_0000_0456], dtype=np.uint64),
            float_bits(*EDGE_FLOATS),
        ]
    )
)
# A column repeats a short run of pool entries, so repeats are the norm.
pool_runs = st.lists(st.integers(0, POOL_BITS.size - 1), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(
    fmt=st.sampled_from(["csv", "json"]),
    clamp=st.booleans(),
    n_rows=st.integers(0, 2000),
    runs=st.tuples(pool_runs, pool_runs, pool_runs),
    flag_run=st.lists(st.booleans(), min_size=1, max_size=5),
    origin=st.none() | st.tuples(st.sampled_from(POOL_BITS.tolist()), st.booleans()),
)
def test_repeated_bit_patterns_render_as_before(fmt, clamp, n_rows, runs, flag_run, origin):
    """Up to 2,000 rows whose columns each hold at most 12 distinct bit patterns."""
    g, gp, rate = (np.resize(POOL_BITS[run], n_rows).view(np.float64) for run in runs)
    flags = np.resize(np.array(flag_run), n_rows)
    origin_rate = verdict = None
    if origin is not None:
        origin_rate, verdict = float(np.uint64(origin[0]).view(np.float64)), origin[1]
    cfg = scan_config(fmt, clamp)
    points = (g, gp, rate, flags)
    expected = reference_render_rows(cfg, points, origin_rate, verdict)
    assert_same_text(render_rows(cfg, points, origin_rate, verdict), expected)


@settings(max_examples=100, deadline=None)
@given(
    fmt=st.sampled_from(["csv", "json"]),
    n_rows=st.integers(0, 2000),
    runs=st.tuples(pool_runs, pool_runs, pool_runs, pool_runs),
)
def test_repeated_converge_bit_patterns_render_as_before(fmt, n_rows, runs):
    """Up to 2,000 converge rows whose columns each hold at most 12 distinct bit patterns."""
    columns = [np.resize(POOL_BITS[run], n_rows).view(np.float64) for run in runs]
    assert_same_converge(converge_config(fmt), *columns)


def main_output(argv):
    code, out, err = run_main(argv)
    assert code == 0, err
    return cli.make_config(cli.build_parser().parse_args(argv)), out


def folded_columns(report):
    """The report's points in (g, g') order, each point once, as cmd_scan emits them.

    A grid point equal to a boundary sample keeps its first rate and is
    on_boundary if either is.
    """
    rows = sorted(
        zip(report.g.tolist(), report.g_prime.tolist(), report.rate.tolist(), report.on_boundary.tolist()),
        key=lambda row: row[:2],
    )
    folded = []
    for _, group in itertools.groupby(rows, key=lambda row: row[:2]):
        group = list(group)
        folded.append((*group[0][:3], any(row[3] for row in group)))
    g, gp, rate, edge = zip(*folded)
    return np.array(g), np.array(gp), np.array(rate), np.array(edge, dtype=bool)


SCAN = ["--tau", "0.44", "--omega", "7.3"]
SCAN_CASES = [
    [*SCAN, "--protocol", protocol, "--grid-resolution", "101", "--format", fmt]
    for protocol in ("noswitching", "switching", "switching-mixed")
    for fmt in ("csv", "json")
] + [
    [*SCAN, "--grid-resolution", "101", "--format", "json", "--clamp-nonnegative"],
    [*SCAN, "--protocol", "switching", "--grid-resolution", "7", "--mu", "1e4"],
]


@pytest.mark.parametrize("flags", SCAN_CASES, ids=" ".join)
def test_scan_output_equals_reference_render(flags):
    cfg, out = main_output(["scan", *flags])
    report = landscape.verify_minimality(cfg.protocol, cfg.tau, cfg.omega, cfg.grid_resolution, mu=cfg.mu)
    expected = reference_render_rows(cfg, folded_columns(report), report.origin_rate, report.verdict)
    assert_same_text(out, expected)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_boundary_output_equals_reference_render(fmt):
    cfg, out = main_output(["boundary", *SCAN, "--grid-resolution", "101", "--format", fmt])
    g, gp = attack.boundary_curve_arrays(cfg.omega, cfg.grid_resolution)
    rate = rates.key_rates(cfg.protocol, cfg.tau, cfg.omega, g, gp)
    assert_same_text(out, reference_render_rows(cfg, (g, gp, rate, np.ones(g.size, dtype=bool))))


@pytest.mark.parametrize("protocol", ["noswitching", "switching", "switching-mixed"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_converge_output_equals_reference_render(protocol, fmt):
    argv = ["converge", *SCAN, "--g", "0.3", "--gprime", "-0.1", "--protocol", protocol, "--format", fmt]
    cfg, out = main_output(argv)
    params = attack.AttackParams(cfg.tau, cfg.omega, cfg.g, cfg.gprime)
    closed = rates.key_rate_asymptotic(params, protocol)
    rows = []
    for mu in cli.CONVERGE_SWEEP:
        numeric = rates.key_rate_numeric(params, rates.ProtocolSpec(protocol, mu)).rate
        rows.append((mu, numeric, closed, abs(numeric - closed)))
    assert_same_text(out, reference_render_converge(cfg, rows))


def test_shared_parser_gives_fresh_parser_results(tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text("protocol = switching\ntau = 0.3\nomega = 1.5\ng = 0.2\nclamp_nonnegative = true\n")
    calls = [
        ["rate", "--tau", "0.44", "--omega", "1.2", "--g", "0.3", "--gprime", "-0.1"],
        ["rate", "--tau", "0.44", "--omega", "1.2", "--format", "json"],  # no --g: none may carry over
        ["scan", "--protocol", "switching", "--tau", "0.3", "--omega", "1.2",
         "--grid-resolution", "7", "--clamp-nonnegative"],
        ["scan", "--tau", "0.3", "--omega", "1.2", "--grid-resolution", "7", "--format", "json"],
        ["boundary", "--protocol", "switching-mixed", "--tau", "0.6", "--omega", "2", "--grid-resolution", "9"],
        ["critical", "--protocol", "switching", "--tau", "0.5", "--omega", "1.5", "--format", "json"],
        ["converge", "--tau", "0.44", "--omega", "1.2", "--g", "0.1", "--gprime", "0.05"],
        ["rate", "--config", str(config)],
        ["rate", "--config", str(config), "--tau", "0.6", "--mu", "1e4"],
        ["rate", "--tau", "0.5", "--omega", "2", "--format", "json"],  # no --config
        ["scan", "--tau", "0.5", "--omega", "2", "--bogus", "1"],
        ["rate", "--tau", "0.5", "--omega", "2", "--gprime", "0.4"],
    ]
    cli._shared_parser.cache_clear()
    shared = [run_main(argv) for argv in calls]
    assert cli._shared_parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = [run_main(argv) for argv in calls]
    assert [code for code, _, _ in fresh] == [0] * 10 + [1, 0]
    assert "unrecognized arguments: --bogus 1" in fresh[-2][2]
    assert shared == fresh
    assert cli.build_parser() is not cli.build_parser()
