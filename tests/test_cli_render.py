"""The scan row renderer and the per-process argument parser of gausskey.cli.

The renderer works from the (g, g', rate, on_boundary) columns plus the
raw origin rate and verdict that the scan's report carries; it must give
the bytes of the dict-per-row renderer it replaced, kept here as
reference_render_rows.  main parses with one parser per process; a run
of calls must give the bytes and exit codes of the same calls each made
with a fresh parser.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausskey import cli

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


def scan_config(fmt, clamp, mu=None, protocol="noswitching", tau=0.44, omega=1.2, resolution=21):
    return cli.RunConfig(
        command="scan",
        protocol=protocol,
        tau=tau,
        omega=omega,
        g=0.0,
        g_prime=0.0,
        mu=mu,
        grid_resolution=resolution,
        output=None,
        format=fmt,
        clamp_nonnegative=clamp,
    )


def assert_same_render(cfg, g, gp, rates, on_boundary, origin_rate=None, verdict=None):
    points = (
        np.array(g, dtype=float),
        np.array(gp, dtype=float),
        np.array(rates, dtype=float),
        np.array(on_boundary, dtype=bool),
    )
    expected = reference_render_rows(cfg, points, origin_rate, verdict)
    assert cli._render_rows(cfg, points, origin_rate, verdict) == expected


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


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv, stderr=err)
    return code, out.getvalue(), err.getvalue()


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
