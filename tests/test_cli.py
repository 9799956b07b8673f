import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "gausskey"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def csv_pairs(text):
    lines = text.strip().splitlines()
    assert lines[0] == "key,value"
    return dict(line.split(",", 1) for line in lines[1:])


def test_rate_zero_point():
    result = run_cli(
        "rate", "--protocol", "noswitching", "--tau", "0.44", "--omega", "1.2",
        "--g", "0", "--gprime", "0",
    )
    assert result.returncode == 0
    pairs = csv_pairs(result.stdout)
    assert abs(float(pairs["rate"])) < 2e-3
    assert pairs["mu"] == "asymptotic"


def test_rate_unphysical_names_constraint():
    result = run_cli(
        "rate", "--tau", "0.44", "--omega", "1.2", "--g", "0.5", "--gprime", "0.5"
    )
    assert result.returncode == 2
    assert "omega*|g + g_prime| <= omega^2 + g*g_prime - 1" in result.stderr


def test_rate_finite_mu_matches_asymptotic():
    base = ["rate", "--tau", "0.44", "--omega", "1.2", "--g", "0.3", "--gprime", "-0.1"]
    finite = csv_pairs(run_cli(*base, "--mu", "1000000").stdout)
    asym = csv_pairs(run_cli(*base, "--mu", "asymptotic").stdout)
    assert abs(float(finite["rate"]) - float(asym["rate"])) < 2e-3


def test_rate_clamp_flag():
    result = run_cli(
        "rate", "--tau", "0.3", "--omega", "1.2", "--clamp-nonnegative"
    )
    assert result.returncode == 0
    assert float(csv_pairs(result.stdout)["rate"]) == 0.0


def test_config_errors_exit_one():
    assert run_cli("rate", "--tau", "nope", "--omega", "1.2").returncode == 1
    assert run_cli("rate", "--omega", "1.2").returncode == 1  # missing tau
    assert run_cli("rate", "--tau", "0.5", "--omega", "1.2", "--mu", "huge").returncode == 1


def test_domain_errors_exit_two():
    assert run_cli("rate", "--tau", "1.5", "--omega", "1.2").returncode == 2
    assert run_cli("rate", "--tau", "0.5", "--omega", "0.8").returncode == 2
    assert run_cli("converge", "--tau", "1", "--omega", "1.2").returncode == 2
    assert run_cli("critical", "--tau", "0.5", "--omega", "1.0").returncode == 2
    assert run_cli("boundary", "--tau", "0.5", "--omega", "1.0").returncode == 2


def test_scan_schema_and_minimum(tmp_path):
    out = tmp_path / "scan.csv"
    result = run_cli(
        "scan", "--tau", "0.44", "--omega", "1.2",
        "--grid-resolution", "31", "--output", str(out),
    )
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "g,g_prime,rate,physical,on_boundary"
    rows = [line.split(",") for line in lines[1:]]
    assert all(row[3] == "true" for row in rows)
    keyed = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    origin_rate = keyed[(0.0, 0.0)]
    assert origin_rate == min(keyed.values())
    assert all(
        rate > origin_rate for point, rate in keyed.items() if point != (0.0, 0.0)
    )
    # sorted by (g, g')
    points = [(float(r[0]), float(r[1])) for r in rows]
    assert points == sorted(points)
    assert any(r[4] == "true" for r in rows)


def test_scan_deterministic():
    args = ["scan", "--tau", "0.44", "--omega", "1.2", "--grid-resolution", "21"]
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second


def test_scan_clamp_keeps_verdict():
    args = ["scan", "--tau", "0.3", "--omega", "1.2", "--grid-resolution", "21", "--format", "json"]
    raw = json.loads(run_cli(*args).stdout)
    clamped = json.loads(run_cli(*args, "--clamp-nonnegative").stdout)
    assert raw["verdict"] is True
    assert clamped["verdict"] is True
    assert [r["rate"] for r in clamped["rows"]] == [max(r["rate"], 0.0) for r in raw["rows"]]


def test_scan_degenerate_region():
    result = run_cli("scan", "--tau", "0.5", "--omega", "1", "--grid-resolution", "51")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 2
    g, gp, _, physical, on_boundary = lines[1].split(",")
    assert (float(g), float(gp)) == (0.0, 0.0)
    assert physical == "true"


def test_scan_json_round_trip():
    args = ["scan", "--tau", "0.44", "--omega", "1.2", "--grid-resolution", "15"]
    csv_text = run_cli(*args).stdout
    json_text = run_cli(*args, "--format", "json").stdout
    payload = json.loads(json_text)
    assert payload["verdict"] is True
    csv_rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    assert len(csv_rows) == len(payload["rows"])
    for csv_row, json_row in zip(csv_rows, payload["rows"]):
        assert float(csv_row[0]) == json_row["g"]
        assert float(csv_row[1]) == json_row["g_prime"]
        assert float(csv_row[2]) == json_row["rate"]
        assert (csv_row[4] == "true") == json_row["on_boundary"]
    origin = [r for r in payload["rows"] if (r["g"], r["g_prime"]) == (0.0, 0.0)]
    assert payload["origin_rate"] == origin[0]["rate"]


def test_boundary_subcommand():
    result = run_cli("boundary", "--tau", "0.44", "--omega", "1.2", "--grid-resolution", "51")
    assert result.returncode == 0
    rows = [line.split(",") for line in result.stdout.strip().splitlines()[1:]]
    assert len(rows) > 10
    assert all(row[4] == "true" for row in rows)
    assert all(float(row[2]) > 0.0 for row in rows)


def test_critical_subcommand():
    result = run_cli(
        "critical", "--protocol", "noswitching", "--tau", "0.6", "--omega", "1.2",
        "--format", "json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["is_minimum"] is True
    assert payload["det_residual_rel"] < 1e-4
    sw = json.loads(
        run_cli(
            "critical", "--protocol", "switching", "--tau", "0.5", "--omega", "1.5",
            "--format", "json",
        ).stdout
    )
    from gausskey import analytic_detH_switching

    assert sw["analytic_det_h"] == pytest.approx(analytic_detH_switching(1.5), abs=1e-15)


def test_critical_degenerate_message():
    result = run_cli("critical", "--protocol", "switching", "--tau", "0.5", "--omega", "1.0")
    assert result.returncode == 2
    assert "point" in result.stderr


@pytest.mark.parametrize("flag, value", [("--hessian-step", "1e-8"), ("--gradient-step", "3")])
def test_critical_has_no_step_flags(flag, value):
    result = run_cli("critical", "--tau", "0.5", "--omega", "10", flag, value)
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")


def test_critical_verdict_at_omega_ten():
    result = run_cli("critical", "--tau", "0.5", "--omega", "10")
    assert result.returncode == 0
    assert csv_pairs(result.stdout)["is_minimum"] == "true"


@pytest.mark.parametrize(
    "args",
    [
        ("scan", "--tau", "0.5", "--omega", "1.3e154", "--grid-resolution", "3"),
        ("scan", "--tau", "0.5", "--omega", "1.3e154", "--grid-resolution", "3", "--format", "json"),
        ("rate", "--tau", "0.5", "--omega", "1.4e154"),
        ("boundary", "--tau", "0.5", "--omega", "1.3e154", "--grid-resolution", "3"),
    ],
)
def test_non_finite_rate_exits_two(args):
    """Attack products that overflow give a domain error, not NaN rates and warnings."""
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("domain error: noswitching rate at tau = 0.5")
    assert line.endswith("is not finite: an intermediate value leaves the floating-point range")


def test_empty_boundary_exits_two():
    """No abscissa of a resolution-2 grid at omega = 1.0001 lies under the rim."""
    result = run_cli("boundary", "--tau", "0.5", "--omega", "1.0001", "--grid-resolution", "2")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "domain error: boundary is empty: no boundary sample at omega = 1.0001 "
        "and grid resolution 2\n"
    )


@pytest.mark.parametrize("protocol", ["noswitching", "switching", "switching-mixed"])
def test_numerical_degeneracy_exits_two(protocol):
    """At tau = 1, mu = 1e8 the 8x8 spectrum fails its pairing check: exit 2, not a traceback."""
    result = run_cli(
        "rate", "--protocol", protocol, "--tau", "1", "--omega", "1.2",
        "--g", "0", "--gprime", "0", "--mu", "1e8",
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "numerical error: symplectic spectrum did not split into doubled singular values "
        "(worst pair mismatch 1.01615e-08)\n"
    )


@pytest.mark.parametrize("command", ["scan", "boundary"])
def test_bad_grid_resolution_has_one_text(command):
    result = run_cli(command, "--tau", "0.5", "--omega", "2", "--grid-resolution", "1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "domain error: grid resolution must be >= 2, got 1\n"


@pytest.mark.parametrize(
    "args",
    [
        ("rate", "--tau", "5e-324", "--omega", "2"),
        ("scan", "--tau", "5e-324", "--omega", "2", "--grid-resolution", "3"),
        ("rate", "--tau", "1e-310", "--omega", "2"),
    ],
)
def test_subnormal_tau_exits_two(args):
    """The no-switching lead's log argument underflows to 0: a domain error, not a traceback."""
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"domain error: noswitching rate at tau = {float(args[2])!r}")
    assert line.endswith("is not finite: an intermediate value leaves the floating-point range")


@pytest.mark.parametrize(
    "args, value",
    [
        (("--tau", "0.5", "--omega", "1e20"), "0.0"),  # the determinant cancels to 0
        (("--protocol", "switching", "--tau", "0.5", "--omega", "1e80"), "inf"),  # omega**4 overflows
    ],
)
def test_critical_at_huge_omega_exits_two(args, value):
    result = run_cli("critical", *args)
    assert result.returncode == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("domain error: closed-form Hessian determinant at tau = 0.5")
    assert f" is {value} in floating point" in line


def test_converge_table():
    result = run_cli(
        "converge", "--tau", "0.44", "--omega", "1.2", "--g", "0.3", "--gprime", "-0.1"
    )
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "mu,rate_numeric,rate_asymptotic,abs_delta"
    deltas = [float(line.split(",")[3]) for line in lines[1:]]
    assert len(deltas) == 5
    assert all(b < a for a, b in zip(deltas, deltas[1:]))
    assert deltas[-1] < 2e-3


@pytest.mark.parametrize("mu", ["1e4", "asymptotic"])
def test_converge_rejects_mu(tmp_path, mu):
    base = ["converge", "--tau", "0.5", "--omega", "2"]
    config = tmp_path / "mu.cfg"
    config.write_text(f"mu={mu}\n")
    for args in ([*base, "--mu", mu], [*base, "--config", str(config)]):
        result = run_cli(*args)
        assert result.returncode == 1
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line == "config error: converge sweeps its own mu values and takes no --mu or mu key"


def test_config_file_and_precedence(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "tau=0.3\nomega=1.2\ng=0.1\ngprime=-0.1\nprotocol=switching\n# comment\n"
    )
    from_file = csv_pairs(run_cli("rate", "--config", str(config)).stdout)
    assert from_file["tau"] == "0.29999999999999999"
    assert from_file["protocol"] == "switching"
    overridden = csv_pairs(
        run_cli("rate", "--config", str(config), "--tau", "0.44").stdout
    )
    assert overridden["tau"] == "0.44"


def test_config_file_unknown_key(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("tau=0.3\nomega=1.2\nwat=1\n")
    result = run_cli("rate", "--config", str(config))
    assert result.returncode == 1
    assert "unknown key" in result.stderr


def test_config_file_rejects_step_keys(tmp_path):
    config = tmp_path / "steps.cfg"
    config.write_text("tau=0.5\nomega=10\nhessian_step=1e-8\n")
    result = run_cli("critical", "--config", str(config))
    assert result.returncode == 1
    assert "unknown key 'hessian_step'" in result.stderr


# Start-up cost: none of these may load when the CLI module is imported.
HEAVY_MODULES = ("scipy", "sympy", "mpmath", "hypothesis", "concurrent.futures", "multiprocessing")


def test_cli_import_loads_no_heavy_module():
    probe = (
        "import sys, gausskey.cli; "
        f"print(','.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_rate_json_matches_csv():
    args = ["rate", "--tau", "0.44", "--omega", "1.2", "--g", "0.3", "--gprime", "-0.1"]
    pairs = csv_pairs(run_cli(*args).stdout)
    payload = json.loads(run_cli(*args, "--format", "json").stdout)
    for key in ("i_ab", "holevo", "rate"):
        assert float(pairs[key]) == payload[key]
    assert [float(x) for x in pairs["total_spectrum"].split(";")] == payload[
        "total_spectrum"
    ]
