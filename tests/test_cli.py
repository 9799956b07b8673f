import contextlib
import io
import json
import subprocess
import sys

import pytest

from gausskey import cli

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
    """At tau = 1, mu = 1e8 a mirror half's q sector rounds to det 0: exit 2, not a traceback."""
    result = run_cli(
        "rate", "--protocol", protocol, "--tau", "1", "--omega", "1.2",
        "--g", "0", "--gprime", "0", "--mu", "1e8",
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "numerical error: q and p sectors are not both positive definite, "
        "or their products overflow\n"
    )


@pytest.mark.parametrize("protocol", ["noswitching", "switching", "switching-mixed"])
def test_finite_mu_rate_at_the_origin_near_unit_omega(protocol):
    """mu*omega far above 1/(nu_- - 1) = 1e4: the pipeline's round-off stays clear of nu >= 1."""
    result = run_cli(
        "rate", "--protocol", protocol, "--tau", "0.5", "--omega", "1.0001",
        "--g", "0", "--gprime", "0", "--mu", "1e12",
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert float(csv_pairs(result.stdout)["mu"]) == 1e12


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


def test_critical_warns_nothing_before_its_domain_error():
    """Under -W error a numpy warning from the stencil's determinant would end in a traceback."""
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "gausskey", "critical", "--tau", "0.5", "--omega", "1e154"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("domain error: closed-form Hessian determinant at tau = 0.5")


def test_underflowing_mutual_information_exits_two():
    result = run_cli("rate", "--protocol", "switching", "--tau", "5e-324", "--omega", "1e10")
    assert result.returncode == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("domain error: switching mutual information at tau = 5e-324")
    assert line.endswith("is not finite: an intermediate value leaves the floating-point range")


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


# The settings each command's cmd_* function reads, written out apart from
# the CLI's own table.
GRID_READS = {
    "protocol", "tau", "omega", "mu", "grid_resolution", "output", "format", "clamp_nonnegative"
}
READS = {
    "rate": {"protocol", "tau", "omega", "g", "gprime", "mu", "output", "format", "clamp_nonnegative"},
    "scan": GRID_READS,
    "boundary": GRID_READS,
    "critical": {"protocol", "tau", "omega", "output", "format"},
    "converge": {"protocol", "tau", "omega", "g", "gprime", "output", "format"},
}
SETTING_VALUES = {
    "protocol": ["switching"],
    "tau": ["0.3"],
    "omega": ["1.5"],
    "g": ["0.1"],
    "gprime": ["-0.1"],
    "mu": ["1e4", "asymptotic"],
    "grid_resolution": ["7"],
    "output": ["out.txt"],
    "format": ["json"],
    "clamp_nonnegative": ["true"],
}


def run_main(argv, output=None):
    """Exit code, stdout, stderr and the output file's text of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv, stderr=err)
    written = None
    if output is not None and output.exists():
        written = output.read_text()
        output.unlink()
    return code, out.getvalue(), err.getvalue(), written


@pytest.mark.parametrize("command", ["rate", "converge"])
def test_negative_values_in_exponent_form(command):
    """A negative value in exponent form after a flag is a value, as after "=" and as -0.001."""
    base = [command, "--tau", "0.5", "--omega", "2"]
    spaced = run_main([*base, "--g", "-1e-3", "--gprime", "-2.5E-1"])
    assert spaced[0] == 0 and spaced[2] == ""
    assert run_main([*base, "--g=-1e-3", "--gprime=-2.5E-1"]) == spaced
    assert run_main([*base, "--g", "-0.001", "--gprime", "-.25"]) == spaced


@pytest.mark.parametrize(
    "command, key, value",
    [
        (command, key, value)
        for command in READS
        for key, values in SETTING_VALUES.items()
        for value in values
    ],
)
def test_each_command_takes_exactly_the_settings_it_reads(tmp_path, command, key, value):
    """A read setting gives the same bytes as flag or config key; any other is exit 1."""
    base = {"tau": "0.44", "omega": "2"}
    if command in ("scan", "boundary"):
        base["grid_resolution"] = "5"
    base.pop(key, None)
    base_args = [arg for k, v in base.items() for arg in ("--" + k.replace("_", "-"), v)]
    output = tmp_path / value if key == "output" else None
    if output is not None:
        value = str(output)
    flag = "--" + key.replace("_", "-")
    flag_args = [flag] if key == "clamp_nonnegative" else [flag, value]
    config = tmp_path / "run.cfg"
    config.write_text(f"# one setting\n{key} = {value}\n")
    by_flag = run_main([command, *base_args, *flag_args], output)
    by_config = run_main([command, *base_args, "--config", str(config)], output)
    if key in READS[command]:
        assert by_flag[0] == 0, by_flag[2]
        assert by_config == by_flag
        return
    for result, text in (
        (by_flag, f"unrecognized arguments: {' '.join(flag_args)}"),
        (by_config, f"{config}:2: {command} does not read {key!r}"),
    ):
        assert result == (1, "", f"config error: {text}\n", None)


@pytest.mark.parametrize("spelling", ["true", "1", "YES", "false", "0", "No"])
def test_config_clamp_spellings(tmp_path, spelling):
    config = tmp_path / "run.cfg"
    config.write_text(f"clamp_nonnegative = true\nclamp_nonnegative = {spelling}\n")
    base = ["rate", "--tau", "0.3", "--omega", "1.2"]
    clamp = ["--clamp-nonnegative"] if spelling.lower() in ("true", "1", "yes") else []
    assert run_main([*base, "--config", str(config)]) == run_main([*base, *clamp])


@pytest.mark.parametrize(
    "line, text",
    [
        ("tau = abc", "argument --tau: invalid float value: 'abc'"),
        ("mu = huge", "argument --mu: must be a number or 'asymptotic', got 'huge'"),
        ("clamp_nonnegative = maybe", "invalid value for clamp_nonnegative: 'maybe'"),
    ],
)
def test_config_bad_value_names_file_and_line(tmp_path, line, text):
    config = tmp_path / "run.cfg"
    config.write_text(f"omega = 2\n{line}\n")
    result = run_main(["rate", "--tau", "0.5", "--config", str(config)])
    assert result == (1, "", f"config error: {config}:2: {text}\n", None)


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


# Start-up cost: none of these may load in the set-up of a benchmark workload.
HEAVY_MODULES = ("scipy", "sympy", "mpmath", "hypothesis", "concurrent.futures", "multiprocessing")


def _heavy_modules_loaded(setup):
    """The HEAVY_MODULES entries that a fresh interpreter has loaded after running setup."""
    loaded = f"','.join(m for m in {HEAVY_MODULES!r} if m in sys.modules)"
    probe = f"{setup}\nimport sys\nprint({loaded})"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_cli_import_loads_no_heavy_module():
    assert _heavy_modules_loaded("import gausskey.cli") == ""


@pytest.mark.parametrize(
    "setup",
    [
        pytest.param(
            "import gausskey.attack as attack, gausskey.rates as rates\n"
            "rates.key_rate_numeric(attack.AttackParams(0.44, 1.2, 0.3, -0.1),"
            " rates.ProtocolSpec('noswitching', mu=1e4, asymptotic=False))",
            id="pipeline",
        ),
        pytest.param(
            "import gausskey.landscape as landscape\n"
            "landscape.verify_minimality('noswitching', 0.44, 1.2, 101)\n"
            "landscape.critical_point_report('noswitching', 0.44, 1.2)",
            id="certify",
        ),
    ],
)
def test_workload_setup_loads_no_heavy_module(setup):
    """The set-up probes of the pipeline and certify benchmark workloads, as they run."""
    assert _heavy_modules_loaded(setup) == ""


def test_rate_json_matches_csv():
    args = ["rate", "--tau", "0.44", "--omega", "1.2", "--g", "0.3", "--gprime", "-0.1"]
    pairs = csv_pairs(run_cli(*args).stdout)
    payload = json.loads(run_cli(*args, "--format", "json").stdout)
    for key in ("i_ab", "holevo", "rate"):
        assert float(pairs[key]) == payload[key]
    assert [float(x) for x in pairs["total_spectrum"].split(";")] == payload[
        "total_spectrum"
    ]
