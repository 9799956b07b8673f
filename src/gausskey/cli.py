"""Command-line front end emitting CSV/JSON for rate and landscape studies.

Subcommands: ``rate`` (one attack point), ``scan`` (physical-region grid
plus boundary), ``boundary`` (boundary only), ``critical`` (origin
gradient/Hessian diagnostics) and ``converge`` (finite-modulation sweep
over ``CONVERGE_SWEEP`` against the closed form; it takes no ``mu``, so
``--mu`` or a ``mu`` config key is a configuration error).  ``critical``
takes its finite-difference steps from omega
(``landscape.critical_point_report``); no flag sets them, so no flag can
change its ``is_minimum`` verdict.

Exit codes: 0 success, 1 configuration error (bad flags or config
file), 2 domain/physicality error (the offending constraint is named) or
a covariance-matrix result too degenerate to trust (``numerical error:``
on stderr).
Identical configurations produce byte-identical output, whatever the
environment.  Asymptotic rates come from the array rate kernel
(``rates.key_rates``); finite-``mu`` scans and boundaries, and
``converge``, run the covariance-matrix pipeline point by point.

``scan`` renders the report of ``landscape.verify_minimality``: its
points sorted by (g, g'), a grid point equal to a boundary sample folded
into that sample, and the report's ``origin_rate`` and ``verdict`` (the
origin is the strict minimum of the unclamped rates);
``--clamp-nonnegative`` changes only the emitted ``rate`` and
``origin_rate`` values.  A row is ``on_boundary`` as the report marks
it.  ``boundary`` renders ``attack.boundary_curve_arrays`` and its
rates; a ``boundary`` run with no sample is a domain error.

Cost per in-process ``main`` call.  ``main`` parses with one parser per
process, built on first use (``build_parser`` still returns a fresh
one).  Scan and boundary rows are rendered straight from their columns:
CSV through one ``%.17g`` template per row, JSON from one C-encoder call
per float column, set into a fixed indented row template; the bytes are
those of ``fmt`` and of ``json.dumps(..., indent=2)``.  Medians on
2 vCPUs (tau 0.44, omega 7.3): ``rate``/``critical`` 0.2-0.3 ms (about
3 ms when each call built its parser), ``converge`` about 1 ms, ``scan`` at
resolution 31 (about 1,000 rows) 4.1 ms as CSV and 5.7 ms as JSON
(8-9 and 17 ms before), at resolution 101 35 and 53 ms (49 and 140 ms).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from . import landscape as _landscape
from . import rates as _rates
from .attack import AttackParams, boundary_curve_arrays
from .gaussian import DomainError, NumericalDegeneracyError

SCAN_HEADER = "g,g_prime,rate,physical,on_boundary"
# One scan row as fmt and json.dumps(..., indent=2) render it.
_CSV_ROW = "%.17g,%.17g,%.17g,true,%s"
_JSON_ROW = (
    '\n    {\n      "g": %s,\n      "g_prime": %s,\n      "rate": %s,'
    '\n      "physical": true,\n      "on_boundary": %s\n    }'
)
CONVERGE_SWEEP = (1e2, 1e3, 1e4, 1e5, 1e6)

_CONFIG_KEYS = (
    "protocol",
    "tau",
    "omega",
    "g",
    "gprime",
    "mu",
    "grid_resolution",
    "output",
    "format",
    "clamp_nonnegative",
)


class ConfigError(Exception):
    """Malformed flags or configuration file (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2); we want 1
        raise ConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    command: str
    protocol: str
    tau: float
    omega: float
    g: float
    g_prime: float
    mu: float | None          # None means asymptotic
    grid_resolution: int
    output: str | None
    format: str
    clamp_nonnegative: bool


def fmt(x: float) -> str:
    """Round-trip-exact decimal rendering (17 significant digits)."""
    return format(float(x), ".17g")


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def build_parser() -> _Parser:
    """A fresh parser of the gausskey command line."""
    parser = _Parser(
        prog="gausskey",
        description="Key rates of one-way CV-QKD under two-mode Gaussian attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("rate", "rate report for one attack point"),
        ("scan", "rate over the physical (g, g') grid plus boundary"),
        ("boundary", "rate along the constraint boundary"),
        ("critical", "gradient/Hessian diagnostics at the origin"),
        ("converge", "finite-modulation sweep against the closed form"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--protocol",
            choices=_rates.VARIANTS,
            default=None,
            help="protocol variant (default noswitching)",
        )
        p.add_argument("--tau", type=float, default=None, help="channel transmissivity")
        p.add_argument("--omega", type=float, default=None, help="ancilla thermal variance")
        p.add_argument("--g", type=float, default=None, help="q-quadrature correlation")
        p.add_argument("--gprime", type=float, default=None, help="p-quadrature correlation")
        p.add_argument("--mu", default=None, help="modulation variance or 'asymptotic'")
        p.add_argument("--grid-resolution", type=int, default=None, dest="grid_resolution")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument(
            "--clamp-nonnegative",
            action="store_true",
            default=None,
            dest="clamp_nonnegative",
            help="emit max(rate, 0) instead of raw rates",
        )
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser main uses, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _coerce(key: str, value: str):
    try:
        if key in ("tau", "omega", "g", "gprime"):
            return float(value)
        if key == "grid_resolution":
            return int(value)
        if key == "clamp_nonnegative":
            lowered = value.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(value)
        if key == "protocol" and value not in _rates.VARIANTS:
            raise ValueError(value)
        if key == "format" and value not in ("csv", "json"):
            raise ValueError(value)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key}: {value!r}") from exc
    return value


def _parse_mu(raw: str) -> float | None:
    if raw.lower() == "asymptotic":
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"--mu must be a number or 'asymptotic', got {raw!r}") from exc


def make_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values and apply defaults."""
    merged: dict[str, object] = {}
    if args.config is not None:
        for key, value in _read_config_file(args.config).items():
            merged[key] = _coerce(key, value)
    for key in _CONFIG_KEYS:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value

    for required in ("tau", "omega"):
        if required not in merged:
            raise ConfigError(f"missing required parameter --{required}")
    if args.command == "converge" and "mu" in merged:
        raise ConfigError("converge sweeps its own mu values and takes no --mu or mu key")
    mu = _parse_mu(str(merged.get("mu", "asymptotic")))
    return RunConfig(
        command=args.command,
        protocol=str(merged.get("protocol", _rates.NO_SWITCHING)),
        tau=float(merged["tau"]),
        omega=float(merged["omega"]),
        g=float(merged.get("g", 0.0)),
        g_prime=float(merged.get("gprime", 0.0)),
        mu=mu,
        grid_resolution=int(merged.get("grid_resolution", 101)),
        output=merged.get("output"),  # type: ignore[arg-type]
        format=str(merged.get("format", "csv")),
        clamp_nonnegative=bool(merged.get("clamp_nonnegative", False)),
    )


def _params(cfg: RunConfig) -> AttackParams:
    params = AttackParams(tau=cfg.tau, omega=cfg.omega, g=cfg.g, g_prime=cfg.g_prime)
    _rates._require_physical(params)
    return params


def _clamp(cfg: RunConfig, rate: float) -> float:
    return max(rate, 0.0) if cfg.clamp_nonnegative else rate


def _write(cfg: RunConfig, text: str) -> None:
    if cfg.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(cfg.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {cfg.output}: {exc}") from exc


def _kv_csv(pairs: Iterable[tuple[str, str]]) -> str:
    lines = ["key,value"]
    lines += [f"{key},{value}" for key, value in pairs]
    return "\n".join(lines) + "\n"


def cmd_rate(cfg: RunConfig) -> str:
    params = _params(cfg)
    spec = _rates.ProtocolSpec(variant=cfg.protocol, mu=cfg.mu, asymptotic=cfg.mu is None)
    report = _rates.rate_report(params, spec)
    rate = _clamp(cfg, report.rate)
    mu_text = "asymptotic" if cfg.mu is None else fmt(cfg.mu)
    if cfg.format == "json":
        payload = {
            "protocol": cfg.protocol,
            "tau": cfg.tau,
            "omega": cfg.omega,
            "g": cfg.g,
            "g_prime": cfg.g_prime,
            "mu": mu_text,
            "i_ab": report.i_ab,
            "holevo": report.holevo,
            "rate": rate,
            "total_spectrum": [float(x) for x in report.total_spectrum],
            "conditional_spectrum": [float(x) for x in report.conditional_spectrum],
        }
        return json.dumps(payload, indent=2) + "\n"
    pairs = [
        ("protocol", cfg.protocol),
        ("tau", fmt(cfg.tau)),
        ("omega", fmt(cfg.omega)),
        ("g", fmt(cfg.g)),
        ("g_prime", fmt(cfg.g_prime)),
        ("mu", mu_text),
        ("i_ab", fmt(report.i_ab)),
        ("holevo", fmt(report.holevo)),
        ("rate", fmt(rate)),
        ("total_spectrum", ";".join(fmt(x) for x in report.total_spectrum)),
        ("conditional_spectrum", ";".join(fmt(x) for x in report.conditional_spectrum)),
    ]
    return _kv_csv(pairs)


def _json_texts(column: np.ndarray) -> list[str]:
    """json's text of each float (NaN, Infinity and -0.0 included), from one C-encoder call."""
    return json.dumps(column.tolist())[1:-1].split(", ")


def _render_rows(
    cfg: RunConfig,
    points: tuple[np.ndarray, ...],
    origin_rate: float | None = None,
    verdict: bool | None = None,
) -> str:
    """Scan rows from their (g, g', rate, on_boundary) columns.

    origin_rate is unclamped; it and verdict are None for a boundary run.
    """
    g, gp, rates, on_boundary = points
    if origin_rate is not None:
        origin_rate = _clamp(cfg, origin_rate)
    if cfg.clamp_nonnegative:  # max(rate, 0.0) per row: -0.0 and NaN pass through
        rates = np.where(rates < 0.0, 0.0, rates)
    flags = map(_fmt_bool, on_boundary.tolist())
    if cfg.format == "json":
        payload = {
            "params": {
                "protocol": cfg.protocol,
                "tau": cfg.tau,
                "omega": cfg.omega,
                "mu": "asymptotic" if cfg.mu is None else fmt(cfg.mu),
                "grid_resolution": cfg.grid_resolution,
            },
            "rows": [],
            "origin_rate": origin_rate,
            "verdict": verdict,
        }
        text = json.dumps(payload, indent=2)
        if g.size:
            rows = zip(_json_texts(g), _json_texts(gp), _json_texts(rates), flags)
            body = ",".join(map(_JSON_ROW.__mod__, rows))
            text = text.replace('"rows": []', f'"rows": [{body}\n  ]', 1)
        return text + "\n"
    rows = map(_CSV_ROW.__mod__, zip(g.tolist(), gp.tolist(), rates.tolist(), flags))
    return "\n".join([SCAN_HEADER, *rows]) + "\n"


def cmd_scan(cfg: RunConfig) -> str:
    if cfg.omega < 1.0:
        raise DomainError(f"scan needs omega >= 1, got {cfg.omega}")
    _params(cfg)  # the configured point obeys the same domain checks
    report = _landscape.verify_minimality(
        cfg.protocol, cfg.tau, cfg.omega, cfg.grid_resolution, mu=cfg.mu
    )
    # Stable: a grid point precedes the boundary sample it equals, and is folded into it.
    order = np.lexsort((report.g_prime, report.g))
    g, gp = report.g[order], report.g_prime[order]
    first = np.ones(g.size, dtype=bool)
    first[1:] = (g[1:] != g[:-1]) | (gp[1:] != gp[:-1])
    on_boundary = np.logical_or.reduceat(report.on_boundary[order], np.flatnonzero(first))
    points = (g[first], gp[first], report.rate[order][first], on_boundary)
    return _render_rows(cfg, points, report.origin_rate, report.verdict)


def cmd_boundary(cfg: RunConfig) -> str:
    if cfg.omega <= 1.0:
        raise DomainError(
            f"the physical region at omega = {cfg.omega} is a point; boundary is empty"
        )
    _params(cfg)
    g, gp = boundary_curve_arrays(cfg.omega, cfg.grid_resolution)
    rates = _rates.key_rates(cfg.protocol, cfg.tau, cfg.omega, g, gp, mu=cfg.mu)
    if not g.size:
        raise DomainError(
            f"boundary is empty: no boundary sample at omega = {cfg.omega} "
            f"and grid resolution {cfg.grid_resolution}"
        )
    return _render_rows(cfg, (g, gp, rates, np.ones(g.size, dtype=bool)))


def cmd_critical(cfg: RunConfig) -> str:
    if cfg.omega <= 1.0:
        raise DomainError(
            f"the correlation region at omega = {cfg.omega} degenerates to a point; "
            "no critical-point analysis exists"
        )
    report = _landscape.critical_point_report(cfg.protocol, cfg.tau, cfg.omega)
    residual = abs(report.det_h - report.analytic_det_h) / abs(report.analytic_det_h)
    if cfg.format == "json":
        payload = {
            "protocol": report.protocol,
            "tau": report.tau,
            "omega": report.omega,
            "gradient": list(report.gradient_at_origin),
            "hessian": [list(map(float, row)) for row in report.hessian_at_origin],
            "det_h": report.det_h,
            "analytic_det_h": report.analytic_det_h,
            "det_residual_rel": residual,
            "is_minimum": report.is_minimum,
        }
        return json.dumps(payload, indent=2) + "\n"
    hess = report.hessian_at_origin
    pairs = [
        ("protocol", report.protocol),
        ("tau", fmt(report.tau)),
        ("omega", fmt(report.omega)),
        ("gradient_g", fmt(report.gradient_at_origin[0])),
        ("gradient_g_prime", fmt(report.gradient_at_origin[1])),
        ("hessian_gg", fmt(hess[0, 0])),
        ("hessian_ggp", fmt(hess[0, 1])),
        ("hessian_gpg", fmt(hess[1, 0])),
        ("hessian_gpgp", fmt(hess[1, 1])),
        ("det_h", fmt(report.det_h)),
        ("analytic_det_h", fmt(report.analytic_det_h)),
        ("det_residual_rel", fmt(residual)),
        ("is_minimum", _fmt_bool(report.is_minimum)),
    ]
    return _kv_csv(pairs)


def cmd_converge(cfg: RunConfig) -> str:
    params = _params(cfg)
    rate_closed = _rates.key_rate_asymptotic(params, cfg.protocol)

    def row(mu: float) -> tuple[float, float, float, float]:
        spec = _rates.ProtocolSpec(variant=cfg.protocol, mu=mu, asymptotic=False)
        numeric = _rates.key_rate_numeric(params, spec).rate
        return mu, numeric, rate_closed, abs(numeric - rate_closed)

    table = [row(mu) for mu in CONVERGE_SWEEP]
    if cfg.format == "json":
        payload = {
            "params": {
                "protocol": cfg.protocol,
                "tau": cfg.tau,
                "omega": cfg.omega,
                "g": cfg.g,
                "g_prime": cfg.g_prime,
            },
            "rows": [
                {
                    "mu": mu,
                    "rate_numeric": numeric,
                    "rate_asymptotic": closed,
                    "abs_delta": delta,
                }
                for mu, numeric, closed, delta in table
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = ["mu,rate_numeric,rate_asymptotic,abs_delta"]
    for mu, numeric, closed, delta in table:
        lines.append(",".join((fmt(mu), fmt(numeric), fmt(closed), fmt(delta))))
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "rate": cmd_rate,
    "scan": cmd_scan,
    "boundary": cmd_boundary,
    "critical": cmd_critical,
    "converge": cmd_converge,
}


def main(argv: Sequence[str] | None = None, stderr: TextIO = sys.stderr) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        cfg = make_config(args)
        text = _COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=stderr)
        return 2
    except NumericalDegeneracyError as exc:
        print(f"numerical error: {exc}", file=stderr)
        return 2
    try:
        _write(cfg, text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
