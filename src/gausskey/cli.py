"""Command-line front end emitting CSV/JSON for rate and landscape studies.

Subcommands: ``rate`` (one attack point), ``scan`` (physical-region grid
plus boundary), ``boundary`` (boundary only), ``critical`` (origin
gradient/Hessian diagnostics of the closed form) and ``converge``
(finite-modulation sweep over ``CONVERGE_SWEEP`` against the closed
form).  Each command takes exactly the settings its ``cmd_*`` function
reads (``_SUBCOMMANDS``, each setting declared once in ``_SETTINGS``): a
flag or config key that the command would ignore is a configuration
error.  A ``--config`` file's ``key=value`` lines are parsed as that
command's flags, ahead of the command line, so flags win; a line whose
first non-blank character is ``#`` is a comment, and a ``#`` anywhere
else is part of the value.  A run's settings are a ``RunConfig``: the
command's name, then one field per ``_SETTINGS`` key under that key's
name (``gprime``, ``grid_resolution``, ...), the table's default where
neither flag nor file sets it.

Each output is declared once and rendered in both formats.  ``rate``
and ``critical`` write one record (``_record``): a JSON object, or
``key,value`` CSV lines (floats as ``fmt`` renders them, float lists
joined by ``;``, booleans as ``true``/``false``).  A run echoes exactly
the settings its command reads (``_echo``), in table order, without the
presentation settings ``output``, ``format`` and ``clamp_nonnegative``;
``gprime`` is echoed as ``g_prime`` (the one place that renames it) and
``mu`` written as ``asymptotic`` or its ``fmt`` text.  The echo heads a
``rate`` or ``critical`` record and is the ``params`` object of JSON
``scan``, ``boundary`` and ``converge``.
``critical`` takes its finite-difference steps from omega
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
one).  The ``scan``, ``boundary`` and ``converge`` tables are rendered
by one function (``_table``) straight from their named columns.  Each
distinct bit pattern among a table's float cells is rendered once (CSV
in one ``%.17g`` format call, JSON in one C-encoder call) and its text
set into a row template, which one ``%`` call fills over all rows: a
scan's columns repeat, since g and g' run over the grid axis and the
rates come in bit-equal mirror pairs.  Bits, not values, tell floats
apart: -0.0 == 0.0 but renders as ``-0`` (``-0.0`` in JSON), and NaN
equals nothing.  The bytes are those of ``fmt`` and of
``json.dumps(..., indent=2)``.  Medians
on a shared 2-vCPU Intel Xeon host (tau 0.44, omega 7.3): ``rate`` and
``critical`` 0.1-0.2 ms, ``converge`` 0.2-0.3 ms, ``boundary`` at
resolution 101 0.8 ms, ``scan`` at resolution 31 (about 1,000 rows)
1.7 ms as CSV and 2.1-2.4 ms as JSON, at resolution 101 11 and 20 ms.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import make_dataclass
from typing import Sequence, TextIO

import numpy as np

from . import landscape as _landscape
from . import rates as _rates
from .attack import AttackParams, _require_physical, boundary_curve_arrays
from .gaussian import DomainError, NumericalDegeneracyError

SCAN_HEADER = "g,g_prime,rate,physical,on_boundary"
CONVERGE_SWEEP = (1e2, 1e3, 1e4, 1e5, 1e6)


class ConfigError(Exception):
    """Malformed flags or configuration file (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)  # add_subparsers builds each command's parser as one
        # argparse's own pattern takes -1e-3 for an option; this one reads it as a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str) -> None:  # argparse would exit(2); we want 1
        raise ConfigError(message)


def _mu(text: str) -> float | None:
    """A modulation variance; None for 'asymptotic'."""
    if text.lower() == "asymptotic":
        return None
    try:
        return float(text)
    except ValueError:
        message = f"must be a number or 'asymptotic', got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


_REQUIRED = object()
# Each setting once, in --help order: config key -> (argparse keywords,
# default).  Its flag is the key with - for _, after "--".
_SETTINGS = {
    "protocol": (
        {"choices": _rates.VARIANTS, "help": "protocol variant (default noswitching)"},
        _rates.NO_SWITCHING,
    ),
    "tau": ({"type": float, "help": "channel transmissivity"}, _REQUIRED),
    "omega": ({"type": float, "help": "ancilla thermal variance"}, _REQUIRED),
    "g": ({"type": float, "help": "q-quadrature correlation"}, 0.0),
    "gprime": ({"type": float, "help": "p-quadrature correlation"}, 0.0),
    "mu": ({"type": _mu, "help": "modulation variance or 'asymptotic'"}, None),
    "grid_resolution": ({"type": int}, 101),
    "output": ({"help": "output path (default stdout)"}, None),
    "format": ({"choices": ("csv", "json")}, "csv"),
    "clamp_nonnegative": (
        {"action": "store_true", "help": "emit max(rate, 0) instead of raw rates"},
        False,
    ),
}
_SCAN_SETTINGS = (
    "protocol", "tau", "omega", "mu", "grid_resolution", "output", "format", "clamp_nonnegative",
)
# Each command's help line and the settings its cmd_* function reads; it
# takes no other flag or config key.
_SUBCOMMANDS = {
    "rate": (
        "rate report for one attack point",
        ("protocol", "tau", "omega", "g", "gprime", "mu", "output", "format", "clamp_nonnegative"),
    ),
    "scan": ("rate over the physical (g, g') grid plus boundary", _SCAN_SETTINGS),
    "boundary": ("rate along the constraint boundary", _SCAN_SETTINGS),
    "critical": (
        "gradient/Hessian diagnostics at the origin",
        ("protocol", "tau", "omega", "output", "format"),
    ),
    "converge": (
        "finite-modulation sweep against the closed form",
        ("protocol", "tau", "omega", "g", "gprime", "output", "format"),
    ),
}


# Settings that shape how a run is written, not what it computes: no output echoes them.
_PRESENTATION = ("output", "format", "clamp_nonnegative")
# The command's name, then one field per setting, named by its config key.
RunConfig = make_dataclass(
    "RunConfig", ["command", *_SETTINGS], frozen=True, namespace={"__module__": __name__}
)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def fmt(x: float) -> str:
    """Round-trip-exact decimal rendering (17 significant digits)."""
    return format(float(x), ".17g")


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def build_parser() -> _Parser:
    """A fresh parser of the gausskey command line.

    A flag left out is absent from the parsed namespace (make_config
    applies its default), and abbreviations are refused: ``scan --g``
    would otherwise abbreviate ``--grid-resolution``.
    """
    parser = _Parser(
        prog="gausskey",
        description="Key rates of one-way CV-QKD under two-mode Gaussian attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, reads) in _SUBCOMMANDS.items():
        p = sub.add_parser(
            name, help=help_text, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        p.set_defaults(command_parser=p)  # make_config parses config files with it
        for key, (kwargs, _) in _SETTINGS.items():
            if key in reads:
                p.add_argument(_flag(key), **kwargs)
            if key == "format":  # --config keeps its place in --help
                p.add_argument("--config", help="flat key=value config file")
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser main uses, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _config_tokens(key: str, value: str) -> list[str]:
    """The command-line tokens of a config file's key=value line."""
    if _SETTINGS[key][0].get("action") != "store_true":
        return [f"{_flag(key)}={value}"]
    if value.lower() in ("true", "1", "yes"):
        return [_flag(key)]
    if value.lower() in ("false", "0", "no"):
        return []
    raise ConfigError(f"invalid value for {key}: {value!r}")


def _read_config_file(path: str, command: str, parser: _Parser) -> dict[str, object]:
    """A config file's settings, each line parsed as flags by the command's parser."""
    values = argparse.Namespace()
    reads = _SUBCOMMANDS[command][1]
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):  # a # later in the line is part of the value
                    continue
                where = f"{path}:{lineno}"
                if "=" not in line:
                    raise ConfigError(f"{where}: expected key=value, got {raw.strip()!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _SETTINGS:
                    raise ConfigError(f"{where}: unknown key {key!r}")
                if key not in reads:
                    raise ConfigError(f"{where}: {command} does not read {key!r}")
                vars(values).pop(key, None)  # a later line replaces an earlier one
                try:
                    parser.parse_args(_config_tokens(key, value.strip()), values)
                except ConfigError as exc:
                    raise ConfigError(f"{where}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return vars(values)


def make_config(args: argparse.Namespace) -> RunConfig:
    """Command-line flags over config-file lines over the table's defaults."""
    given = dict(vars(args))
    command, parser = given.pop("command"), given.pop("command_parser")
    path = given.pop("config", None)
    values = {} if path is None else _read_config_file(path, command, parser)
    values.update(given)
    settings = {key: values.get(key, default) for key, (_, default) in _SETTINGS.items()}
    for key, value in settings.items():
        if value is _REQUIRED:
            raise ConfigError(f"missing required parameter {_flag(key)}")
    return RunConfig(command=command, **settings)


def _params(cfg: RunConfig) -> AttackParams:
    params = AttackParams(tau=cfg.tau, omega=cfg.omega, g=cfg.g, g_prime=cfg.gprime)
    _require_physical(params)
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


def _echo(cfg: RunConfig) -> list[tuple[str, object]]:
    """The non-presentation settings cfg's command reads, in table order, as its output names them.

    gprime is echoed as g_prime and mu as text.
    """
    echoed = {
        "g_prime" if key == "gprime" else key: getattr(cfg, key)
        for key in _SUBCOMMANDS[cfg.command][1]
        if key not in _PRESENTATION
    }
    if "mu" in echoed:
        echoed["mu"] = "asymptotic" if cfg.mu is None else fmt(cfg.mu)
    return list(echoed.items())


def _csv_cell(value: object) -> str:
    if isinstance(value, bool):
        return _fmt_bool(value)
    if isinstance(value, float):
        return fmt(value)
    if isinstance(value, list):
        return ";".join(map(fmt, value))
    return str(value)


def _record(cfg: RunConfig, pairs: list[tuple[str, object]]) -> str:
    """One output record: a JSON object, or CSV key,value lines."""
    if cfg.format == "json":
        return json.dumps(dict(pairs), indent=2) + "\n"
    return "key,value\n" + "".join(f"{key},{_csv_cell(value)}\n" for key, value in pairs)


def cmd_rate(cfg: RunConfig) -> str:
    report = _rates.rate_report(_params(cfg), _rates.ProtocolSpec(cfg.protocol, cfg.mu))
    return _record(cfg, [
        *_echo(cfg),
        ("i_ab", report.i_ab),
        ("holevo", report.holevo),
        ("rate", _clamp(cfg, report.rate)),
        ("total_spectrum", report.total_spectrum.tolist()),
        ("conditional_spectrum", report.conditional_spectrum.tolist()),
    ])


def _csv_texts(column: np.ndarray) -> list[str]:
    """fmt's text of each float, from one %-format call."""
    floats = column.tolist()
    return ("\n".join(["%.17g"] * len(floats)) % tuple(floats)).split("\n")


def _json_texts(column: np.ndarray) -> list[str]:
    """json's text of each float (NaN, Infinity and -0.0 included), from one C-encoder call."""
    return json.dumps(column.tolist())[1:-1].split(", ")


def _table(cfg: RunConfig, columns: dict[str, object], **after: object) -> str:
    """A table from its named columns; after holds the JSON fields that follow its rows.

    A column is a float array, a bool array, or one bool that every row
    holds, which goes into the row template.  Each distinct float among the
    cells is rendered once, and its text set into every cell that holds it;
    one % call then fills the row template over all rows.  Floats are told
    apart by their bits, not their values: -0.0 == 0.0 but the two render
    differently.
    """
    arrays = [column for column in columns.values() if isinstance(column, np.ndarray)]
    floats = [column for column in arrays if column.dtype != bool]
    bits, index = np.unique(np.concatenate(floats).view(np.uint64), return_inverse=True)
    texts = (_json_texts if cfg.format == "json" else _csv_texts)(bits.view(np.float64))
    # Each cell's index into texts: a float's by its bits, a bool's into the two texts after them.
    float_index = iter(index.reshape(len(floats), -1))
    cell_index = [column + bits.size if column.dtype == bool else next(float_index) for column in arrays]
    cells = np.array(texts + ["false", "true"], dtype=object)[np.array(cell_index).T]
    values = tuple(cells.ravel().tolist())
    n_rows = arrays[0].size
    slots = {name: "%s" if isinstance(c, np.ndarray) else _fmt_bool(c) for name, c in columns.items()}
    if cfg.format == "json":
        text = json.dumps({"params": dict(_echo(cfg)), "rows": [], **after}, indent=2)
        if n_rows:
            row = ",".join(f'\n      "{name}": {slot}' for name, slot in slots.items())
            body = ",".join([f"\n    {{{row}\n    }}"] * n_rows) % values
            text = text.replace('"rows": []', f'"rows": [{body}\n  ]', 1)
        return text + "\n"
    return "\n".join([",".join(columns)] + [",".join(slots.values())] * n_rows) % values + "\n"


def _scan_columns(
    cfg: RunConfig, g: np.ndarray, gp: np.ndarray, rates: np.ndarray, on_boundary: np.ndarray
) -> dict[str, object]:
    """The SCAN_HEADER columns of scan and boundary rows, each row physical."""
    if cfg.clamp_nonnegative:  # max(rate, 0.0) per row: -0.0 and NaN pass through
        rates = np.where(rates < 0.0, 0.0, rates)
    return dict(zip(SCAN_HEADER.split(","), (g, gp, rates, True, on_boundary)))


def cmd_scan(cfg: RunConfig) -> str:
    _params(cfg)  # tau and omega obey the same domain checks
    report = _landscape.verify_minimality(
        cfg.protocol, cfg.tau, cfg.omega, cfg.grid_resolution, mu=cfg.mu
    )
    # Stable: a grid point precedes the boundary sample it equals, and is folded into it.
    order = np.lexsort((report.g_prime, report.g))
    g, gp = report.g[order], report.g_prime[order]
    first = np.ones(g.size, dtype=bool)
    first[1:] = (g[1:] != g[:-1]) | (gp[1:] != gp[:-1])
    on_boundary = np.logical_or.reduceat(report.on_boundary[order], np.flatnonzero(first))
    columns = _scan_columns(cfg, g[first], gp[first], report.rate[order][first], on_boundary)
    return _table(cfg, columns, origin_rate=_clamp(cfg, report.origin_rate), verdict=report.verdict)


def cmd_boundary(cfg: RunConfig) -> str:
    _params(cfg)
    g, gp = boundary_curve_arrays(cfg.omega, cfg.grid_resolution)
    rates = _rates.key_rates(cfg.protocol, cfg.tau, cfg.omega, g, gp, mu=cfg.mu)
    if not g.size:
        raise DomainError(
            f"boundary is empty: no boundary sample at omega = {cfg.omega} "
            f"and grid resolution {cfg.grid_resolution}"
        )
    columns = _scan_columns(cfg, g, gp, rates, np.ones(g.size, dtype=bool))
    return _table(cfg, columns, origin_rate=None, verdict=None)


def cmd_critical(cfg: RunConfig) -> str:
    _params(cfg)
    report = _landscape.critical_point_report(cfg.protocol, cfg.tau, cfg.omega)
    gradient, hessian = list(report.gradient_at_origin), report.hessian_at_origin.tolist()
    if cfg.format == "json":
        derivatives = [("gradient", gradient), ("hessian", hessian)]
    else:
        names = ("gradient_g", "gradient_g_prime")
        names += ("hessian_gg", "hessian_ggp", "hessian_gpg", "hessian_gpgp")
        derivatives = list(zip(names, [*gradient, *hessian[0], *hessian[1]]))
    residual = abs(report.det_h - report.analytic_det_h) / abs(report.analytic_det_h)
    return _record(cfg, [
        *_echo(cfg),
        *derivatives,
        ("det_h", report.det_h),
        ("analytic_det_h", report.analytic_det_h),
        ("det_residual_rel", residual),
        ("is_minimum", report.is_minimum),
    ])


def cmd_converge(cfg: RunConfig) -> str:
    params = _params(cfg)
    closed = _rates.key_rate_asymptotic(params, cfg.protocol)
    numeric = np.array([
        _rates.key_rate_numeric(params, _rates.ProtocolSpec(cfg.protocol, mu)).rate
        for mu in CONVERGE_SWEEP
    ])
    return _table(cfg, {
        "mu": np.array(CONVERGE_SWEEP),
        "rate_numeric": numeric,
        "rate_asymptotic": np.full(numeric.size, closed),
        "abs_delta": np.abs(numeric - closed),
    })


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
        _write(cfg, _COMMANDS[cfg.command](cfg))
    except ConfigError as exc:
        print(f"config error: {exc}", file=stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=stderr)
        return 2
    except NumericalDegeneracyError as exc:
        print(f"numerical error: {exc}", file=stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
