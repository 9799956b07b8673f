"""Print four sha256 digests that pin the library's output bits.

    PYTHONPATH=src python scripts/byte_contract.py

* ``verify_minimality``: every field of the report for a fixed set of
  (protocol, tau, omega, resolution), plus the errors of a few bad calls;
* ``cli``: exit code, stdout and stderr of a fixed set of ``gausskey``
  commands, run in process through ``gausskey.cli.main``;
* ``cli_formats``: the same for the command, format and clamp settings
  that ``cli`` leaves out: ``critical``, ``converge`` and ``boundary`` as
  JSON, clamped ``rate``, ``boundary`` and ``scan`` in both formats, and
  error exits as JSON;
* ``key_rate_numeric``: every ``RateReport`` field of a fixed set of
  finite-modulation calls.

Floats are hashed as ``float.hex`` and arrays as shape, dtype and raw
bytes, so a digest changes exactly when some output bit does.  A change
that alters output bits on purpose records the new digests in CHANGES.md;
every other change must leave them as they are.  The inputs are fixed
here and use no randomness and no predicate of the library.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import math

import numpy as np

from gausskey import AttackParams, ProtocolSpec, cli, key_rate_numeric, verify_minimality

PROTOCOLS = ("noswitching", "switching", "switching-mixed")
OMEGAS = (1.0001, 1.001, 1.01, 1.05, 1.2, 1.5, 2.0, 3.7, 7.0, 15.0, 42.0, 100.0, 1e3)
TAUS = (0.05, 0.2, 0.44, 0.6, 0.8, 0.95)


# Attributes hashed instead of the dataclass fields.  LandscapeReport keeps
# its points as arrays and builds its row tuples on demand; it is hashed
# through the attributes of its row form, so the digest stays comparable
# across that change of layout.
HASHED_ATTRIBUTES = {
    "LandscapeReport": (
        "protocol", "tau", "omega", "grid_rates", "boundary_rates", "origin_rate",
        "min_over_grid", "verdict", "degenerate", "near_origin_flags",
    ),
}


def canon(value) -> str:
    """Text that determines every bit of value."""
    if isinstance(value, (bool, str)) or value is None:
        return repr(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, np.ndarray):
        return f"array{value.shape}{value.dtype}:{value.tobytes().hex()}"
    if dataclasses.is_dataclass(value):
        names = HASHED_ATTRIBUTES.get(type(value).__name__) or [
            f.name for f in dataclasses.fields(value)
        ]
        body = ",".join(f"{name}={canon(getattr(value, name))}" for name in names)
        return f"{type(value).__name__}({body})"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canon(v) for v in value) + ")"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def outcome(fn, *args) -> str:
    """canon of fn(*args), or the type and text of the error it raises."""
    try:
        return canon(fn(*args))
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def minimality_cases():
    taus = itertools.cycle(TAUS)
    for protocol, omega in itertools.product(PROTOCOLS, OMEGAS):
        tau = next(taus)
        for resolution in (2, 3, 101):
            yield protocol, tau, omega, resolution
    yield "noswitching", 0.44, 1e4, 101  # boundary samples rounded inward onto the lens
    yield "noswitching", 0.0, 2.0, 11
    yield "switching", 0.5, 0.5, 11
    yield "bogus", 0.5, 2.0, 11


def cli_cases():
    taus = itertools.cycle(TAUS)
    for protocol, omega in itertools.product(PROTOCOLS, (1.05, 2.0, 7.0, 42.0, 1e3)):
        base = ["--protocol", protocol, "--tau", str(next(taus)), "--omega", str(omega)]
        point = ["--g", str(0.3 * (omega - 1.0)), "--gprime", str(-0.2 * (omega - 1.0))]
        for fmt in ("csv", "json"):
            yield ["scan", *base, "--grid-resolution", "41", "--format", fmt]
            yield ["rate", *base, *point, "--format", fmt]
            yield ["rate", *base, *point, "--mu", "1e4", "--format", fmt]
        yield ["boundary", *base, "--grid-resolution", "41"]
        yield ["critical", *base]
        if omega < 10.0:
            yield ["converge", *base, *point]
            yield ["scan", *base, "--mu", "1e3", "--grid-resolution", "5"]
    yield ["scan", "--tau", "0.3", "--omega", "1.2", "--grid-resolution", "21",
           "--format", "json", "--clamp-nonnegative"]
    yield ["scan", "--tau", "0.44", "--omega", "1e6", "--grid-resolution", "21"]
    yield ["scan", "--tau", "0.5", "--omega", "10", "--mu", "1e6", "--grid-resolution", "7"]
    yield ["rate", "--tau", "1.5", "--omega", "2"]
    yield ["rate", "--tau", "0.5", "--omega", "2", "--g", "1.9", "--gprime", "1.9"]


def cli_format_cases():
    taus = itertools.cycle(TAUS)
    for protocol, omega in itertools.product(PROTOCOLS, (1.05, 2.0, 7.0, 1e3)):
        base = ["--protocol", protocol, "--tau", str(next(taus)), "--omega", str(omega)]
        point = ["--g", str(0.3 * (omega - 1.0)), "--gprime", str(-0.2 * (omega - 1.0))]
        yield ["critical", *base, "--format", "json"]
        yield ["boundary", *base, "--grid-resolution", "41", "--format", "json"]
        if omega < 10.0:
            yield ["converge", *base, *point, "--format", "json"]
        for fmt in ("csv", "json"):
            clamped = ["--clamp-nonnegative", "--format", fmt]
            yield ["rate", *base, *point, *clamped]
            yield ["rate", *base, *point, "--mu", "1e4", *clamped]
            yield ["boundary", *base, "--grid-resolution", "41", *clamped]
    for fmt in ("csv", "json"):
        clamped = ["--clamp-nonnegative", "--format", fmt]
        yield ["scan", "--tau", "0.9", "--omega", "1.5", "--grid-resolution", "21", *clamped]
        yield ["boundary", "--tau", "0.5", "--omega", "3", "--mu", "1e3", "--grid-resolution", "5",
               *clamped]
        yield ["rate", "--tau", "0.5", "--omega", "2", "--g", "1.9", "--gprime", "1.9", "--format", fmt]
        yield ["critical", "--tau", "0.5", "--omega", "1.000001", "--format", fmt]
    yield ["converge", "--tau", "1.5", "--omega", "2", "--format", "json"]
    yield ["boundary", "--tau", "0.5", "--omega", "1", "--format", "json"]


def run_cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv, stderr=err)
    return f"{argv} -> {code}\n{out.getvalue()}\n{err.getvalue()}"


def numeric_cases():
    for i in range(40):
        omega = 1.01 * (100.0 / 1.01) ** (i / 39)
        tau = 0.05 + 0.9 * ((0.618034 * i) % 1.0)
        # |g|, |g'| <= 0.9 (omega - 1) keeps both attack products above 1
        g = 0.9 * (omega - 1.0) * math.sin(1.3 * i)
        gp = 0.9 * (omega - 1.0) * math.cos(2.1 * i)
        for variant, mu in itertools.product(PROTOCOLS, (1e2, 1e4, 1e6)):
            yield AttackParams(tau, omega, g, gp), ProtocolSpec(variant, mu, asymptotic=False)


def digests() -> dict[str, str]:
    return {
        "verify_minimality": digest(
            f"{case} -> {outcome(verify_minimality, *case)}" for case in minimality_cases()
        ),
        "cli": digest(run_cli(argv) for argv in cli_cases()),
        "cli_formats": digest(run_cli(argv) for argv in cli_format_cases()),
        "key_rate_numeric": digest(outcome(key_rate_numeric, *case) for case in numeric_cases()),
    }


def main() -> None:
    for name, value in digests().items():
        print(name, value)


if __name__ == "__main__":
    main()
