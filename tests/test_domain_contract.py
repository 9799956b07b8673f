"""The domain contract as one table: every public entry that takes tau, omega,
mu, a grid resolution or a ProtocolSpec, called at the edges of each rule.

Each row varies one input from a valid base point and pins the outcome:
``accepted``, or the error's type and text.  Entries that take mu run each
tau, omega and resolution edge on both routes, closed form (mu None) and
finite modulation (mu 1e4).  Warnings are errors here, as in the suite.
"""

import math
import warnings
from pathlib import Path

import gausskey as gk
from gausskey.attack import physical_grid_mirror

VARIANT = "noswitching"
OMITTED = "omitted"  # the argument is not passed
ACCEPTED = "accepted"
# One "row -> outcome" line per row, in the order rows() yields them.
EXPECTED = Path(__file__).with_name("domain_contract.txt")

EDGES = {
    "tau": (0.0, 5e-324, 1.0, 1.5, math.nan),
    "omega": (0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, math.nan, math.inf),
    "resolution": (1, 2),
}
MUS = (None, 1.0, 1.0 + 2.0**-52, math.inf)
ASYMPTOTICS = (OMITTED, True, False)
BASE = {"tau": 0.44, "omega": 2.0, "resolution": 3}
ROUTES = {
    "closed": {"mu": None, "asymptotic": OMITTED},
    "finite": {"mu": 1e4, "asymptotic": False},
}


def _params(x):
    return gk.AttackParams(x["tau"], x["omega"], 0.0, 0.0)


def _spec(x):
    given = {} if x["asymptotic"] is OMITTED else {"asymptotic": x["asymptotic"]}
    return gk.ProtocolSpec(VARIANT, mu=x["mu"], **given)


# name -> (the inputs it takes, a call of it on a dict of inputs).  "mu"
# takes mu alone; "spec" takes mu and asymptotic through a ProtocolSpec.
ENTRIES = {
    "AttackParams": ("tau omega", _params),
    "ProtocolSpec": ("spec", _spec),
    "key_rate_asymptotic": ("tau omega", lambda x: gk.key_rate_asymptotic(_params(x), VARIANT)),
    "key_rates": (
        "tau omega mu",
        lambda x: gk.key_rates(VARIANT, x["tau"], x["omega"], [0.0], [0.0], mu=x["mu"]),
    ),
    "key_rate_numeric": ("tau omega spec", lambda x: gk.key_rate_numeric(_params(x), _spec(x))),
    "rate_report": ("tau omega spec", lambda x: gk.rate_report(_params(x), _spec(x))),
    "mutual_information": (
        "tau omega spec", lambda x: gk.mutual_information(_params(x), _spec(x))
    ),
    "verify_minimality": (
        "tau omega resolution mu",
        lambda x: gk.verify_minimality(VARIANT, x["tau"], x["omega"], x["resolution"], mu=x["mu"]),
    ),
    "critical_point_report": (
        "tau omega", lambda x: gk.critical_point_report(VARIANT, x["tau"], x["omega"])
    ),
    "analytic_detH_noswitching": (
        "tau omega", lambda x: gk.analytic_detH_noswitching(x["tau"], x["omega"])
    ),
    "analytic_detH_switching": ("omega", lambda x: gk.analytic_detH_switching(x["omega"])),
    "analytic_detH_switching_mixed": (
        "omega", lambda x: gk.analytic_detH_switching_mixed(x["omega"])
    ),
    "analytic_second_derivs_switching": (
        "omega", lambda x: gk.analytic_second_derivs_switching(x["omega"])
    ),
    "second_derivative_inequality_noswitching": (
        "tau omega", lambda x: gk.second_derivative_inequality_noswitching(x["tau"], x["omega"])
    ),
    "physical_grid_mirror": (
        "omega resolution", lambda x: physical_grid_mirror(x["omega"], x["resolution"])
    ),
    "boundary_curve_arrays": (
        "omega resolution", lambda x: gk.boundary_curve_arrays(x["omega"], x["resolution"])
    ),
}


def rows():
    """(row name, entry name, inputs) for every row of the table."""
    for name, (takes, _) in ENTRIES.items():
        takes = takes.split()
        takes_mu = "mu" in takes or "spec" in takes
        routes = ROUTES if takes_mu else {"": {"mu": None, "asymptotic": OMITTED}}
        for axis, values in EDGES.items():
            if axis not in takes:
                continue
            for route, extra in routes.items():
                for value in values:
                    label = f"{name} {axis}={value!r}" + (f" ({route})" if route else "")
                    yield label, name, {**BASE, **extra, axis: value}
        if takes_mu:
            asymptotics = ASYMPTOTICS if "spec" in takes else (OMITTED,)
            for mu in MUS:
                for asymptotic in asymptotics:
                    label = f"{name} mu={mu!r}" + (
                        f" asymptotic={asymptotic}" if "spec" in takes else ""
                    )
                    yield label, name, {**BASE, "mu": mu, "asymptotic": asymptotic}


def outcome(name, inputs):
    """accepted, or the type and text of the error the call raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ENTRIES[name][1](inputs)
        except (ValueError, ArithmeticError, RuntimeError, RuntimeWarning) as exc:
            return f"{type(exc).__name__}: {exc}"
    return ACCEPTED


def table():
    return {label: outcome(name, inputs) for label, name, inputs in rows()}


def test_domain_contract():
    lines = EXPECTED.read_text(encoding="utf-8").splitlines()
    assert table() == dict(line.split(" -> ", 1) for line in lines)
