"""Key rates of one-way CV-QKD under two-mode Gaussian attacks.

Library layout:

* :mod:`gausskey.gaussian`  -- covariance-matrix calculus: bosonic
  entropies, and the private steps of the numeric pipeline on packed
  q/p sectors (conditioning and symplectic spectra);
* :mod:`gausskey.attack`    -- the correlated two-mode attack model and
  its physicality region;
* :mod:`gausskey.rates`     -- protocol rates, closed-form and numeric;
* :mod:`gausskey.landscape` -- critical-point analysis and minimality
  certification over the correlation plane;
* :mod:`gausskey.cli`       -- the ``gausskey`` command.

``__all__`` lists the public API; the README's examples import only
names from it.
"""

from .attack import (
    AttackParams,
    boundary_curve_arrays,
    constraint_slack,
    lens_mask,
    violated_constraint,
)
from .gaussian import (
    EPS_PHYS,
    DomainError,
    NumericalDegeneracyError,
    entropy_h,
    entropy_h_array,
)
from .landscape import (
    CriticalPointReport,
    LandscapeReport,
    analytic_detH_noswitching,
    analytic_detH_switching,
    analytic_detH_switching_mixed,
    analytic_second_derivs_switching,
    critical_point_report,
    f_log,
    find_zero_rate_transmissivity,
    second_derivative_inequality_noswitching,
    verify_minimality,
)
from .rates import (
    DEFAULT_MU,
    NO_SWITCHING,
    SWITCHING,
    SWITCHING_MIXED,
    VARIANTS,
    ProtocolSpec,
    RateReport,
    key_rate_asymptotic,
    key_rate_numeric,
    key_rates,
    mutual_information,
    rate_report,
)

__all__ = [
    "AttackParams", "boundary_curve_arrays", "constraint_slack", "lens_mask",
    "violated_constraint", "EPS_PHYS", "DomainError", "NumericalDegeneracyError", "entropy_h",
    "entropy_h_array", "CriticalPointReport", "LandscapeReport", "analytic_detH_noswitching",
    "analytic_detH_switching", "analytic_detH_switching_mixed",
    "analytic_second_derivs_switching", "critical_point_report", "f_log",
    "find_zero_rate_transmissivity", "second_derivative_inequality_noswitching",
    "verify_minimality", "DEFAULT_MU", "NO_SWITCHING", "SWITCHING", "SWITCHING_MIXED",
    "VARIANTS", "ProtocolSpec", "RateReport", "key_rate_asymptotic", "key_rate_numeric",
    "key_rates", "mutual_information", "rate_report",
]

__version__ = "0.1.0"
