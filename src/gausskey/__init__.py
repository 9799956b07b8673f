"""Key rates of one-way CV-QKD under two-mode Gaussian attacks.

Library layout:

* :mod:`gausskey.gaussian`  -- covariance-matrix calculus: the validated
  ``CovMat`` input type, symplectic spectra and entropies (the CM
  operations of the numeric pipeline are private kernels);
* :mod:`gausskey.attack`    -- the correlated two-mode attack model and
  its physicality region;
* :mod:`gausskey.rates`     -- protocol rates, closed-form and numeric;
* :mod:`gausskey.landscape` -- critical-point analysis and minimality
  certification over the correlation plane;
* :mod:`gausskey.cli`       -- the ``gausskey`` command.
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
    CovMat,
    DomainError,
    NumericalDegeneracyError,
    entropy_h,
    entropy_h_array,
    is_physical,
    symplectic_form,
    symplectic_spectrum,
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
    finite_diff_gradient,
    hessian_at_origin,
    origin_is_strict_minimum,
    rate_function,
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
    conditional_spectra_switching,
    conditional_spectrum_noswitching,
    holevo_noswitching,
    holevo_switching,
    key_rate_asymptotic,
    key_rate_noswitching,
    key_rate_numeric,
    key_rate_switching,
    key_rate_switching_mixed,
    key_rates,
    mutual_information,
    rate_report,
    total_spectrum_asymptotic,
)

__version__ = "0.1.0"
