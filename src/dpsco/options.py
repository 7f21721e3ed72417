"""Range checks of option values, run both by the code that takes a value
(``ValueError``) and by the config parser (``ConfigError``), so both refuse
the same values: solver options, the privacy budget, the evaluation options
of ``excess_population_risk`` and the grid's counts; and component
parameters, which the component tables check as they build them."""

import math
from numbers import Integral, Real


def _number(test, kind=Real):
    return lambda v: isinstance(v, kind) and not isinstance(v, bool) and test(v)


def _finite(test, text):
    return _number(lambda v: math.isfinite(v) and test(v)), f"a finite number {text}"


_POSITIVE = (_number(lambda v: v > 0), "> 0")
_COUNT = (_number(lambda v: v >= 1, Integral), "a positive integer")

_RANGES = {
    "T": _COUNT,
    "alpha_opt": (_number(lambda v: 0 < v <= 1), "in (0, 1]"),
    "lambda_reg": (_number(lambda v: v >= 0), ">= 0"),
    "lambda_trunc": _POSITIVE,
    "c_t": _POSITIVE,
    "epsilon": _POSITIVE,
    "delta": (_number(lambda v: 0 < v < 1), "in (0, 1)"),
    "policy": (lambda v: isinstance(v, str) and v in ("auto", "oracle", "mc"), "one of auto, oracle, mc"),
    "m_eval": (_number(lambda v: v >= 2, Integral), "an integer >= 2"),
    "trials": _COUNT,
    "parallelism": _COUNT,
    "base_seed": (_number(lambda v: True, Integral), "an integer"),
    # Component parameters: radii, bounds, scales, t_dof and the spread.
    **dict.fromkeys(("feature_dual_bound", "huber_delta", "mu_scale", "spread", "w_star_norm",
                     "feature_radius", "t_dof", "t_scale", "radius"), _finite(lambda v: v > 0, "> 0")),
    **dict.fromkeys(("domain_radius", "constraint_radius"), _finite(lambda v: v >= 0, ">= 0")),
    "sphere_exponent": _finite(lambda v: v >= 1, ">= 1"),
    "p": _finite(lambda v: v > 1, "> 1"),
}
# The solver options whose None selects a default schedule.
_SCHEDULED = {"T", "alpha_opt", "lambda_reg", "lambda_trunc"}


def check_options(**options):
    """Raise ValueError naming the first option out of its range; keys outside the table pass."""
    for key, value in options.items():
        if key in _RANGES and not (value is None and key in _SCHEDULED or _RANGES[key][0](value)):
            raise ValueError(f"{key} must be {_RANGES[key][1]}, got {value!r}")
