"""Range checks of option values, run both by the code that takes a value
(``ValueError``) and by the config parser (``ConfigError``), so both refuse
the same values: solver options, the privacy budget, the evaluation options
of ``excess_population_risk`` and the grid's counts; and component
parameters, which the component tables check as they build them.  Solvers
range-check their options in their schedules, which return a ``Schedule``."""

import math
from numbers import Integral, Real
from types import SimpleNamespace

from .errors import warn_at_caller


def _number(test, kind=Real):
    return lambda v: isinstance(v, kind) and not isinstance(v, bool) and test(v)


def _finite(test, text):
    return _number(lambda v: math.isfinite(v) and test(v)), f"a finite number {text}"


_POSITIVE = _finite(lambda v: v > 0, "> 0")
_NONNEGATIVE = _finite(lambda v: v >= 0, ">= 0")
_COUNT = (_number(lambda v: v >= 1, Integral), "a positive integer")

_RANGES = {
    "T": _COUNT,
    "alpha_opt": (_number(lambda v: 0 < v <= 1), "in (0, 1]"),
    "lambda_reg": _NONNEGATIVE,
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
                     "feature_radius", "t_dof", "t_scale", "radius"), _POSITIVE),
    **dict.fromkeys(("domain_radius", "constraint_radius"), _NONNEGATIVE),
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


class Schedule(SimpleNamespace):
    """A solver's data-independent choices, by field name: functions of n, d, the loss,
    C, the budget and the options alone.  ``warnings`` holds the texts of the
    UserWarnings the solver emits for them (``warn``), so evaluating a schedule is silent."""

    def warn(self):
        for text in self.warnings:
            warn_at_caller(text)
