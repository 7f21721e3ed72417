"""Range checks of solver options, run both by the solvers (``ValueError``) and
by the config parser (``ConfigError``), so both refuse the same values."""

from numbers import Integral, Real


def _number(test, kind=Real):
    return lambda v: isinstance(v, kind) and not isinstance(v, bool) and test(v)


_RANGES = {
    "T": (_number(lambda v: v >= 1, Integral), "a positive integer"),
    "alpha_opt": (_number(lambda v: 0 < v <= 1), "in (0, 1]"),
    "lambda_reg": (_number(lambda v: v >= 0), ">= 0"),
    "alpha_reg": (_number(lambda v: v > 0), "> 0"),
    "gamma": (_number(lambda v: v > 0), "> 0"),
    "eta": (_number(lambda v: v > 0), "> 0"),
}


def check_options(**options):
    """Raise ValueError naming the first option out of its range; None (a default schedule) passes."""
    for key, value in options.items():
        if value is not None and key in _RANGES and not _RANGES[key][0](value):
            raise ValueError(f"{key} must be {_RANGES[key][1]}, got {value!r}")
