"""Exception types shared across the package, and its warning helper."""

import sys
import warnings


def warn_at_caller(message):
    """``warnings.warn`` naming the nearest caller outside dpsco, however deep it is raised.

    Frames are matched by module name, which needs no ``skip_file_prefixes``
    (Python 3.12) and works on 3.10.
    """
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, UserWarning, stacklevel=level)


class ConfigError(ValueError):
    """Invalid configuration: unknown keys, bad grids, unregistered names."""


class RefusalError(RuntimeError):
    """A solver refused to run because a privacy precondition failed.

    Refusals are not bugs: they signal that the requested (epsilon, n,
    smoothness) combination is outside the regime where the mechanism's
    privacy guarantee holds.  ``reason`` is human readable; ``requirement``
    optionally carries the violated threshold.
    """

    def __init__(self, reason, requirement=None):
        super().__init__(reason)
        self.reason = reason
        self.requirement = requirement


class NumericError(RuntimeError):
    """An iterative routine failed to reach its tolerance within its cap."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
