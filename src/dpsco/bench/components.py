"""One table per experiment component: what a config may say, and how to build it.

Each table maps a component name to its builder and the keys it accepts.
``ExperimentConfig`` validates a document against these tables and the
runner builds every cell from the same entries, so a key is accepted exactly
when a builder consumes it.  Builders pass on only the keys a config gives:
every default lives in the constructor or schedule signature that consumes
it.  An algorithm entry is read from its solver: the keyword-only parameters
of its schedule are the one list of the solver's options.  The loss a
distribution serves is the distribution's to say (its ``minimizer`` and
``certify``).
"""

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigError
from ..euclidean import app_objp, app_objp_sc, phased_dp_sgd
from ..mirror import batched_truncated_md, noisy_reg_md, shuffled_truncated_md
from ..options import check_options
from ..problems.constraints import L1Ball, L2Ball, LpBall
from ..problems.distributions import BallCloud, HeavyTailLinear, LogisticSphere
from ..problems.losses import LogisticLoss, MeanPointLoss, PseudoHuberLoss

__all__ = ["Component", "Algorithm", "Table",
           "LOSSES", "DISTRIBUTIONS", "CONSTRAINTS", "ALGORITHMS"]


@dataclass(frozen=True)
class Component:
    """``build(geometry, **params)`` and the parameter keys it accepts."""

    build: Callable
    keys: tuple = ()


@dataclass(frozen=True)
class Algorithm:
    """How a config calls a solver, read from the solver by ``of``.

    ``schedule`` is the solver's ``schedule(n, d, loss, C, budget, **options)``
    and ``keys`` are its keyword-only parameters.  A solver with a ``C``
    parameter is ``constrained``: it requires a constraint set and the others
    refuse one.  Geometry p, and the p the loss declares its constants in,
    must lie in ``p_range``, open when ``p_open``.
    """

    schedule: Callable
    keys: tuple
    constrained: bool
    p_range: tuple = (2.0, 2.0)
    p_open: bool = False

    @classmethod
    def of(cls, solver, **kw):
        keys = tuple(solver.schedule.__kwdefaults__ or ())
        return cls(solver.schedule, keys, "C" in inspect.signature(solver).parameters, **kw)

    def run(self, solve, data, loss, C, budget, rng, **options):
        """``solve(data, loss, [C,] budget, rng, **options)``."""
        return solve(data, loss, *([C] if self.constrained else []), budget, rng, **options)

    def check_p(self, name, p, source="geometry"):
        lo, hi = self.p_range
        if not (lo < p < hi if self.p_open else lo <= p <= hi):
            rel = "<" if self.p_open else "<="
            raise ConfigError(f"{name} needs {lo} {rel} p {rel} {hi}; {source} has p={p}")


class Table(dict):
    """Entries by name; ``tag`` is the key that names the entry in a config section."""

    def __init__(self, kind, entries, tag="name"):
        super().__init__(entries)
        self.kind = kind
        self.tag = tag

    def select(self, name, params):
        """The entry called ``name``, after refusing every key of ``params`` it does not accept."""
        if name not in self:
            raise ConfigError(f"unknown {self.kind} {name!r}; known: {sorted(self)}")
        unknown = sorted(set(params) - set(self[name].keys))
        if unknown:
            raise ConfigError(
                f"unknown key(s) for {self.kind} {name!r}: {unknown}; accepted: {sorted(self[name].keys)}"
            )
        return self[name]

    def parse(self, section):
        """(entry, params) of a section such as ``{"name": ..., **params}``."""
        params = {k: v for k, v in section.items() if k != self.tag}
        return self.select(section.get(self.tag), params), params

    def build(self, section, geometry):
        """The component a section describes; a value out of its range (``check_options``)
        or one its constructor refuses is a ConfigError."""
        entry, params = self.parse(section)
        try:
            check_options(**params)
            return entry.build(geometry, **params)
        except ValueError as exc:
            raise ConfigError(f"{self.kind} {section[self.tag]!r}: {exc}") from exc


def _diagonal(d, scale):
    return scale * (np.ones(d) / math.sqrt(d))


def _lp_ball(geometry, radius=1.0, p=None):
    p = geometry.get("p") if p is None else p
    if p is None:
        raise ConfigError("an lp constraint needs p")
    return LpBall(p, radius, geometry["d"])


LOSSES = Table("loss", {
    "logistic": Component(lambda g, **kw: LogisticLoss(norm_p=g["p"], **kw), ("feature_dual_bound",)),
    "mean_point": Component(lambda g, **kw: MeanPointLoss(**kw), ("domain_radius", "constraint_radius")),
    "pseudo_huber": Component(
        lambda g, **kw: PseudoHuberLoss(norm_p=g["p"], **kw), ("huber_delta", "feature_dual_bound")
    ),
})

DISTRIBUTIONS = Table("distribution", {
    "ball_cloud": Component(
        lambda g, mu_scale=0.5, **kw: BallCloud(_diagonal(g["d"], mu_scale), **kw), ("mu_scale", "spread")
    ),
    "logistic_sphere": Component(
        lambda g, w_star_norm=0.8, feature_radius=1.0, **kw: LogisticSphere(
            _diagonal(g["d"], w_star_norm), radius=feature_radius, **kw),
        ("w_star_norm", "sphere_exponent", "feature_radius"),
    ),
    "heavy_tail_linear": Component(
        lambda g, w_star_norm=0.5, **kw: HeavyTailLinear(_diagonal(g["d"], w_star_norm), **kw),
        ("w_star_norm", "sphere_exponent", "t_dof", "t_scale"),
    ),
})

CONSTRAINTS = Table("constraint set", {
    "l2": Component(lambda g, radius=1.0: L2Ball(radius, g["d"]), ("radius",)),
    "l1": Component(lambda g, radius=1.0: L1Ball(radius, g["d"]), ("radius",)),
    "lp": Component(_lp_ball, ("radius", "p")),
}, tag="set")


_BELOW_TWO = {"p_range": (1.0, 2.0), "p_open": True}

ALGORITHMS = Table("algorithm", {
    "app_objp": Algorithm.of(app_objp),
    "app_objp_sc": Algorithm.of(app_objp_sc),
    "phased_dp_sgd": Algorithm.of(phased_dp_sgd),
    "lipschitz_high_p": Algorithm.of(phased_dp_sgd, p_range=(2.0, math.inf)),
    "noisy_reg_md": Algorithm.of(noisy_reg_md, **_BELOW_TWO),
    "shuffled_truncated_md": Algorithm.of(shuffled_truncated_md, **_BELOW_TWO),
    "batched_truncated_md": Algorithm.of(batched_truncated_md, **_BELOW_TWO),
})
