"""Experiment configuration: a single strict JSON document.

Unknown keys anywhere in the document are hard errors: a silently ignored
typo in a schedule constant would corrupt an experiment, so the parser
refuses instead.  Component names, their keys, each algorithm's geometry
and constraint needs, the losses each distribution's population minimizer
is known for, and whether a distribution allows oracle evaluation come from
the tables in ``components``.  A solver option out of its range (the
shared ``dpsco.options.check_options``, which the solvers run too), or a
``T`` that the smallest n cannot serve, is refused as well.  The config
builds the loss, distribution and constraint set once, so a value a
constructor refuses, or a population minimizer the evaluation cannot score
against, is refused at parse time too; the runner runs every cell on those
components.
"""

import json
from dataclasses import dataclass, field, fields
from typing import Optional

from ..errors import ConfigError
from ..options import check_options
from ..problems.risk import population_minimizer
from .components import ALGORITHMS, CONSTRAINTS, DISTRIBUTIONS, LOSSES

_EVAL_KEYS = {"policy", "m_eval"}


def _check_keys(mapping, allowed, where):
    unknown = set(mapping).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _check_T(algorithm, solver, n_min):
    """A T the smallest n cannot serve: the truncated solvers split n rows
    into T nonempty batches, and noisy_reg_md's automatic alpha_reg needs T < n."""
    T = solver.get("T")
    if T is None:
        return
    if algorithm == "noisy_reg_md":
        if "alpha_reg" not in solver and T >= n_min:
            raise ConfigError(
                f"noisy_reg_md: automatic alpha_reg needs T < n, but T={T} and the smallest n is "
                f"{n_min}; lower T or set alpha_reg"
            )
    elif T > n_min:
        raise ConfigError(f"{algorithm}: T={T} batches need n >= T, but the smallest n is {n_min}")


@dataclass
class ExperimentConfig:
    algorithm: str
    loss: dict
    distribution: dict
    geometry: dict
    n_grid: list
    eps_grid: list
    delta: float
    trials: int
    base_seed: int
    constraint: Optional[dict] = None
    evaluation: dict = field(default_factory=lambda: {"policy": "auto", "m_eval": 100_000})
    solver: dict = field(default_factory=dict)
    parallelism: int = 1
    # (loss, distribution, constraint set or None), built once from the tables
    components: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_keys(self.geometry, {"p", "d"}, "geometry")
        missing = {"p", "d"} - set(self.geometry)
        if missing:
            raise ConfigError(f"geometry is missing {sorted(missing)}")
        p, d = self.geometry["p"], self.geometry["d"]
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise ConfigError(f"geometry.p must be a number, got {p!r}")
        if isinstance(d, bool) or not isinstance(d, int) or d < 1:
            raise ConfigError(f"geometry.d must be a positive integer, got {d!r}")

        algo = ALGORITHMS.select(self.algorithm, self.solver)
        try:
            check_options(**self.solver)
        except ValueError as exc:
            raise ConfigError(f"{self.algorithm}: solver.{exc}") from exc
        algo.check_p(self.algorithm, p)
        if algo.constrained and self.constraint is None:
            raise ConfigError(f"{self.algorithm} requires a constraint set")
        if not algo.constrained and self.constraint is not None:
            raise ConfigError(f"{self.algorithm} is unconstrained; remove the constraint set")
        loss = LOSSES.build(self.loss, self.geometry)
        dist = DISTRIBUTIONS.build(self.distribution, self.geometry)
        fits = DISTRIBUTIONS[self.distribution["name"]].losses
        if self.loss["name"] not in fits:
            raise ConfigError(
                f"loss {self.loss['name']!r} does not fit distribution {self.distribution['name']!r}, "
                f"whose population minimizer is known for {list(fits)}"
            )
        C = None if self.constraint is None else CONSTRAINTS.build(self.constraint, self.geometry)
        population_minimizer(dist, C, loss)
        self.components = (loss, dist, C)

        if not self.n_grid or not self.eps_grid:
            raise ConfigError("n_grid and eps_grid must be nonempty")
        if any(int(n) != n or n < 1 for n in self.n_grid):
            raise ConfigError("n_grid must contain positive integers")
        _check_T(self.algorithm, self.solver, min(self.n_grid))
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must be in (0, 1)")
        _check_keys(self.evaluation, _EVAL_KEYS, "evaluation")
        policy = self.evaluation.get("policy")
        if policy not in ("auto", "oracle", "mc"):
            raise ConfigError("evaluation.policy must be auto|oracle|mc")
        if policy == "oracle" and not DISTRIBUTIONS[self.distribution["name"]].oracle:
            raise ConfigError(
                f"evaluation.policy 'oracle' but {self.distribution['name']!r} has no "
                "closed-form excess risk; use 'auto' or 'mc'"
            )
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        _check_keys(doc, _TOP_KEYS, "config")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(f"missing required config keys: {exc}") from exc

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def to_dict(self):
        doc = {key: getattr(self, key) for key in _TOP_KEYS}
        doc.update(n_grid=list(self.n_grid), eps_grid=list(self.eps_grid))
        return doc


# The document keys are the fields a config is built from (not the components it builds).
_TOP_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.init)
