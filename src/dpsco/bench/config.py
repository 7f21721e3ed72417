"""Experiment configuration: a single strict JSON document, checked once.

Unknown keys anywhere in the document are hard errors: a silently ignored
typo in a schedule constant would corrupt an experiment, so the parser
refuses instead.  Component names, their keys, each algorithm's geometry
and constraint needs, and the losses each distribution's population
minimizer is known for come from the tables in ``components``; whether a
distribution allows oracle evaluation is asked of the distribution, once.
Values are range-checked by ``dpsco.options.check_options`` (component
parameters as their table builds them), which the code that takes them
runs too; the ``evaluation`` section is the keyword arguments of
``excess_population_risk``, whose signature holds its defaults.  A ``T``
or a smallest n that the solver cannot serve is refused as well, and so is
a loss whose declared norm lies outside the algorithm's p range.  The config
builds the loss, distribution and constraint set and one ``PrivacyBudget`` per epsilon
once, so a value they refuse is refused at parse time too; every cell,
serial or pooled, runs on those objects.
"""

import json
from dataclasses import MISSING, dataclass, field, fields
from numbers import Real
from typing import Optional

from ..errors import ConfigError
from ..mechanisms import PrivacyBudget
from ..options import check_options
from ..problems.risk import closed_form_risk, excess_population_risk, population_minimizer
from .components import ALGORITHMS, CONSTRAINTS, DISTRIBUTIONS, LOSSES

# The evaluation section holds the keyword-only arguments of excess_population_risk.
_EVAL_KEYS = tuple(excess_population_risk.__kwdefaults__)


def _check_keys(mapping, allowed, where):
    unknown = set(mapping).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _check_T(algorithm, solver, n_min):
    """A T or a smallest n the solver cannot serve: noisy_reg_md's alpha_reg
    needs T < n (its automatic T is at least 1), shuffling needs n >= 2, and
    the truncated solvers split n rows into T nonempty batches."""
    T = solver.get("T")
    if algorithm == "noisy_reg_md" and (T or 1) >= n_min:
        raise ConfigError(f"noisy_reg_md: alpha_reg needs T < n, but T={T or 'auto >= 1'} and the "
                          f"smallest n is {n_min}")
    if algorithm == "shuffled_truncated_md" and n_min < 2:
        raise ConfigError("shuffled_truncated_md: shuffling needs n >= 2, but the smallest n is 1")
    if algorithm != "noisy_reg_md" and T is not None and T > n_min:
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
    evaluation: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    parallelism: int = 1
    # Built once at parse: (loss, distribution, constraint set or None) from
    # the tables and the PrivacyBudget of each epsilon.
    components: tuple = field(init=False, repr=False, compare=False)
    budgets: tuple = field(init=False, repr=False, compare=False)

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
        algo.check_p(self.algorithm, loss.norm_p, f"loss {self.loss['name']!r}")
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
        if not all(isinstance(n, Real) and not isinstance(n, bool) and n >= 1 and float(n).is_integer()
                   for n in self.n_grid):
            raise ConfigError("n_grid must contain positive integers")
        _check_T(self.algorithm, self.solver, min(self.n_grid))
        _check_keys(self.evaluation, _EVAL_KEYS, "evaluation")
        try:
            check_options(trials=self.trials, parallelism=self.parallelism, base_seed=self.base_seed,
                          delta=self.delta, **self.evaluation)
            closed_form_risk(dist.true_minimizer, dist, loss, self.evaluation.get("policy"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        budgets = []
        for i, eps in enumerate(self.eps_grid):
            try:
                budgets.append(PrivacyBudget(eps, self.delta))
            except ValueError as exc:  # delta passed above, so this names the epsilon
                raise ConfigError(f"eps_grid[{i}]: {exc}") from exc
        self.budgets = tuple(budgets)

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        _check_keys(doc, _TOP_KEYS, "config")
        missing = [key for key in _REQUIRED_KEYS if key not in doc]
        if missing:
            raise ConfigError(f"missing required config keys: {missing}")
        return cls(**doc)

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


# The document keys are the fields a config is built from (not the objects it builds).
_TOP_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.init)
_REQUIRED_KEYS = tuple(f.name for f in fields(ExperimentConfig)
                       if f.init and f.default is MISSING and f.default_factory is MISSING)
