"""Experiment configuration: a single strict JSON document, checked once.

Unknown keys anywhere in the document are hard errors: a silently ignored
typo in a schedule constant would corrupt an experiment, so the parser
refuses instead.  A key repeated in one object is refused too; plain JSON
loading would keep its last value.  Component names, their keys, and each
algorithm's geometry and constraint needs come from the tables in
``components``.  The distribution is asked once for its loss's
``minimizer``, which refuses a loss it does not serve, for ``certify``, and
whether it has a closed form there, which oracle evaluation needs.
Values are range-checked by ``dpsco.options.check_options`` (component
parameters as their table builds them, solver options by the solver's
schedule), which the code that takes them runs too; the ``evaluation``
section is the keyword arguments of ``excess_population_risk``, whose
signature holds its defaults.  A loss whose declared norm lies outside the
algorithm's p range is refused.  The config builds the loss, distribution
and constraint set and one ``PrivacyBudget`` per epsilon once, so a value
they refuse is refused at parse time too; every cell, serial or pooled,
runs on those objects.  Then it evaluates the solver's data-independent
schedule at every (n, epsilon) of the grid, as the cell will: a ``T`` or an
n the solver cannot serve, arithmetic that overflows and a schedule field
that is not finite are refused, and a privacy refusal is left to its cell.
"""

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from numbers import Real
from typing import Optional

from ..errors import ConfigError, RefusalError
from ..mechanisms import PrivacyBudget
from ..options import check_options
from ..problems.risk import closed_form_risk, excess_population_risk
from .components import ALGORITHMS, CONSTRAINTS, DISTRIBUTIONS, LOSSES

# The evaluation section holds the keyword-only arguments of excess_population_risk.
_EVAL_KEYS = tuple(excess_population_risk.__kwdefaults__)


def _check_keys(mapping, allowed, where):
    unknown = set(mapping).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _unique_keys(pairs):
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ConfigError(f"repeated key(s) in a config object: {repeated}")
    return dict(pairs)


def _finite(value):
    """False for a float, or a list holding one, that is inf or NaN."""
    values = value if isinstance(value, list) else [value]
    return all(math.isfinite(v) for v in values if isinstance(v, float))


def _check_schedules(cfg, schedule):
    """Evaluate the solver's schedule at every (n, epsilon) of the grid.

    A RefusalError is left to the cell, which records it.  A ValueError, an
    ArithmeticError or a field that is not finite would abort the grid in
    that cell, so it is a ConfigError naming the cell.
    """
    loss, _, C = cfg.components
    for n in map(int, cfg.n_grid):
        for i, budget in enumerate(cfg.budgets):
            where = f"{cfg.algorithm} at n={n}, eps_grid[{i}]={budget.epsilon!r}"
            if cfg.solver:
                where += f" with solver {cfg.solver}"
            try:
                s = schedule(n, cfg.geometry["d"], loss, C, budget, **cfg.solver)
            except RefusalError:
                continue
            except (ValueError, ArithmeticError) as exc:
                raise ConfigError(f"{where}: {type(exc).__name__}: {exc}") from exc
            bad = [f"{key}={value}" for key, value in vars(s).items() if not _finite(value)]
            if bad:
                raise ConfigError(f"{where}: the schedule is not finite: {', '.join(bad)}")


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
        algo.check_p(self.algorithm, p)
        if algo.constrained and self.constraint is None:
            raise ConfigError(f"{self.algorithm} requires a constraint set")
        if not algo.constrained and self.constraint is not None:
            raise ConfigError(f"{self.algorithm} is unconstrained; remove the constraint set")
        loss = LOSSES.build(self.loss, self.geometry)
        algo.check_p(self.algorithm, loss.norm_p, f"loss {self.loss['name']!r}")
        dist = DISTRIBUTIONS.build(self.distribution, self.geometry)
        C = None if self.constraint is None else CONSTRAINTS.build(self.constraint, self.geometry)
        theta_star = dist.minimizer(loss, C)
        dist.certify(loss, C)
        self.components = (loss, dist, C)

        if not self.n_grid or not self.eps_grid:
            raise ConfigError("n_grid and eps_grid must be nonempty")
        if not all(isinstance(n, Real) and not isinstance(n, bool) and n >= 1 and float(n).is_integer()
                   for n in self.n_grid):
            raise ConfigError("n_grid must contain positive integers")
        _check_keys(self.evaluation, _EVAL_KEYS, "evaluation")
        try:
            check_options(trials=self.trials, parallelism=self.parallelism, base_seed=self.base_seed,
                          delta=self.delta, **self.evaluation)
            closed_form_risk(theta_star, dist, loss, self.evaluation.get("policy"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        budgets = []
        for i, eps in enumerate(self.eps_grid):
            try:
                budgets.append(PrivacyBudget(eps, self.delta))
            except ValueError as exc:  # delta passed above, so this names the epsilon
                raise ConfigError(f"eps_grid[{i}]: {exc}") from exc
        self.budgets = tuple(budgets)
        _check_schedules(self, algo.schedule)

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
                doc = json.load(fh, object_pairs_hook=_unique_keys)
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
