"""The component tables: every misconfiguration is refused when the config is parsed."""

import ast
import copy
import dataclasses
import inspect
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsco.bench import runner
from dpsco.bench.components import ALGORITHMS, CONSTRAINTS, DISTRIBUTIONS, LOSSES, Algorithm
from dpsco.bench.config import ExperimentConfig
from dpsco.errors import ConfigError
from dpsco.mechanisms import PrivacyBudget
from dpsco.options import _RANGES, _SCHEDULED
from dpsco.problems.risk import excess_population_risk
from test_acceptance import CONVEX_TREND_DOC, LP_TREND_DOC, STRONGLY_CONVEX_DOC

ROOT = Path(__file__).resolve().parents[1]


def _base_doc(**over):
    doc = {
        "algorithm": "app_objp_sc",
        "loss": {"name": "mean_point", "domain_radius": 1.5, "constraint_radius": 1.0},
        "distribution": {"name": "ball_cloud", "mu_scale": 0.4, "spread": 1.0},
        "geometry": {"p": 2.0, "d": 4},
        "constraint": {"set": "l2", "radius": 1.0},
        "n_grid": [64],
        "eps_grid": [1.0],
        "delta": 1e-5,
        "trials": 1,
        "base_seed": 7,
        "evaluation": {"policy": "mc", "m_eval": 1000},
    }
    doc.update(over)
    return doc


def _md_doc(**over):
    md = {
        "algorithm": "batched_truncated_md",
        "loss": {"name": "pseudo_huber", "huber_delta": 20.0, "feature_dual_bound": 1.0},
        "distribution": {"name": "heavy_tail_linear", "w_star_norm": 0.3, "sphere_exponent": 3.0},
        "geometry": {"p": 1.5, "d": 4},
        "constraint": {"set": "lp", "radius": 1.0},
        "solver": {"T": 4},
    }
    return _base_doc(**{**md, **over})


def _tight_md_doc(**over):
    """The benchmark's constrained grid (lp ball of radius 0.3 at p = 1.8) with a T
    larger than its only n."""
    tight = {
        "distribution": {"name": "heavy_tail_linear", "w_star_norm": 0.2, "sphere_exponent": 2.25},
        "geometry": {"p": 1.8, "d": 6},
        "constraint": {"set": "lp", "radius": 0.3},
        "n_grid": [16],
        "solver": {"T": 20, "lambda_trunc": 1.0},
    }
    return _md_doc(**{**tight, **over})


def _logistic_doc(**over):
    logistic = {
        "algorithm": "app_objp",
        "loss": {"name": "logistic", "feature_dual_bound": 1.0},
        "distribution": {"name": "logistic_sphere", "w_star_norm": 0.8},
    }
    return _base_doc(**{**logistic, **over})


# Each misconfiguration that used to run silently or fail only inside the
# first cell, with a word the refusal must name.
MISCONFIGS = {
    "loss key typo": (
        _base_doc(loss={"name": "mean_point", "domain_radus": 1.5}),
        "domain_radus",
    ),
    "logistic-only key on mean_point": (
        _base_doc(loss={"name": "mean_point", "feature_dual_bound": 2.0}),
        "feature_dual_bound",
    ),
    "mirror-descent solver keys on app_objp_sc": (
        _base_doc(solver={"T": 10, "c_t": 2.0}),
        "c_t",
    ),
    "p on an l2 constraint": (
        _base_doc(constraint={"set": "l2", "radius": 1.0, "p": 1.5}),
        "'p'",
    ),
    "missing geometry.p": (_base_doc(geometry={"d": 4}), "'p'"),
    "noisy_reg_md at p = 2": (
        _md_doc(algorithm="noisy_reg_md", geometry={"p": 2.0, "d": 4}, constraint=None, solver={}),
        "p=2.0",
    ),
    # mean_point's constants are l2 ones: a mirror solver would run them in an lp geometry.
    **{
        f"mean_point under {name}": (
            _base_doc(algorithm=name, geometry={"p": 1.5, "d": 6}, constraint=constraint),
            "loss 'mean_point' has p=2.0",
        )
        for name, constraint in (
            ("noisy_reg_md", None), ("batched_truncated_md", {"set": "l2", "radius": 1.0})
        )
    },
    "constrained algorithm without a constraint": (_md_doc(constraint=None), "constraint"),
    "oracle risk on heavy_tail_linear": (_md_doc(evaluation={"policy": "oracle"}), "oracle"),
    "heavy-tail noise without a variance": (
        _md_doc(distribution={"name": "heavy_tail_linear", "t_dof": 2.0}),
        "dof > 2",
    ),
    "minimizer outside the lp ball": (
        _md_doc(
            distribution={"name": "heavy_tail_linear", "w_star_norm": 3.0},
            constraint={"set": "lp", "radius": 0.3},
        ),
        "outside the constraint set",
    ),
    "more batches than the smallest n (batched)": (_tight_md_doc(), "T=20"),
    "more batches than the smallest n (shuffled)": (
        _tight_md_doc(
            algorithm="shuffled_truncated_md",
            solver={"T": 20, "lambda_trunc": 1.0},
        ),
        "T=20",
    ),
    "noisy_reg_md automatic alpha_reg with T = n": (
        _md_doc(algorithm="noisy_reg_md", constraint=None, n_grid=[16], solver={"T": 16}),
        "alpha_reg",
    ),
    # Both parsed and then aborted in the first cell: noisy_reg_md's automatic T is at
    # least 1 = n, and shuffling amplification needs n >= 2.  The batched solver runs at n = 1.
    "noisy_reg_md at n = 1": (
        {**LP_TREND_DOC, "n_grid": [1, 256]},
        "alpha_reg needs T < n; got T=1, n=1",
    ),
    "shuffled_truncated_md at n = 1": (
        _tight_md_doc(algorithm="shuffled_truncated_md", eps_grid=[0.05], n_grid=[1, 16], solver={}),
        "shuffle_calibrate: n must be >= 2",
    ),
    "fractional solver T": (_md_doc(solver={"T": 4.5}), "T must be a positive integer"),
    "boolean solver T": (_md_doc(solver={"T": True}), "T must be a positive integer"),
    "zero solver T": (_md_doc(solver={"T": 0}), "T must be a positive integer"),
    "mean_point on logistic_sphere": (
        _base_doc(distribution={"name": "logistic_sphere"}),
        "does not fit",
    ),
    "logistic on ball_cloud": (
        _base_doc(algorithm="app_objp", loss={"name": "logistic"}),
        "does not fit",
    ),
    "c_lambda on batched_truncated_md": (_md_doc(solver={"T": 4, "c_lambda": 2.0}), "c_lambda"),
    "c_shuffle on shuffled_truncated_md": (
        _md_doc(algorithm="shuffled_truncated_md", solver={"T": 4, "c_shuffle": 0.5}),
        "c_shuffle",
    ),
    "c_eps on shuffled_truncated_md": (
        _md_doc(algorithm="shuffled_truncated_md", solver={"T": 4, "c_eps": 10.0}),
        "c_eps",
    ),
    "negative lambda_reg": (_base_doc(solver={"lambda_reg": -0.5}), "lambda_reg must be a finite number >= 0"),
    "alpha_opt above 1": (_base_doc(solver={"alpha_opt": 2.0}), "alpha_opt must be in (0, 1]"),
    # Options no solver takes: each is an unknown key, refused by name.
    "negative alpha_reg on noisy_reg_md": (
        _md_doc(algorithm="noisy_reg_md", constraint=None, solver={"alpha_reg": -1}),
        "unknown key(s) for algorithm 'noisy_reg_md': ['alpha_reg']",
    ),
    "negative gamma on batched_truncated_md": (
        _md_doc(solver={"T": 4, "gamma": -1}),
        "unknown key(s) for algorithm 'batched_truncated_md': ['gamma']",
    ),
    "negative eta on phased_dp_sgd": (
        _base_doc(algorithm="phased_dp_sgd", constraint=None, solver={"eta": -1}),
        "unknown key(s) for algorithm 'phased_dp_sgd': ['eta']",
    ),
    "c_noise, renamed noise_multiplier": (_md_doc(solver={"T": 4, "c_noise": 0.0}), "c_noise"),
    "negative lambda_trunc": (
        _md_doc(solver={"T": 4, "lambda_trunc": -5.0}), "lambda_trunc must be a finite number > 0"
    ),
    "zero c_t": (_md_doc(solver={"c_t": 0}), "unknown key(s) for algorithm 'batched_truncated_md': ['c_t']"),
    "negative noise_multiplier": (
        _md_doc(solver={"T": 4, "noise_multiplier": -1}),
        "unknown key(s) for algorithm 'batched_truncated_md': ['noise_multiplier']",
    ),
    "zero noise_multiplier on app_objp": (
        _base_doc(algorithm="app_objp", solver={"noise_multiplier": 0}),
        "unknown key(s) for algorithm 'app_objp': ['noise_multiplier']",
    ),
    "bypass_regime_check on shuffled_truncated_md": (
        _md_doc(algorithm="shuffled_truncated_md", solver={"T": 4, "bypass_regime_check": True}),
        "unknown key(s) for algorithm 'shuffled_truncated_md': ['bypass_regime_check']",
    ),
    "zero epsilon": (_base_doc(eps_grid=[0.0]), "eps_grid[0]: epsilon must be a finite number > 0"),
    "negative epsilon": (_base_doc(eps_grid=[1.0, -1.0]), "eps_grid[1]: epsilon must be a finite number > 0"),
    # Infinite values parsed, then crashed the first cell (OverflowError, or a
    # non-finite norm or NaN inside the solver).
    "infinite epsilon": (_base_doc(eps_grid=[1.0, math.inf]), "eps_grid[1]: epsilon must be a finite number > 0"),
    "infinite lambda_reg": (_base_doc(solver={"lambda_reg": math.inf}), "lambda_reg must be a finite number >= 0"),
    "infinite lambda_trunc": (
        _md_doc(solver={"T": 4, "lambda_trunc": math.inf}), "lambda_trunc must be a finite number > 0"
    ),
    "infinite c_t": (
        _md_doc(algorithm="noisy_reg_md", constraint=None, solver={"c_t": math.inf}),
        "c_t must be a finite number > 0",
    ),
    "delta given as a string": (_base_doc(delta="1e-5"), "delta must be in (0, 1)"),
    **{
        f"m_eval {m!r}": (_base_doc(evaluation={"policy": "mc", "m_eval": m}), "m_eval must be an integer >= 2")
        for m in (0, 1, 2.7)
    },
    "unknown evaluation policy": (_base_doc(evaluation={"policy": "exact"}), "policy must be one of"),
    "fractional trials": (_base_doc(trials=2.5), "trials must be a positive integer"),
    "boolean trials": (_base_doc(trials=True), "trials must be a positive integer"),
    "fractional parallelism": (_base_doc(parallelism=1.5), "parallelism must be a positive integer"),
    "fractional base_seed": (_base_doc(base_seed=1.5), "base_seed must be an integer"),
    # Component values: each is a finite real number that is not a bool, in
    # range; a string, null, NaN or bool used to parse or end in a TypeError.
    **{
        f"constraint radius {r!r}": (_base_doc(constraint={"set": "l2", "radius": r}), "radius must be")
        for r in ("1.0", None, math.nan)
    },
    "w_star_norm given as a string": (
        _logistic_doc(distribution={"name": "logistic_sphere", "w_star_norm": "0.8"}),
        "w_star_norm must be a finite number > 0",
    ),
    **{
        f"feature_dual_bound {b!r}": (
            _logistic_doc(loss={"name": "logistic", "feature_dual_bound": b}),
            "feature_dual_bound must be a finite number > 0",
        )
        for b in (-1, math.nan, True)
    },
    "sphere_exponent given as a string": (
        _logistic_doc(distribution={"name": "logistic_sphere", "sphere_exponent": "2"}),
        "sphere_exponent must be a finite number >= 1",
    ),
    # Declared constants the data does not certify: each parsed and claimed its epsilon.
    "convex_trend with half its feature_dual_bound": (
        {**CONVEX_TREND_DOC, "loss": {**CONVEX_TREND_DOC["loss"],
                                      "feature_dual_bound": CONVEX_TREND_DOC["loss"]["feature_dual_bound"] / 2}},
        "feature_dual_bound",
    ),
    "default mean_point on default ball_cloud in a unit l2 ball": (
        _base_doc(loss={"name": "mean_point"}, distribution={"name": "ball_cloud"}),
        "declares Lipschitz constant domain_radius + constraint_radius 2, below the 2.5",
    ),
    "pseudo_huber bound 1 on sphere_exponent 3 at p = 2": (
        _base_doc(algorithm="app_objp", loss={"name": "pseudo_huber", "feature_dual_bound": 1.0},
                  distribution={"name": "heavy_tail_linear", "sphere_exponent": 3.0}),
        "declares feature_dual_bound 1, below the 1.25992 that distribution 'heavy_tail_linear'",
    ),
    "mean_point under phased_dp_sgd without a constraint set": (
        _base_doc(algorithm="phased_dp_sgd", constraint=None),
        "needs a constraint set",
    ),
    "missing trials": (
        {k: v for k, v in _base_doc().items() if k != "trials"},
        "missing required config keys: ['trials']",
    ),
}


@pytest.mark.parametrize("case", sorted(MISCONFIGS))
def test_misconfig_refused_at_parse(case):
    doc, word = MISCONFIGS[case]
    with pytest.raises(ConfigError, match=re.escape(word)):
        ExperimentConfig.from_dict(doc)


def test_bases_are_valid():
    ExperimentConfig.from_dict(_base_doc())
    ExperimentConfig.from_dict(_md_doc())
    ExperimentConfig.from_dict(_logistic_doc())


def test_unconstrained_algorithm_refuses_a_constraint():
    doc = _md_doc(algorithm="noisy_reg_md", solver={})
    with pytest.raises(ConfigError, match="unconstrained"):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_runner_binds_every_algorithm_to_its_solver(name):
    # run_cell looks the solver up by the algorithm's name in the runner, the
    # entry is the one read from that solver, and it accepts exactly the
    # keyword-only parameters of the solver's schedule.  A name may bind another
    # entry's solver: lipschitz_high_p is phased_dp_sgd over 2 <= p <= inf.
    entry, solver = ALGORITHMS[name], getattr(runner, name)
    assert Algorithm.of(solver, p_range=entry.p_range, p_open=entry.p_open) == entry
    assert entry.schedule is solver.schedule
    params = inspect.signature(solver.schedule).parameters.values()
    assert set(entry.keys) == {p.name for p in params if p.kind is p.KEYWORD_ONLY}


def test_solver_keys_are_the_schedule_options():
    # No solver option scales or skips a noise draw or lifts a privacy
    # precondition; a new key must be added here on purpose.
    keys = set().union(*(entry.keys for entry in ALGORITHMS.values()))
    assert keys == {"T", "alpha_opt", "lambda_reg", "lambda_trunc", "c_t"}


def test_every_option_range_has_a_taker():
    # A range left behind by a removed option would range-check a key that nothing reads.
    solver_options = {key for entry in ALGORITHMS.values() for key in entry.keys}
    component_keys = {key for table in (LOSSES, DISTRIBUTIONS, CONSTRAINTS)
                      for entry in table.values() for key in entry.keys}
    budget = {field.name for field in dataclasses.fields(PrivacyBudget)}
    grid = {field.name for field in dataclasses.fields(ExperimentConfig)}
    evaluation = set(excess_population_risk.__kwdefaults__)
    assert set(_RANGES) <= solver_options | component_keys | budget | grid | evaluation


def test_every_range_refuses_non_finite_values():
    # An infinite option parsed and then crashed the first cell; no range may reopen that.
    leaky = sorted(key for key, (accepts, _) in _RANGES.items()
                   if any(accepts(v) for v in (math.inf, -math.inf, math.nan)))
    assert leaky == []


def test_scheduled_options_are_the_none_defaults():
    # None selects a schedule exactly where a schedule's signature defaults an option to None.
    defaults = [getattr(runner, name).schedule.__kwdefaults__ or {} for name in ALGORITHMS]
    assert _SCHEDULED == {key for kw in defaults for key, value in kw.items() if value is None}


def test_signature_flags_match_the_solver_families():
    # Read from the signatures: which solvers take a constraint set C.  None takes a
    # geometry: p is the loss's declared norm_p and d is data.d.
    constrained = {name for name, entry in ALGORITHMS.items() if entry.constrained}
    assert constrained == {"app_objp", "app_objp_sc", "shuffled_truncated_md", "batched_truncated_md"}
    for name in ALGORITHMS:
        assert "space" not in inspect.signature(getattr(runner, name)).parameters


def _doc_for_algorithm(name):
    if name == "app_objp_sc":  # the one solver that needs a strongly convex loss
        return _base_doc(solver={})
    entry = ALGORITHMS[name]
    lo, hi = entry.p_range
    p = 0.5 * (lo + hi) if entry.p_open else lo
    # Features on the unit sphere of the dual norm meet the declared bound of 1.
    return _md_doc(
        algorithm=name,
        distribution={"name": "heavy_tail_linear", "w_star_norm": 0.3, "sphere_exponent": p / (p - 1.0)},
        geometry={"p": p, "d": 4},
        constraint={"set": "l2", "radius": 1.0} if entry.constrained else None,
        solver={},
    )


# The losses each distribution's population minimizer is known for.
PAIRS = {("mean_point", "ball_cloud"), ("logistic", "logistic_sphere"), ("pseudo_huber", "heavy_tail_linear")}


def _pair_doc(loss, distribution):
    """``_base_doc`` under ``app_objp``, which runs every loss, with the loss on the
    distribution, at constants the default data certifies."""
    section = _base_doc()["loss"] if loss == "mean_point" else {"name": loss}
    return _base_doc(algorithm="app_objp", loss=section, distribution={"name": distribution})


def _entry_docs():
    """(table, name, doc, section) for every table entry: doc parses, and
    ``doc[section]`` is where that entry's keys go."""
    for name in ALGORITHMS:
        yield ALGORITHMS, name, _doc_for_algorithm(name), "solver"
    # A loss and a distribution are tested in a pairing the parser accepts.
    for loss, name in sorted(PAIRS):
        yield LOSSES, loss, _pair_doc(loss, name), "loss"
        yield DISTRIBUTIONS, name, _pair_doc(loss, name), "distribution"
    for name in CONSTRAINTS:
        yield CONSTRAINTS, name, _base_doc(constraint={"set": name}), "constraint"


ENTRIES = {f"{table.kind}:{name}": (table, doc, section) for table, name, doc, section in _entry_docs()}


def test_every_loss_fits_a_distribution():
    # Every other pairing is refused by its distribution's minimizer.
    parsed = set()
    for loss in LOSSES:
        for name in DISTRIBUTIONS:
            try:
                ExperimentConfig.from_dict(_pair_doc(loss, name))
            except ConfigError as exc:
                assert "does not fit" in str(exc)
            else:
                parsed.add((loss, name))
    assert parsed == PAIRS
    assert {loss for loss, _ in PAIRS} == set(LOSSES)


def test_a_t_every_n_can_serve_parses():
    ExperimentConfig.from_dict(_tight_md_doc(solver={"T": 16, "lambda_trunc": 1.0}))


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@settings(max_examples=25, deadline=None)
@given(key=st.text(min_size=1, max_size=16))
def test_key_outside_an_entry_is_refused_by_name(entry, key):
    table, doc, section = ENTRIES[entry]
    ExperimentConfig.from_dict(doc)
    accepted = set(table[doc["algorithm"] if section == "solver" else doc[section][table.tag]].keys)
    if key in accepted or key == table.tag:
        return
    bad = copy.deepcopy(doc)
    bad[section][key] = 1.0
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(bad)
    assert repr(key) in str(info.value)


def _readme_configs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.S)]


def _literal_assignment(path, name):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no literal {name} in {path}")


SHIPPED = {
    "criterion 07": CONVEX_TREND_DOC,
    "criterion 08": STRONGLY_CONVEX_DOC,
    "criterion 09": LP_TREND_DOC,
    "demo 05": _literal_assignment(ROOT / "demos" / "05_benchmark_grid.py", "doc"),
    **{f"README {i}": doc for i, doc in enumerate(_readme_configs())},
}


def test_readme_has_a_config():
    assert any(name.startswith("README") for name in SHIPPED)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_parses(name):
    ExperimentConfig.from_dict(SHIPPED[name])


def test_lp_constraint_defaults_to_geometry_p():
    C = CONSTRAINTS.build({"set": "lp", "radius": 0.5}, {"p": 1.5, "d": 3})
    assert C.exponent == 1.5 and C.radius == 0.5 and C.d == 3
    assert CONSTRAINTS.build({"set": "lp", "p": 1.2}, {"p": 1.5, "d": 3}).exponent == 1.2


def test_distribution_builders_scale_the_diagonal():
    dist = DISTRIBUTIONS.build({"name": "heavy_tail_linear", "w_star_norm": 0.3}, {"p": 1.5, "d": 4})
    assert math.sqrt(float(dist.w_star @ dist.w_star)) == pytest.approx(0.3)
