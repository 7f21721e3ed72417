"""The package, its runner, every algorithm's cells and the CLI run on numpy alone.

The child interpreter blocks scipy (``sys.modules["scipy"] = None`` makes any
import of it raise ImportError), so a shipped path that needs scipy fails
here.  Parsing a config loads no module, and a serial grid never loads the
process pool or ``multiprocessing``.  Each algorithm's first cell runs the
schedule the parser evaluated for it.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import CONVEX_TREND_DOC, LP_TREND_DOC, STRONGLY_CONVEX_DOC
from test_components import _logistic_doc, _md_doc

from dpsco import euclidean
from dpsco.bench import runner
from dpsco.bench.components import ALGORITHMS
from dpsco.bench.config import ExperimentConfig

SRC = Path(__file__).resolve().parent.parent / "src"

# One doc per algorithm; each one's first cell runs and is not refused.
DOCS = {
    "app_objp": CONVEX_TREND_DOC,
    "app_objp_sc": STRONGLY_CONVEX_DOC,
    "phased_dp_sgd": _logistic_doc(algorithm="phased_dp_sgd", constraint=None),
    # Features on the unit sphere of the dual l1.5 norm meet the declared bound of 1.
    "lipschitz_high_p": _logistic_doc(algorithm="lipschitz_high_p", geometry={"p": 3.0, "d": 4},
                                      distribution={"name": "logistic_sphere", "sphere_exponent": 1.5},
                                      constraint=None),
    "noisy_reg_md": LP_TREND_DOC,
    "shuffled_truncated_md": _md_doc(algorithm="shuffled_truncated_md", n_grid=[512], eps_grid=[0.1]),
    "batched_truncated_md": _md_doc(),
}

_CHILD = """
import json, sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
from dpsco.bench import ExperimentConfig, run_experiment
from dpsco.bench.cli import main
from dpsco.problems import max_abs_gaussian_mean
docs = json.loads(sys.argv[2])
before = set(sys.modules)
for doc in docs.values():
    ExperimentConfig.from_dict(doc)
parse_loaded = sorted(set(sys.modules) - before)
policies = {}
for name, doc in docs.items():
    one_cell = {**doc, "n_grid": doc["n_grid"][:1], "eps_grid": doc["eps_grid"][:1], "trials": 1,
                "parallelism": 1}
    [record] = run_experiment(ExperimentConfig.from_dict(one_cell))
    assert record.algorithm == name and not record.refused and record.excess_risk is not None, record
    policies[name] = doc["evaluation"]["policy"]
assert abs(max_abs_gaussian_mean(100) - 2.7469576878061) < 1e-9
for argv in (["width", "--set", "l1", "--d", "20", "--samples", "1000"],
             *(["mech-check", "--what", what, "--samples", "1000"] for what in ("gg", "gauss", "compose"))):
    assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"
                or m == "concurrent.futures.process")
print(json.dumps({"policies": policies, "loaded": loaded, "parse_loaded": parse_loaded}))
"""


def test_import_parse_and_mc_cells_do_not_load_scipy():
    # The name predates the oracle cell and the CLI calls; it is kept so the id stays stable.
    assert set(DOCS) == set(ALGORITHMS)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(SRC), json.dumps(DOCS)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result["policies"]) == set(ALGORITHMS)
    assert result["policies"]["app_objp_sc"] == "oracle"  # the ball_cloud closed form
    assert result["loaded"] == []
    assert result["parse_loaded"] == []  # parsing is pure arithmetic on modules already loaded


# The info keys a data pass sets itself: objective perturbation's accuracy,
# release scale and width wait for the Gaussian width of C, and the rest
# describe the run.  Every other info key is a field of the solver's schedule.
_OBJP_KEYS = {"inner_iters", "surrogate_iters", "release_distance", "release_bound", "alpha", "sigma2", "width"}
_MD_KEYS = {"truncation", "max_step_residual"}
_DATA_PASS_KEYS = {"app_objp": _OBJP_KEYS, "app_objp_sc": _OBJP_KEYS,
                   "shuffled_truncated_md": _MD_KEYS, "batched_truncated_md": _MD_KEYS}


@pytest.mark.parametrize("name", sorted(DOCS))
def test_solver_info_is_the_schedule_the_parser_evaluated(name, monkeypatch):
    draws = []

    def counted(*args):
        draws.append(args)
        return width_mc(*args)

    width_mc = euclidean.gaussian_width_mc
    monkeypatch.setattr(euclidean, "gaussian_width_mc", counted)
    cfg = ExperimentConfig.from_dict(DOCS[name])
    assert draws == []  # the parse draws no Gaussian width
    loss, dist, C = cfg.components
    n, budget = int(cfg.n_grid[0]), cfg.budgets[0]
    schedule = vars(ALGORITHMS[name].schedule(n, cfg.geometry["d"], loss, C, budget, **cfg.solver))
    data = dist.sample(n, np.random.default_rng(0))
    _, info = ALGORITHMS[name].run(getattr(runner, name), data, loss, C, budget, np.random.default_rng(1),
                                   **cfg.solver)
    from_schedule = {key: value for key, value in info.items() if key not in _DATA_PASS_KEYS.get(name, ())}
    assert from_schedule and from_schedule == {key: schedule[key] for key in from_schedule}
    assert len(draws) == (name in ("app_objp", "app_objp_sc"))  # the first solve draws it


def test_no_module_imports_a_private_name_of_another():
    # An underscore name is its module's own: another module that needs it asks for a public one.
    private = []
    for path in sorted((SRC / "dpsco").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("dpsco")):
                private += [f"{path.relative_to(SRC)}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []
