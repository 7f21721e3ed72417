"""The package, its runner, every algorithm's cells and the CLI run on numpy alone.

The child interpreter blocks scipy (``sys.modules["scipy"] = None`` makes any
import of it raise ImportError), so a shipped path that needs scipy fails
here.  A serial grid also never loads the process pool or ``multiprocessing``.
"""

import json
import subprocess
import sys
from pathlib import Path

from test_acceptance import CONVEX_TREND_DOC, LP_TREND_DOC, STRONGLY_CONVEX_DOC
from test_components import _logistic_doc, _md_doc

from dpsco.bench.components import ALGORITHMS

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
policies = {}
for name, doc in json.loads(sys.argv[2]).items():
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
print(json.dumps({"policies": policies, "loaded": loaded}))
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
