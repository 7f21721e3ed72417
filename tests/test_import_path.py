"""The package, its runner and the shipped grid cells need numpy only.

A serial grid also never loads the process pool or ``multiprocessing``.
"""

import json
import subprocess
import sys
from pathlib import Path

from test_acceptance import CONVEX_TREND_DOC
from test_components import _md_doc

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter, where nothing has imported scipy yet.
_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import dpsco, dpsco.bench, dpsco.bench.cli, dpsco.euclidean, dpsco.mirror
from dpsco.bench import ExperimentConfig, run_experiment
for doc in json.loads(sys.argv[2]):
    one_cell = {**doc, "n_grid": doc["n_grid"][:1], "eps_grid": doc["eps_grid"][:1], "trials": 1,
                "parallelism": 1}
    [record] = run_experiment(ExperimentConfig.from_dict(one_cell))
    assert not record.refused and record.excess_risk is not None, record
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "multiprocessing")
                        or m == "concurrent.futures.process")))
"""


def test_import_parse_and_mc_cells_do_not_load_scipy():
    docs = [CONVEX_TREND_DOC, _md_doc()]
    assert [doc["evaluation"]["policy"] for doc in docs] == ["mc", "mc"]
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(SRC), json.dumps(docs)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
