"""Fast self-test of the benchmark: ``python3 -m pytest perfbench -q``."""

import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import program  # noqa: E402

program.load()

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from grid import run_grid  # noqa: E402
from workloads import E2E_METRICS, LAYER_METRICS, WORKLOADS, Workload  # noqa: E402

_BOUND = 2.0 * math.sqrt(20.0)

# Objective perturbation refuses below n = 80 here, so the grid holds one
# refused and one solved n.
TINY = Workload(
    name="tiny",
    why="self-test",
    doc={
        "algorithm": "app_objp",
        "loss": {"name": "logistic", "feature_dual_bound": _BOUND},
        "distribution": {"name": "logistic_sphere", "w_star_norm": 0.8, "feature_radius": _BOUND},
        "geometry": {"p": 2.0, "d": 4},
        "constraint": {"set": "l2", "radius": 1.0},
        "n_grid": [32, 128],
        "eps_grid": [1.0],
        "delta": 1e-5,
        "trials": 1,
        "base_seed": 3,
        "evaluation": {"policy": "mc", "m_eval": 2000},
    },
    exercises=WORKLOADS["convex_trend"].exercises,
)


def _tiny_reference():
    return run_grid(TINY.config_doc(TINY.reference_seed)).outcomes


def _spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_tiny_grid_prints_every_metric_with_its_unit():
    reference = _tiny_reference()
    spec = _spec()
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        result = run.measure(TINY, seed=11, seconds=0, trace=trace, reference=reference)
        assert result.correct, result.problems
        out = io.StringIO()
        run.report(result, out)
        lines = out.getvalue().splitlines()
        for m in metrics:
            assert any(ln.split()[0] == m["name"] and ln.split()[-1] == m["unit"] for ln in lines[:-1]), m
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert set(last["metrics"]) == {m["name"] for m in metrics}
        assert last["attempted"] >= 1 and last["failed"] == 0


def test_gate_trips_on_tampered_reference():
    reference = _tiny_reference()
    assert [o.status for o in reference] == ["refused", "ok"]
    assert gate.compare(reference, reference) == []

    unrefused = [replace(reference[0], status="ok", excess_risk=0.1), reference[1]]
    assert any("refused cells differ" in p for p in gate.compare(reference, unrefused))

    shifted = [reference[0], replace(reference[1], excess_risk=reference[1].excess_risk + 1e-3)]
    assert any("excess_risk" in p for p in gate.compare(reference, shifted))

    result = run.measure(TINY, seed=11, seconds=0, trace=0, reference=shifted)
    assert not result.correct


def test_committed_references_match_their_grids():
    for w in WORKLOADS.values():
        reference = gate.load_reference(w.name)
        doc = w.config_doc(w.reference_seed)
        assert len(reference) == len(doc["n_grid"]) * len(doc["eps_grid"]) * doc["trials"], w.name
    w = WORKLOADS["strongly_convex"]
    outcomes = run_grid(w.config_doc(w.reference_seed)).outcomes
    assert gate.compare(outcomes, gate.load_reference(w.name)) == []


def test_tracing_restores_bindings_and_names_known_spans():
    before = [vars(owner)[attr] for owner, attr, *_ in tracing.BINDINGS]
    with tracing.installed(tracing.Tracer()):
        assert [vars(owner)[attr] for owner, attr, *_ in tracing.BINDINGS] != before
    assert [vars(owner)[attr] for owner, attr, *_ in tracing.BINDINGS] == before
    spans = {name for _, _, name, *_ in tracing.BINDINGS} | {"bench.cell"}
    for w in WORKLOADS.values():
        assert set(w.exercises) <= spans, w.name


def test_benchmark_json_matches_the_code():
    spec = _spec()
    # BENCHMARK.json lists a subset of the workloads, in their order.
    names = [w["name"] for w in spec["workloads"]]
    assert names == [name for name in WORKLOADS if name in names]
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "strongly_convex", "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
