"""Benchmark of dpsco's excess-risk grids, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, both modes

One run sets up, re-runs the workload's grid at its reference seed and
checks it against the committed reference (this also warms caches), then
repeats the grid built from ``--seed`` until ``--seconds`` have passed,
at least once.  Cells run serially in this process.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced grids and reports the per-layer metrics and the
tracing overhead.  Every metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when the correctness checks pass, 1 when they fail and 2 when the dpsco
sources are missing (nothing is printed on standard output then).
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import program
from workloads import E2E_METRICS, UNITS, WORKLOADS

SETUP_REPEATS = 5

# Runs in a fresh interpreter: the time to import dpsco and the runner and
# to parse the config, which a user pays before the first cell.
_SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dpsco
from dpsco.bench import ExperimentConfig, run_cell
ExperimentConfig.from_dict(json.loads(sys.argv[2]))
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def correct(self):
        return not self.problems

    def summary(self):
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in self.metrics.items()},
        }


def measure_setup(doc, repeats=SETUP_REPEATS):
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(program.SRC), json.dumps(doc)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def git_commit():
    if not (program.ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(program.ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def metadata(workload, seed, seconds, trace):
    import numpy
    import scipy

    doc = workload.config_doc(seed)
    return {
        "workload": workload.name,
        "seed": seed,
        "algorithm": doc["algorithm"],
        "n_grid": doc["n_grid"],
        "eps_grid": doc["eps_grid"],
        "trials": doc["trials"],
        "d": doc["geometry"]["d"],
        "p": doc["geometry"]["p"],
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(),
    }


def _timed(seconds, step):
    """Call ``step`` until ``seconds`` have passed, at least once."""
    t0 = time.perf_counter()
    while True:
        gc.collect()
        step()
        if time.perf_counter() - t0 >= seconds:
            return


def measure(workload, seed, seconds, trace, reference=None):
    """One benchmark run of ``workload``; returns a Result."""
    import gate
    from grid import run_grid

    reference = gate.load_reference(workload.name) if reference is None else reference
    doc = workload.config_doc(seed)
    problems = []
    metrics = {}
    if not trace:
        metrics["setup_s"] = measure_setup(doc)

    gate_run = run_grid(workload.config_doc(workload.reference_seed))
    problems += [f"reference seed: {p}" for p in gate.compare(gate_run.outcomes, reference)]

    untraced, traced = [], []
    if trace:
        from tracing import Tracer, fired, installed, layer_metrics, EXACT_METRICS

        def step():
            untraced.append(run_grid(doc))
            tracer = Tracer()
            with installed(tracer):
                traced.append((run_grid(doc, tracer), tracer.spans))

    else:

        def step():
            untraced.append(run_grid(doc))

    _timed(seconds, step)
    runs = untraced + [run for run, _ in traced]

    first = runs[0].outcomes
    if any(run.outcomes != first for run in runs[1:]):
        problems.append("outcomes differ between repetitions of the same grid (traced or untraced)")
    invariant_problems, bad = gate.invariant_violations(first, reference)
    problems += invariant_problems
    attempted = sum(len(run.outcomes) for run in runs)
    failed = sum(1 for run in runs for o in run.outcomes if o.status == "error" or o.key in bad)

    if trace:
        metrics, per_grid = layer_metrics(
            [spans for _, spans in traced],
            [run.grid_s for run, _ in traced],
            [run.grid_s for run in untraced],
        )
        missing = sorted(set(workload.exercises) - fired(traced[0][1]))
        if missing:
            problems.append(f"trace spans that never fired: {missing}")
        for name in EXACT_METRICS:
            if any(g[name] != per_grid[0][name] for g in per_grid[1:]):
                problems.append(f"{name} differs between traced grids")
    else:
        n_max, n_min = max(doc["n_grid"]), min(doc["n_grid"])

        def cell_times(n):
            return [t for run in runs for o, t in zip(run.outcomes, run.cell_s) if o.n == n]

        metrics["grid_s"] = statistics.median(run.grid_s for run in runs)
        metrics["cell_s_nmax"] = statistics.median(cell_times(n_max))
        metrics["cell_s_nmin"] = statistics.median(cell_times(n_min))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_frac"] = 1.0 - failed / attempted
        metrics = {name: metrics[name] for name in E2E_METRICS}

    meta = metadata(workload, seed, seconds, trace)
    meta["repetitions"] = len(runs)
    return Result(metrics, attempted, failed, problems, meta)


def report(result, out=sys.stdout):
    print("# meta " + json.dumps(result.meta, sort_keys=True), file=out)
    for name, value in result.metrics.items():
        print(f"{name:36s} {value:>16.6g} {UNITS[name]}", file=out)
    for p in result.problems:
        print(f"# FAIL {p}", file=out)
    print(json.dumps(result.summary()), file=out)


def run_all(args):
    """Each workload in its own process, untraced then traced."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            print(f"## {name} trace={trace}", flush=True)
            status = max(status, subprocess.run(cmd, timeout=600).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="base seed (default: the reference seed)")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        program.load()
    except program.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # The benchmark's seed comes from --seed alone.
    os.environ.pop("DPSCO_SEED", None)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    seed = workload.reference_seed if args.seed is None else args.seed
    result = measure(workload, seed, args.seconds, args.trace)
    report(result)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
