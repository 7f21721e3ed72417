"""Repeat benchmark runs over seeds, report spreads, record trajectory points.

    python3 perfbench/trajectory.py --seeds 10 --trace 0
    python3 perfbench/trajectory.py --seeds 10 --trace 0 1 --append LABEL

Runs ``run.py`` once per (workload, trace, seed), one process at a time,
for the workloads of BENCHMARK.json unless ``--workloads`` names others,
and prints for every metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median, next to the end-to-end bound from BENCHMARK.json.
Count metrics are checked to repeat exactly for equal seeds only, so they
are reported, not compared, across seeds.

``--append LABEL`` adds the medians and quartiles, with the run metadata,
as one point to ``perfbench/trajectory.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "trajectory.json"


def benchmark_spec():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = out.stdout.strip().splitlines()
    meta = next((json.loads(ln[len("# meta "):]) for ln in lines if ln.startswith("# meta ")), {})
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {out.returncode}")
    return json.loads(lines[-1]), meta, wall


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="+", default=[0], choices=(0, 1))
    parser.add_argument("--append", metavar="LABEL", help="add a point to trajectory.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    point = {
        "label": args.append,
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seeds": seeds,
        "seconds": args.seconds,
        "workloads": {},
    }
    ok = True
    for name in args.workloads:
        entry = point["workloads"].setdefault(name, {"metrics": {}})
        for trace in args.trace:
            results = [run_once(name, s, args.seconds, trace) for s in seeds]
            meta = results[0][1]
            entry.update({k: meta[k] for k in ("algorithm", "n_grid", "eps_grid", "trials", "d", "p")})
            point.update({k: meta[k] for k in ("commit", "cpu_count", "python", "numpy", "scipy")})
            walls = [wall for _, _, wall in results]
            failed = sum(r["failed"] for r, _, _ in results)
            correct = all(r["correct"] for r, _, _ in results)
            ok &= correct
            print(
                f"## {name} trace={trace}: correct={correct} failed={failed} "
                f"run wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s"
            )
            for metric, first in results[0][0]["metrics"].items():
                values = [r["metrics"][metric]["value"] for r, _, _ in results]
                stats = summarize(values)
                stats["unit"] = first["unit"]
                entry["metrics"][metric] = stats
                bound = bounds.get(metric)
                flag = ""
                if bound is not None:
                    flag = f"  bound {bound:g}" + ("  OVER" if stats["spread"] > bound else "")
                print(
                    f"{metric:36s} median {stats['median']:12.6g} {stats['unit']:8s} "
                    f"q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} spread {stats['spread']:.4f}{flag}"
                )
    if args.append:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
