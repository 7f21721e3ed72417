"""Correctness gate: committed reference outcomes and seed-free invariants.

``perfbench/reference/<workload>.json`` holds every cell's outcome at the
workload's reference seed, without timing.  Each benchmark run re-runs
that grid and compares:

* the set of refused cells must be identical;
* the cell layout (indices, n, epsilon, derived seed) must be identical;
* where both runs produced a number, excess risk must agree within
  ``EXCESS_ATOL + EXCESS_RTOL * |reference|`` and the truncation fraction
  within ``TRUNC_ATOL``.

These tolerances admit a change of float summation order (a different
gradient or projection formula) and nothing larger: a changed algorithm
must re-record the reference and say why.

Cells that raise are failures, counted by the caller; they are not
compared.  For any other seed the gate checks what does not depend on it:
the refusal rule of every shipped solver reads only (n, epsilon), so the
refused set must equal the reference's, and every number must be finite
and in range.

Run ``python3 perfbench/gate.py [workload ...]`` to re-record references.
"""

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

EXCESS_RTOL = 1e-6
EXCESS_ATOL = 1e-9
TRUNC_ATOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Outcome:
    """What one cell produced, without timing; compared across runs."""

    n_idx: int
    eps_idx: int
    trial: int
    n: int
    epsilon: float
    seed: int
    status: str  # "ok", "refused" or "error"
    excess_risk: float = None
    trunc_fraction: float = None
    error: str = ""

    @property
    def key(self):
        return (self.n_idx, self.eps_idx, self.trial)

    def to_json(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def reference_path(name):
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name):
    with open(reference_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    return [Outcome(**o) for o in doc["outcomes"]]


def _close(a, b, atol, rtol=0.0):
    return abs(a - b) <= atol + rtol * abs(b)


def _refusal_problems(outcomes, reference):
    """Problems with the cell layout or the refused set; None when the layouts differ."""
    if [o.key for o in outcomes] != [r.key for r in reference]:
        return None
    refused = {o.key for o in outcomes if o.status == "refused"}
    ref_refused = {r.key for r in reference if r.status == "refused"}
    if refused == ref_refused:
        return []
    return [
        f"refused cells differ: extra {sorted(refused - ref_refused)}, "
        f"missing {sorted(ref_refused - refused)}"
    ]


def _layout_message(outcomes, reference):
    return f"cell layout differs: {len(outcomes)} cells vs {len(reference)} in the reference"


def compare(outcomes, reference):
    """Problems (strings) found comparing reference-seed outcomes; [] when they agree."""
    problems = _refusal_problems(outcomes, reference)
    if problems is None:
        return [_layout_message(outcomes, reference)]
    for o, r in zip(outcomes, reference):
        if (o.n, o.epsilon, o.seed) != (r.n, r.epsilon, r.seed):
            problems.append(
                f"cell {o.key}: (n, epsilon, seed) {(o.n, o.epsilon, o.seed)} "
                f"!= reference {(r.n, r.epsilon, r.seed)}"
            )
        if o.status != "ok" or r.status != "ok":
            continue
        if not _close(o.excess_risk, r.excess_risk, EXCESS_ATOL, EXCESS_RTOL):
            problems.append(f"cell {o.key}: excess_risk {o.excess_risk!r} != reference {r.excess_risk!r}")
        if (o.trunc_fraction is None) != (r.trunc_fraction is None) or (
            o.trunc_fraction is not None and not _close(o.trunc_fraction, r.trunc_fraction, TRUNC_ATOL)
        ):
            problems.append(
                f"cell {o.key}: trunc_fraction {o.trunc_fraction!r} != reference {r.trunc_fraction!r}"
            )
    return problems


def invariant_violations(outcomes, reference):
    """(problems, keys of offending cells) for outcomes at any seed."""
    problems = _refusal_problems(outcomes, reference)
    if problems is None:
        return [_layout_message(outcomes, reference)], {o.key for o in outcomes}
    bad = set()
    for o, r in zip(outcomes, reference):
        if o.status != "ok":
            continue
        why = []
        if not math.isfinite(o.excess_risk):
            why.append(f"excess_risk {o.excess_risk!r} is not finite")
        if r.status == "ok" and (o.trunc_fraction is None) != (r.trunc_fraction is None):
            why.append("trunc_fraction presence differs from the reference")
        elif o.trunc_fraction is not None and not 0.0 <= o.trunc_fraction <= 1.0:
            why.append(f"trunc_fraction {o.trunc_fraction!r} outside [0, 1]")
        if why:
            bad.add(o.key)
            problems.extend(f"cell {o.key}: {w}" for w in why)
    return problems, bad


def write_reference(workload, outcomes):
    head = json.dumps({"workload": workload.name, "base_seed": workload.reference_seed})
    rows = ",\n  ".join(json.dumps(o.to_json()) for o in outcomes)
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(reference_path(workload.name), "w", encoding="utf-8") as fh:
        fh.write(f'{head[:-1]}, "outcomes": [\n  {rows}\n]}}\n')  # one cell per line


def main(argv):
    import program

    program.load()
    from grid import run_grid
    from workloads import WORKLOADS

    for name in argv or list(WORKLOADS):
        workload = WORKLOADS[name]
        outcomes = run_grid(workload.config_doc(workload.reference_seed)).outcomes
        write_reference(workload, outcomes)
        errors = [o for o in outcomes if o.status == "error"]
        print(f"{reference_path(name)}: written, {len(errors)} of {len(outcomes)} cells raised")
        for o in errors:
            print(f"  cell {o.key}: {o.error}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
