"""Serial grid execution through the public ``dpsco.bench.run_cell``.

Cells run one after another in one process, in the order
``run_experiment`` uses.  Unlike ``run_experiment``, a cell that raises is
recorded as an ``error`` outcome and the grid goes on.
"""

import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

from dpsco.bench import ExperimentConfig, run_cell, stable_seed
from gate import Outcome


@dataclass
class GridRun:
    outcomes: list
    cell_s: list  # wall seconds per cell, aligned with outcomes
    grid_s: float


def cells(cfg):
    return [
        (n_idx, eps_idx, trial)
        for n_idx in range(len(cfg.n_grid))
        for eps_idx in range(len(cfg.eps_grid))
        for trial in range(cfg.trials)
    ]


def _run_one(cfg, n_idx, eps_idx, trial):
    common = dict(
        n_idx=n_idx,
        eps_idx=eps_idx,
        trial=trial,
        n=int(cfg.n_grid[n_idx]),
        epsilon=float(cfg.eps_grid[eps_idx]),
    )
    try:
        rec = run_cell(cfg, n_idx, eps_idx, trial)
    except Exception as exc:  # one failed cell must not lose the grid
        seed = stable_seed(cfg.base_seed, n_idx, eps_idx, trial)
        return Outcome(seed=seed, status="error", error=f"{type(exc).__name__}: {exc}", **common)
    if rec.refused:
        return Outcome(seed=rec.seed, status="refused", **common)
    return Outcome(
        seed=rec.seed,
        status="ok",
        excess_risk=rec.excess_risk,
        trunc_fraction=rec.trunc_fraction,
        **common,
    )


def run_grid(doc, tracer=None):
    """Run every cell of the config document; returns a GridRun."""
    cfg = ExperimentConfig.from_dict(doc)
    outcomes, cell_s = [], []
    with warnings.catch_warnings():
        # Solvers warn about utility regimes on small n; the grid output
        # does not depend on it and the warnings would flood the report.
        warnings.simplefilter("ignore")
        t_grid = time.perf_counter()
        for cell in cells(cfg):
            t0 = time.perf_counter()
            with nullcontext() if tracer is None else tracer.span("bench.cell"):
                outcomes.append(_run_one(cfg, *cell))
            cell_s.append(time.perf_counter() - t0)
        grid_s = time.perf_counter() - t_grid
    return GridRun(outcomes, cell_s, grid_s)
