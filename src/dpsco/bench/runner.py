"""Experiment execution: deterministic seeding, cell dispatch, evaluation.

Every (n, epsilon, trial) cell derives its seed as a pure function of the
base seed and the cell indices, so reruns (serial or pooled) emit identical
records in identical order.  A cell runs on the objects the parsed config
built (its components and privacy budgets); each pooled worker gets the
parsed config once, when it starts, and parses nothing, so a value a cell
caches on a built object (the Gaussian width of C, say) is computed once per
worker.  Privacy-precondition refusals are recorded, not fatal.
"""

import hashlib
import time

import numpy as np

from ..errors import RefusalError
# run_cell calls the solvers by config name through this module.
from ..euclidean import app_objp, app_objp_sc, phased_dp_sgd, phased_dp_sgd as lipschitz_high_p  # noqa: F401
from ..mirror import batched_truncated_md, noisy_reg_md, shuffled_truncated_md  # noqa: F401
from ..problems.risk import excess_population_risk
from .components import ALGORITHMS
from .records import RunRecord

__all__ = ["stable_seed", "run_experiment", "run_cell"]


def stable_seed(base, *parts):
    """Pure, platform-independent seed derivation from (base, indices)."""
    h = hashlib.sha256()
    h.update(str(int(base)).encode())
    for p in parts:
        h.update(b"|")
        h.update(str(p).encode())
    return int.from_bytes(h.digest()[:8], "big")


def run_cell(cfg, n_idx, eps_idx, trial):
    """Execute one cell and return its RunRecord."""
    n = int(cfg.n_grid[n_idx])
    seed = stable_seed(cfg.base_seed, n_idx, eps_idx, trial)
    budget = cfg.budgets[eps_idx]
    loss, dist, C = cfg.components

    data = dist.sample(n, np.random.default_rng(stable_seed(seed, "data")))
    rng = np.random.default_rng(stable_seed(seed, "solver"))

    # The solver is looked up by name in this module when the cell runs, so
    # a wrapper installed on one of the names imported above (a profiler's,
    # say) sees every call.
    solve = globals()[cfg.algorithm]
    record = dict(algorithm=cfg.algorithm, p=float(cfg.geometry["p"]), d=int(cfg.geometry["d"]),
                  n=n, epsilon=budget.epsilon, delta=budget.delta, trial=trial, seed=seed)
    t0 = time.perf_counter()
    try:
        w, info = ALGORITHMS[cfg.algorithm].run(solve, data, loss, C, budget, rng, **cfg.solver)
    except RefusalError as exc:
        wall = (time.perf_counter() - t0) * 1e3
        return RunRecord(
            **record, excess_risk=None, trunc_fraction=None, wall_ms=wall,
            refused=True, refusal_reason=str(exc),
        )
    wall = (time.perf_counter() - t0) * 1e3

    eval_rng = np.random.default_rng(stable_seed(seed, "eval"))
    excess, _ = excess_population_risk(w, dist, loss, C, eval_rng, **cfg.evaluation)

    stats = info.get("truncation")
    trunc = None if stats is None else stats.zeroed_fraction
    return RunRecord(**record, excess_risk=excess, trunc_fraction=trunc, wall_ms=wall)


_worker_cfg = None  # the config a pool worker runs its cells on


def _start_worker(cfg):
    global _worker_cfg
    _worker_cfg = cfg


def _run_worker_cell(n_idx, eps_idx, trial):
    return run_cell(_worker_cfg, n_idx, eps_idx, trial)


def run_experiment(cfg):
    """Run every (n, eps, trial) cell; records come back in deterministic order."""
    cells = [
        (n_idx, eps_idx, trial)
        for n_idx in range(len(cfg.n_grid))
        for eps_idx in range(len(cfg.eps_grid))
        for trial in range(cfg.trials)
    ]
    if cfg.parallelism <= 1:
        return [run_cell(cfg, *cell) for cell in cells]
    # Imported here, so that serial runs never load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=cfg.parallelism, initializer=_start_worker, initargs=(cfg,)) as pool:
        return list(pool.map(
            _run_worker_cell, *zip(*cells), chunksize=max(1, len(cells) // (8 * cfg.parallelism)),
        ))
