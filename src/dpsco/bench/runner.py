"""Experiment execution: deterministic seeding, cell dispatch, evaluation.

Every (n, epsilon, trial) cell derives its seed as a pure function of the
base seed and the cell indices, so reruns (serial or pooled) emit identical
records in identical order.  Privacy-precondition refusals are recorded,
not fatal.
"""

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..errors import RefusalError
# run_cell calls the solvers by name through this module.
from ..euclidean import app_objp, app_objp_sc, phased_dp_sgd  # noqa: F401
from ..mechanisms import PrivacyBudget
from ..mirror import batched_truncated_md, lipschitz_high_p, noisy_reg_md, shuffled_truncated_md  # noqa: F401
from ..problems.risk import excess_population_risk
from .components import ALGORITHMS
from .config import ExperimentConfig
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
    eps = float(cfg.eps_grid[eps_idx])
    seed = stable_seed(cfg.base_seed, n_idx, eps_idx, trial)
    budget = PrivacyBudget(eps, cfg.delta)
    loss, dist, C = cfg.components

    data = dist.sample(n, np.random.default_rng(stable_seed(seed, "data")))
    rng = np.random.default_rng(stable_seed(seed, "solver"))

    # The solver is looked up by name in this module when the cell runs, so
    # a wrapper installed on one of the names imported above (a profiler's,
    # say) sees every call.
    solve = globals()[cfg.algorithm]
    record = dict(algorithm=cfg.algorithm, p=float(cfg.geometry["p"]), d=int(cfg.geometry["d"]),
                  n=n, epsilon=eps, delta=cfg.delta, trial=trial, seed=seed)
    t0 = time.perf_counter()
    try:
        w, info = ALGORITHMS[cfg.algorithm].run(
            solve, data, loss, C, cfg.geometry, budget, rng, **cfg.solver
        )
    except RefusalError as exc:
        wall = (time.perf_counter() - t0) * 1e3
        return RunRecord(
            **record, excess_risk=None, trunc_fraction=None, wall_ms=wall,
            refused=True, refusal_reason=str(exc),
        )
    wall = (time.perf_counter() - t0) * 1e3

    m_eval = int(cfg.evaluation.get("m_eval", 100_000))
    eval_rng = np.random.default_rng(stable_seed(seed, "eval"))
    excess, _ = excess_population_risk(
        w, dist, loss, C, m_eval=m_eval, rng=eval_rng, policy=cfg.evaluation["policy"]
    )

    stats = info.get("truncation")
    trunc = None if stats is None else stats.zeroed_fraction
    return RunRecord(**record, excess_risk=excess, trunc_fraction=trunc, wall_ms=wall)


def _cell_worker(args):
    doc, n_idx, eps_idx, trial = args
    return run_cell(ExperimentConfig.from_dict(doc), n_idx, eps_idx, trial)


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
    doc = cfg.to_dict()
    jobs = [(doc, *cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
        return list(pool.map(_cell_worker, jobs, chunksize=max(1, len(jobs) // (8 * cfg.parallelism))))
