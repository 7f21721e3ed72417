"""The benchmark's metric tables and workloads: four reduced excess-risk grids.

Each workload is a strict dpsco experiment config whose ``base_seed`` is
the reference seed: the seed its committed reference records were made
with (the acceptance seed where the grid comes from an acceptance test).
The benchmark's ``--seed`` replaces the base seed, so every cell's data,
noise and evaluation sample follow from it.

``exercises`` names the trace spans that must fire on the workload, so a
rename inside dpsco cannot silently zero a layer.
"""

import math
from dataclasses import dataclass

# End-to-end metrics (--trace 0): name -> (unit, better).
E2E_METRICS = {
    "grid_s": ("s", "lower"),
    "cell_s_nmax": ("s", "lower"),
    "cell_s_nmin": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("fraction", "higher"),
}

# Per-layer metrics (--trace 1): name -> (unit, better).
LAYER_METRICS = {
    "problems.loss_grads.calls": ("count", "lower"),
    "problems.loss_grads.rows": ("count", "lower"),
    "problems.loss_grads.s": ("s", "lower"),
    "problems.project.calls": ("count", "lower"),
    "problems.project.s": ("s", "lower"),
    "problems.sample_data.rows": ("count", "lower"),
    "problems.sample_data.s": ("s", "lower"),
    "problems.sample_eval.rows": ("count", "lower"),
    "problems.sample_eval.s": ("s", "lower"),
    "problems.risk.self_s": ("s", "lower"),
    "problems.risk.quad_s": ("s", "lower"),
    "problems.width.calls": ("count", "lower"),
    "problems.width.s": ("s", "lower"),
    "euclidean.solve.self_s": ("s", "lower"),
    "euclidean.grad_calls_per_cell": ("1/cell", "lower"),
    "mirror.solve.self_s": ("s", "lower"),
    "mirror.step.calls": ("count", "lower"),
    "mirror.step.self_s": ("s", "lower"),
    "mirror.step.closed_form_frac": ("fraction", "higher"),
    "mirror.step.projections_per_step": ("1/step", "lower"),
    "mechanisms.gg_sample.calls": ("count", "lower"),
    "mechanisms.gg_sample.s": ("s", "lower"),
    "spaces.mirror_map.calls": ("count", "lower"),
    "spaces.mirror_map.s": ("s", "lower"),
    "bench.cells": ("count", "higher"),
    "bench.cell.self_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}

UNITS = {name: unit for name, (unit, _) in {**E2E_METRICS, **LAYER_METRICS}.items()}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    doc: dict
    exercises: tuple

    @property
    def reference_seed(self):
        return self.doc["base_seed"]

    def config_doc(self, base_seed):
        return {**self.doc, "base_seed": int(base_seed)}


_FEATURE_BOUND = 2.0 * math.sqrt(20.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="convex_trend",
            why="objective perturbation in l2 with MC risk: the full-batch PGD gradient dominates; "
            "lp projection and mirror maps are bypassed",
            doc={
                "algorithm": "app_objp",
                "loss": {"name": "logistic", "feature_dual_bound": _FEATURE_BOUND},
                "distribution": {
                    "name": "logistic_sphere",
                    "w_star_norm": 0.8,
                    "feature_radius": _FEATURE_BOUND,
                },
                "geometry": {"p": 2.0, "d": 20},
                "constraint": {"set": "l2", "radius": 1.0},
                "n_grid": [128, 512, 2048],
                "eps_grid": [1.0],
                "delta": 1e-5,
                "trials": 2,
                "base_seed": 710,
                "evaluation": {"policy": "mc", "m_eval": 50_000},
            },
            exercises=(
                "bench.cell",
                "euclidean.solve",
                "problems.loss_grads",
                "problems.project",
                "problems.width",
                "problems.sample",
                "problems.risk",
            ),
        ),
        Workload(
            name="strongly_convex",
            why="~20 ms cells with oracle risk: fixed per-cell cost (Gaussian-width MC, runner) "
            "dominates; the control where risk sampling is bypassed",
            doc={
                "algorithm": "app_objp_sc",
                "loss": {"name": "mean_point", "domain_radius": 1.4, "constraint_radius": 1.0},
                "distribution": {"name": "ball_cloud", "mu_scale": 0.4, "spread": 1.0},
                "geometry": {"p": 2.0, "d": 20},
                "constraint": {"set": "l2", "radius": 1.0},
                "n_grid": [128, 256, 512, 1024, 2048, 4096],
                "eps_grid": [1.0],
                "delta": 1e-5,
                "trials": 16,
                "base_seed": 810,
                "evaluation": {"policy": "oracle"},
            },
            exercises=(
                "bench.cell",
                "euclidean.solve",
                "problems.loss_grads",
                "problems.project",
                "problems.width",
                "problems.sample",
                "problems.risk",
            ),
        ),
        Workload(
            name="lp_trend",
            why="unconstrained noisy mirror descent at p=1.5: risk evaluation (quadrature plus 50k MC) "
            "dominates; drives gg_sample and mirror maps, bypasses projection",
            doc={
                "algorithm": "noisy_reg_md",
                "loss": {"name": "pseudo_huber", "huber_delta": 3.0, "feature_dual_bound": 1.0},
                "distribution": {
                    "name": "heavy_tail_linear",
                    "w_star_norm": 1.0,
                    "sphere_exponent": 3.0,
                    "t_dof": 12.0,
                    "t_scale": 0.3,
                },
                "geometry": {"p": 1.5, "d": 20},
                "constraint": None,
                "n_grid": [256, 1024, 4096],
                "eps_grid": [0.5, 1.0],
                "delta": 1e-5,
                "trials": 2,
                "base_seed": 910,
                "evaluation": {"policy": "mc", "m_eval": 50_000},
                "solver": {"c_t": 5.0},
            },
            exercises=(
                "bench.cell",
                "mirror.solve",
                "problems.loss_grads",
                "mechanisms.gg_sample",
                "spaces.mirror_map",
                "problems.sample",
                "problems.risk",
                "problems.risk.quad",
            ),
        ),
        # Radius 0.3 and T = 8 with batches of 2-4 rows make every step
        # leave the ball, so each cell runs 8 Armijo-PGD solves of 3-6
        # bisection projections, nearly the same number at every seed.  At
        # p = 1.5, radius 1 or larger batches only some steps bind and the
        # projection count per cell ranges from 0 to ~700 across seeds.
        # Features lie on the sphere of the dual exponent 2.25, which
        # certifies the declared feature_dual_bound of 1, and w_star lies
        # inside the ball.  The bisection work of one n = 16 cell still
        # varies by about 10 % between seeds, so two trials per n let the
        # cell-time medians of a run cover two inputs.
        Workload(
            name="constrained_md",
            why="truncated batched mirror descent in a binding lp ball: Armijo-PGD steps and "
            "bisection lp projection dominate",
            doc={
                "algorithm": "batched_truncated_md",
                "loss": {"name": "pseudo_huber", "huber_delta": 20.0, "feature_dual_bound": 1.0},
                "distribution": {
                    "name": "heavy_tail_linear",
                    "w_star_norm": 0.2,
                    "sphere_exponent": 2.25,
                    "t_scale": 3.0,
                },
                "geometry": {"p": 1.8, "d": 6},
                "constraint": {"set": "lp", "radius": 0.3},
                "n_grid": [16, 32],
                "eps_grid": [0.5],
                "delta": 1e-5,
                "trials": 2,
                "base_seed": 1010,
                "evaluation": {"policy": "mc", "m_eval": 50_000},
                "solver": {"T": 8, "lambda_trunc": 1.0},
            },
            exercises=(
                "bench.cell",
                "mirror.solve",
                "mirror.step",
                "problems.loss_grads",
                "problems.project",
                "mechanisms.gg_sample",
                "spaces.mirror_map",
                "problems.sample",
                "problems.risk",
                "problems.risk.quad",
            ),
        ),
    )
}
