"""Objective perturbation on constrained logistic regression.

The solver perturbs the empirical risk with a random linear term, adds a
ridge, minimizes to a certified accuracy, then perturbs and projects the
result.  Here we watch the excess population risk react to the privacy
budget, and check the noiseless limit against the direct solution.
"""

import math

import numpy as np

from dpsco.euclidean import app_objp, app_objp_sc
from dpsco.mechanisms import PrivacyBudget
from dpsco.problems import (
    BallCloud,
    L2Ball,
    LogisticLoss,
    LogisticSphere,
    MeanPointLoss,
    excess_population_risk,
)

d, n = 10, 2048
radius = 2.0 * math.sqrt(d)
dist = LogisticSphere(0.8 * np.ones(d) / math.sqrt(d), radius=radius)
loss = LogisticLoss(feature_dual_bound=radius)
C = L2Ball(1.0, d)
data = dist.sample(n, np.random.default_rng(7))

print("convex case: logistic loss on the unit l2 ball")
print("eps     excess population risk (MC, 5 seeds)")
for eps in (0.25, 0.5, 1.0, 4.0, 1e6):
    vals = []
    for seed in range(5):
        w, _ = app_objp(data, loss, C, PrivacyBudget(eps, 1e-5), np.random.default_rng(seed))
        exc, _ = excess_population_risk(
            w, dist, loss, C, m_eval=50_000, rng=np.random.default_rng(1000 + seed)
        )
        vals.append(exc)
    print(f"{eps:<7g} {np.mean(vals):.4f}")

print("\nstrongly convex case: quadratic point loss (the ridge vanishes for large n)")
mp_dist = BallCloud(0.4 * np.ones(d) / math.sqrt(d), spread=1.0)
mp_loss = MeanPointLoss(domain_radius=mp_dist.feature_radius(), constraint_radius=1.0)
mp_data = mp_dist.sample(n, np.random.default_rng(8))
for eps in (0.5, 1.0, 1e6):
    w, info = app_objp_sc(mp_data, mp_loss, C, PrivacyBudget(eps, 1e-5), np.random.default_rng(0))
    exc, _ = excess_population_risk(w, mp_dist, mp_loss, C)
    print(f"eps={eps:<8g} lambda={info['lam']:.3g}  excess={exc:.5f}")

# Noiseless limit: the output approaches the projected sample mean.
w, _ = app_objp_sc(mp_data, mp_loss, C, PrivacyBudget(1e6, 1e-5), np.random.default_rng(0),
                   alpha_opt=1e-10)
gap = np.linalg.norm(w - C.project(mp_data.X.mean(axis=0)))
print(f"\nnoiseless limit vs projected sample mean: ||.||_2 gap = {gap:.2e}")
