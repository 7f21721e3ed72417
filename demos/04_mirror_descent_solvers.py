"""The three lp mirror-descent solvers side by side.

* noisy regularized mirror descent: unconstrained, Lipschitz gradients;
* shuffled truncated mirror descent: constrained, heavy tails, only valid
  in the high-privacy regime (it refuses otherwise);
* batched truncated mirror descent: same loop, per-batch noise, any budget.
"""

import math

import numpy as np

from dpsco.errors import RefusalError
from dpsco.mechanisms import PrivacyBudget
from dpsco.mirror import batched_truncated_md, noisy_reg_md, shuffled_truncated_md
from dpsco.problems import HeavyTailLinear, LpBall, PseudoHuberLoss, excess_population_risk
from dpsco.spaces import SpaceSpec

p, d, n = 1.5, 12, 4096
# The solvers take p from the loss's norm_p and d from the data; this SpaceSpec
# of the same (p, d) shows the kappa and noise norm they derive.
space = SpaceSpec(p, d)
# ||w_star||_p = 0.5 puts the minimizer inside the constraint ball C below,
# so the constrained excess risk is scored against the constrained optimum.
dist = HeavyTailLinear(
    0.5 * np.ones(d) / d ** (1.0 / p), sphere_exponent=space.q, t_dof=3.0, t_scale=2.0
)
loss = PseudoHuberLoss(huber_delta=10.0, feature_dual_bound=1.0, norm_p=p)
C = LpBall(p, 1.0, d)
data = dist.sample(n, np.random.default_rng(3))

print(f"space: p={p}, d={d}  ->  kappa={space.kappa:.3f}, noise norm r={space.r_noise:.3f}")

# Unconstrained Lipschitz solver.
w, info = noisy_reg_md(data, loss, PrivacyBudget(1.0, 1e-5), np.random.default_rng(4),
                       c_t=5.0)
exc, _ = excess_population_risk(w, dist, loss, None, m_eval=50_000,
                                rng=np.random.default_rng(5))
print(f"\nnoisy regularized MD: T={info['T']}, alpha={info['alpha_reg']:.4f}, "
      f"excess risk {exc:.4f}")

# The shuffled solver refuses budgets outside its amplification regime.
try:
    shuffled_truncated_md(data, loss, C, PrivacyBudget(0.5, 1e-5),
                          np.random.default_rng(6), T=8)
except RefusalError as exc_info:
    print(f"\nshuffled MD refusal at eps=0.5: {exc_info}")

eps_hp = 0.5 * math.sqrt(math.log(n / 1e-5) / n)  # comfortably inside the regime
w, info = shuffled_truncated_md(data, loss, C, PrivacyBudget(eps_hp, 1e-5),
                                np.random.default_rng(7))
stats = info["truncation"]
print(f"shuffled MD at eps={eps_hp:.4f}: T={info['T']}, lambda={info['lambda_trunc']:.2f}, "
      f"truncated {stats.zeroed}/{stats.total} gradients "
      f"(max pre-truncation norm {stats.max_pre_norm:.2f})")

# The batched variant runs at moderate budgets; watch truncation react to
# the offset lambda.
print("\nbatched MD, truncation fraction vs lambda (fixed data):")
for lam in (1.0, 2.0, 4.0, 8.0):
    w, info = batched_truncated_md(data, loss, C, PrivacyBudget(0.5, 1e-5),
                                   np.random.default_rng(8), T=8, lambda_trunc=lam)
    exc, _ = excess_population_risk(w, dist, loss, C, m_eval=50_000,
                                    rng=np.random.default_rng(9))
    print(f"  lambda={lam:<4} zeroed fraction={info['truncation'].zeroed_fraction:.3f} "
          f"excess={exc:.4f}")
