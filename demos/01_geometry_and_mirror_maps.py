"""Tour of the lp geometry layer: norms, mirror potentials, Bregman divergences.

The mirror potential Phi(w) = (c/2) ||w||_p^2, 1 < p <= 2, is the engine
behind every lp solver in this package.  This script shows the derived
constants for a few spaces, checks the gradient/inverse-gradient pair
numerically, and illustrates the strong-convexity inequality that the
solvers rely on.
"""

import numpy as np

from dpsco import SpaceSpec, bregman, grad_phi, inv_grad_phi, lp_norm

rng = np.random.default_rng(0)

print("derived constants")
print("p      d    q      kappa   r_noise  weight")
for p in (1.1, 1.5, 1.9):
    for d in (5, 50):
        s = SpaceSpec(p, d)
        print(
            f"{s.p:<5} {s.d:<4} {s.q:<6.3f} {s.kappa:<7.3f} {s.r_noise:<8.3f} "
            f"{s.potential_weight:.3f}"
        )

# The gradient of Phi and the gradient of its conjugate invert each other.
spec = SpaceSpec(1.5, 20)
w = rng.standard_normal(20)
roundtrip = inv_grad_phi(grad_phi(w, spec), spec)
print(f"\nmirror roundtrip error: {np.linalg.norm(roundtrip - w):.2e}")

# Phi is exactly 1-strongly convex with respect to the lp norm, so the
# Bregman divergence dominates half the squared lp distance.
margins = []
for _ in range(2000):
    x, y = rng.standard_normal(20), rng.standard_normal(20)
    margins.append(bregman(y, x, spec) - 0.5 * lp_norm(y - x, spec.p) ** 2)
print(f"strong-convexity margin over 2000 random pairs: min {min(margins):.4f}")

# In one dimension the potential collapses to a scaled parabola.
one_d = SpaceSpec(1.5, 1)
print(f"\n1-D check: grad Phi(2) = {grad_phi(np.array([2.0]), one_d)[0]:.3f}"
      f" (= 2 * kappa = {2 * one_d.kappa:.3f})")
