"""Noise mechanisms: exact generalized Gaussian sampling and calibration.

The generalized Gaussian has Lebesgue density proportional to
exp(-||z||_r^2 / (2 sigma^2)).  It is sampled exactly by a radius-direction
decomposition: the radius ||z||_r is sigma * chi_d and the direction follows
the cone measure of the l_r unit sphere.  This script verifies both facts
empirically and prints the values of the calibration formulas in
``dpsco.mechanisms``.  Of these only the shuffling calibration is called by
a solver (the shuffled mirror-descent solver); the others write their noise
scales inline.
"""


import numpy as np
from scipy import stats

from dpsco import (
    GGNoiseSpec,
    PrivacyBudget,
    advanced_composition,
    gaussian_noise_sigma2,
    gg_calibrate,
    gg_sample,
    lp_norm,
    shuffle_calibrate,
)

rng = np.random.default_rng(1)
d, r, sigma2 = 10, 3.0, 1.0
z = gg_sample(GGNoiseSpec(sigma2=sigma2, r=r, d=d), rng, size=200_000)

radii = lp_norm(z, r)
ks = stats.kstest(radii, stats.chi(d).cdf)
print(f"radius ~ chi_{d}: KS p-value {ks.pvalue:.3f}")
print(f"E||z||_r^2 = {float((radii ** 2).mean()):.3f}  (upper bound d*sigma^2 = {d * sigma2})")
print(f"coordinate symmetry: max |mean| = {float(np.abs(z.mean(axis=0)).max()):.4f}")

# r = 2 degenerates to the ordinary isotropic Gaussian.
z2 = gg_sample(GGNoiseSpec(sigma2=2.0, r=2.0, d=4), rng, size=200_000)
print(f"\nr=2 sanity: covariance diagonal ~ 2.0 -> {np.diag(np.cov(z2.T)).round(3)}")

# Calibration formulas.
budget = PrivacyBudget(0.5, 1e-5)
print(f"\nGaussian mechanism sigma^2 at sensitivity 1: {gaussian_noise_sigma2(1.0, budget):.3f}")
print(f"generalized Gaussian sigma^2 (kappa=2):       {gg_calibrate(1.0, 2.0, budget):.3f}")
eps_step, delta_step = advanced_composition(budget, 8)
print(f"advanced composition, T=8: eps'={eps_step:.6f}, delta'={delta_step:.2e}")

cal = shuffle_calibrate(10_000, PrivacyBudget(0.01, 1e-5), 1.0, 2.0)
print(
    f"shuffling amplification at n=10^4, eps=0.01: sigma={cal.sigma:.3f} "
    f"(regime ceiling eps <= {cal.max_epsilon:.4f}; above it the calibration refuses)"
)
