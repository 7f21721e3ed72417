"""Differentially private stochastic convex optimization in lp geometries.

Library layout:

* ``spaces``     -- lp norms, mirror potentials, Bregman divergences.
* ``mechanisms`` -- Gaussian / generalized Gaussian noise, accountants.
* ``problems``   -- losses, constraint sets, data distributions, risk.
* ``euclidean``  -- objective perturbation (convex / strongly convex),
                    phased DP-SGD.
* ``mirror``     -- noisy regularized mirror descent and the truncated
                    mirror-descent variants for heavy-tailed gradients.
* ``bench``      -- experiment grids, CSV records, slope fits, CLI.
"""

from .errors import ConfigError, NumericError, RefusalError
from .mechanisms import (
    GGNoiseSpec,
    PrivacyBudget,
    advanced_composition,
    gaussian_noise_sigma2,
    gg_calibrate,
    gg_sample,
    shuffle_calibrate,
)
from .spaces import SpaceSpec, bregman, grad_phi, inv_grad_phi, lp_norm, phi

__all__ = [
    "ConfigError",
    "NumericError",
    "RefusalError",
    "PrivacyBudget",
    "GGNoiseSpec",
    "gaussian_noise_sigma2",
    "gg_calibrate",
    "gg_sample",
    "advanced_composition",
    "shuffle_calibrate",
    "SpaceSpec",
    "lp_norm",
    "phi",
    "grad_phi",
    "inv_grad_phi",
    "bregman",
]

__version__ = "0.1.0"
