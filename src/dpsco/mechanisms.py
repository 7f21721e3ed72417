"""Noise mechanisms and privacy accounting.

Neighbouring datasets are replace-one neighbours: the same size n, one row
replaced by any other row of the domain.  Every sensitivity a calibration
takes is the largest change of the released statistic between two such
datasets.

Calibration formulas are exact arithmetic (bit-for-bit reproducible given
identical inputs).  Sampling routines take an explicit ``numpy.random.
Generator``; there is no hidden global state.  The random source is
statistical, not cryptographic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import RefusalError
from .options import check_options

__all__ = [
    "PrivacyBudget",
    "GGNoiseSpec",
    "ShuffleCalibration",
    "gaussian_noise_sigma2",
    "gg_calibrate",
    "gg_sample",
    "sample_lr_sphere",
    "row_blocks",
    "advanced_composition",
    "shuffle_calibrate",
]

# Entries per row block of a pass over a sample: 256 KiB of float64, small
# against a Monte Carlo sample and large enough to amortise the per-call cost
# of numpy.
_BLOCK_ENTRIES = 1 << 15


def row_blocks(m, d):
    """Row slices that walk m rows of d entries, about ``_BLOCK_ENTRIES`` entries each.

    Blocks start at multiples of 8 rows and a 1-row tail joins the block
    before it, which a BLAS matrix-vector kernel would take by another route:
    a product taken block by block has the bits of one single-threaded
    product over all m rows, at any BLAS thread count.
    """
    k = max(8, _BLOCK_ENTRIES // d // 8 * 8)
    ends = [*range(k, m - 1, k), m]
    return [slice(a, b) for a, b in zip([0, *ends], ends)]


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) differential-privacy target, epsilon > 0 and delta in (0, 1), as floats."""

    epsilon: float
    delta: float

    def __post_init__(self):
        check_options(epsilon=self.epsilon, delta=self.delta)
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "delta", float(self.delta))


@dataclass(frozen=True)
class GGNoiseSpec:
    """Parameters of a generalized Gaussian: density prop. to exp(-||z||_r^2 / (2 sigma2))."""

    sigma2: float
    r: float
    d: int

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValueError("GGNoiseSpec: sigma2 must be > 0")
        if not self.r >= 1:
            raise ValueError("GGNoiseSpec: r must be >= 1")
        if self.d < 1:
            raise ValueError("GGNoiseSpec: d must be >= 1")


def gaussian_noise_sigma2(l2_sensitivity, budget):
    """Variance of the Gaussian mechanism: 2 * Delta^2 * ln(1.25/delta) / eps^2.

    A zero sensitivity yields 0 (noiseless release is valid).
    """
    if l2_sensitivity < 0:
        raise ValueError("sensitivity must be nonnegative")
    if l2_sensitivity == 0:
        return 0.0
    return (
        2.0
        * l2_sensitivity**2
        * math.log(1.25 / budget.delta)
        / budget.epsilon**2
    )


def gg_calibrate(sensitivity_star, kappa, budget):
    """Variance of the generalized Gaussian mechanism: 2 kappa ln(1/delta) s^2 / eps^2.

    ``sensitivity_star`` is the dual-norm sensitivity of the released query;
    ``kappa`` the regularity constant of the dual space.
    """
    if kappa < 1:
        raise ValueError("gg_calibrate: kappa must be >= 1")
    if sensitivity_star < 0:
        raise ValueError("gg_calibrate: sensitivity must be nonnegative")
    return (
        2.0
        * kappa
        * math.log(1.0 / budget.delta)
        * sensitivity_star**2
        / budget.epsilon**2
    )


def sample_lr_sphere(d, r, rng, size=None):
    """Directions from the cone measure of the unit l_r sphere.

    Coordinates u_i = zeta_i * G_i^(1/r) with G_i ~ Gamma(1/r) and zeta_i
    uniform signs; the normalized u/||u||_r follows the cone measure, which
    is the exact directional law of any density depending on z only through
    ||z||_r.

    For a = 1/r < 1 the gamma rejection sampler accepts poorly, so the
    boost identity Gamma(a) = Gamma(a+1) * U^(1/a) is used; raised to the
    power a it reads Gamma(a)^(1/r) = Gamma(a+1)^a * U with U ~ U(0, 1),
    one power per entry.  The draw order (gammas, then uniforms, then signs)
    is part of the output: every later draw on ``rng`` depends on it.

    The result is built in place in the one (size, d) buffer the gammas are
    drawn into; the uniforms, signs and norms then go over its
    ``row_blocks``, so no other array of the full size is made.  A
    block-by-block draw takes the same values from ``rng`` as one full-size
    draw.
    """
    a = 1.0 / r
    boost = a < 1.0
    u = rng.standard_gamma(a + 1.0 if boost else a, size=(d,) if size is None else (size, d))
    np.power(u, a, out=u)
    rows = u.reshape(-1, d)
    blocks = [rows[b] for b in row_blocks(len(rows), d)]
    if boost:
        for b in blocks:
            b *= rng.random(b.shape)
    for b in blocks:
        signs = rng.integers(0, 2, size=b.shape)
        signs *= 2
        signs -= 1
        b *= signs
        nrm = np.abs(b)
        np.power(nrm, r, out=nrm)
        nrm = nrm.sum(axis=-1, keepdims=True)
        np.power(nrm, a, out=nrm)
        nrm[nrm == 0] = 1.0
        b /= nrm
    return u


def gg_sample(spec, rng, size=None):
    """Exact draw(s) from the generalized Gaussian GG_{||.||_r}(0, sigma2).

    Radius-direction decomposition: the density over R^d depends on z only
    through ||z||_r, so z = R * theta with R = sigma * chi_d (independent of
    theta) and theta from the cone measure of the l_r unit sphere.
    """
    sigma = math.sqrt(spec.sigma2)
    theta = sample_lr_sphere(spec.d, spec.r, rng, size=size)
    radius = sigma * np.sqrt(rng.chisquare(spec.d, size=size))
    if size is not None:
        radius = radius.reshape(size, 1)
    theta *= radius
    return theta


def advanced_composition(target, T):
    """Per-step budget under advanced composition.

    Returns (eps_step, delta_step) = (eps / (2 sqrt(2 T ln(2/delta))), delta/T);
    running T mechanisms at this per-step level yields (eps, T*delta_step +
    delta) overall.  The stated regime is eps < 1.
    """
    if int(T) != T or T < 1:
        raise ValueError(f"advanced_composition: T must be a positive integer, got {T}")
    if not target.epsilon < 1:
        raise ValueError("advanced_composition: stated regime requires epsilon < 1")
    eps_step = target.epsilon / (2.0 * math.sqrt(2.0 * T * math.log(2.0 / target.delta)))
    delta_step = target.delta / T
    return eps_step, delta_step


@dataclass(frozen=True)
class ShuffleCalibration:
    """Result of shuffle-amplified noise calibration."""

    sigma: float
    max_epsilon: float


def shuffle_calibrate(n, budget, sensitivity_star, kappa):
    """Per-sample noise scale under amplification by shuffling.

    sigma = kappa * s * sqrt(ln(1/delta) * ln(n/delta)) / (eps * sqrt(n)).

    The amplification argument (Feldman, McMillan & Talwar 2021) only covers
    the high-privacy regime eps <= sqrt(ln(n/delta) / n), returned as
    ``max_epsilon``; above it the calibration raises RefusalError with that
    ceiling as ``requirement``, so no caller gets a sigma that holds no
    guarantee.
    """
    if n < 2:
        raise ValueError("shuffle_calibrate: n must be >= 2")
    log_nd = math.log(n / budget.delta)
    max_eps = math.sqrt(log_nd / n)
    if budget.epsilon > max_eps:
        raise RefusalError(
            f"epsilon={budget.epsilon:.4g} outside the shuffling amplification regime; "
            f"maximum admissible epsilon at n={n} is {max_eps:.4g}",
            requirement=max_eps,
        )
    sigma = (
        kappa
        * sensitivity_star
        * math.sqrt(math.log(1.0 / budget.delta) * log_nd)
        / (budget.epsilon * math.sqrt(n))
    )
    return ShuffleCalibration(sigma=sigma, max_epsilon=max_eps)
