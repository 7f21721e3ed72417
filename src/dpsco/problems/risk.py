"""Empirical and population risk evaluation, Gaussian width estimation.

Population quantities use a closed form whenever the distribution provides
one; otherwise they fall back to fresh-sample Monte Carlo.  Excess risk is
always estimated with common random numbers (the same evaluation sample
scores both the candidate and the reference minimizer), which removes the
shared bias and shrinks the variance of the difference.

Importing the module loads numpy only.  ``max_abs_gaussian_mean``, the one
function here that integrates numerically, imports its integrator at its
first call.
"""

import math

import numpy as np

from ..errors import ConfigError
from ..options import check_options
from .distributions import BallCloud, HeavyTailLinear
from .losses import MeanPointLoss

__all__ = [
    "empirical_risk",
    "empirical_grad",
    "excess_population_risk",
    "gaussian_width_mc",
    "chi_mean",
    "max_abs_gaussian_mean",
]


def empirical_risk(w, data, loss):
    """Mean per-sample loss over the dataset."""
    if data.n < 1:
        raise ValueError("empirical_risk: empty dataset")
    return float(loss.values(np.asarray(w, dtype=float), data.X, data.y).mean())


def empirical_grad(w, data, loss):
    """Mean per-sample gradient over the dataset, from one ``loss.grads`` call."""
    if data.n < 1:
        raise ValueError("empirical_grad: empty dataset")
    return loss.grads(np.asarray(w, dtype=float), data.X, data.y, mean=True)


def _closed_form_risk(w, dist, loss):
    if isinstance(dist, BallCloud) and isinstance(loss, MeanPointLoss):
        return dist.population_risk(w)
    if isinstance(dist, HeavyTailLinear) and hasattr(loss, "huber_delta"):
        return dist.population_risk(w, loss)  # None away from the minimizer
    return None


def population_minimizer(dist, C, loss):
    """The unconstrained population minimizer w_star, checked against C.

    Every shipped distribution knows its w_star.  For the quadratic point
    loss the constrained optimum is the Euclidean projection of w_star onto
    C; for any other loss that projection is not the optimum in general, so
    w_star must already lie in C.  A distribution without a known minimizer,
    or such a w_star outside C, raises ConfigError rather than score against
    a wrong point.
    """
    theta = getattr(dist, "true_minimizer", None)
    if theta is None:
        raise ConfigError(f"{type(dist).__name__} has no known population minimizer")
    if C is not None and not isinstance(loss, MeanPointLoss) and C.gauge(theta) > 1.0 + 1e-9:
        raise ConfigError(
            f"the population minimizer lies outside the constraint set (gauge "
            f"{C.gauge(theta):.4g} > 1), where projecting it does not give the constrained "
            f"optimum of {type(loss).__name__}"
        )
    return theta


def excess_population_risk(w, dist, loss, C=None, rng=None, *, m_eval=100_000, policy="auto"):
    """Excess population risk against the constrained minimizer: (value, se).

    ``policy`` "auto" or "oracle" takes the closed form (se = 0) when both
    the candidate and the minimizer have one, else Monte Carlo; "mc" always
    takes Monte Carlo over ``m_eval`` (an integer >= 2) fresh samples.  The
    two keyword arguments are a config's ``evaluation`` section, and their
    defaults here are the defaults of that section.
    """
    check_options(m_eval=m_eval, policy=policy)
    w = np.asarray(w, dtype=float)
    theta_star = population_minimizer(dist, C, loss)
    if C is not None:
        theta_star = C.project(theta_star)
    # Looked up under every policy: it is cheap for the candidate (a dot
    # product, or None away from the heavy-tail minimizer), and a profiler
    # wrapping a distribution's population_risk then sees each evaluation.
    base = _closed_form_risk(w, dist, loss)
    if base is not None and policy != "mc":
        ref = _closed_form_risk(theta_star, dist, loss)
        if ref is not None:
            return float(base - ref), 0.0
    if rng is None:
        raise ValueError("excess_population_risk: Monte Carlo evaluation needs an rng")
    sample = dist.sample(m_eval, rng)
    diff = loss.values(w, sample.X, sample.y) - loss.values(theta_star, sample.X, sample.y)
    return float(diff.mean()), float(diff.std(ddof=1) / math.sqrt(m_eval))


_WIDTH_BATCH = 20_000  # Gaussian draws held in memory at once


def gaussian_width_mc(C, m, rng):
    """Monte Carlo Gaussian width of C: mean of sup_{w in C} <xi, w>.

    Returns (estimate, standard_error) over m standard Gaussian draws.
    """
    if m < 2:
        raise ValueError("gaussian_width_mc: m must be >= 2")
    d = C.d
    total = 0.0
    total_sq = 0.0
    left = m
    while left > 0:
        k = min(_WIDTH_BATCH, left)
        xi = rng.standard_normal((k, d))
        vals = np.asarray(C.support(xi), dtype=float)
        total += vals.sum()
        total_sq += (vals * vals).sum()
        left -= k
    mean = total / m
    var = max(total_sq / m - mean**2, 0.0) * m / (m - 1)
    return float(mean), float(math.sqrt(var / m))


def chi_mean(d):
    """E ||xi||_2 for a standard Gaussian in R^d: sqrt(2) Gamma((d+1)/2) / Gamma(d/2)."""
    return math.sqrt(2.0) * math.exp(math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0))


def max_abs_gaussian_mean(d):
    """E max_i |xi_i| for d iid standard Gaussians, by quadrature.

    Integrates the tail formula E M = int_0^inf (1 - P(M <= t)) dt with
    P(M <= t) = erf(t / sqrt 2)^d.
    """
    from scipy import integrate

    def tail(t):
        return 1.0 - math.erf(t / math.sqrt(2.0)) ** d

    val, _ = integrate.quad(tail, 0.0, np.inf, limit=200)
    return val
