"""Empirical and population risk evaluation, Gaussian width estimation.

The distribution supplies both the reference point, ``dist.minimizer(loss,
C)``, and the population risk: ``population_risk(w, loss)`` is a closed form
at every w, or None at every w, in which case it is estimated by
fresh-sample Monte Carlo.  Excess risk is always estimated with common
random numbers (the same evaluation sample scores both the candidate and
the reference minimizer), which removes the shared bias and shrinks the
variance of the difference.

A Monte Carlo evaluation holds the sample and two ``m_eval``-vectors, its
labels and the per-row loss differences: 8 m (d + 2) bytes for m rows of d
features, plus one of the ``mechanisms.row_blocks`` the losses are scored
in.  The standard error is computed in place in the differences.

The module needs numpy only; ``max_abs_gaussian_mean`` integrates with a
Gauss-Legendre rule.
"""

import math

import numpy as np

from ..mechanisms import row_blocks
from ..options import check_options

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


def closed_form_risk(w, dist, loss, policy="auto"):
    """``dist.population_risk(w, loss)``: a float at every w, or None at every w.

    Under policy "oracle" None raises ValueError; the config parser asks once,
    at the minimizer, so it refuses the configs that scoring would refuse.
    """
    risk = dist.population_risk(w, loss)
    if risk is None and policy == "oracle":
        raise ValueError(f"evaluation.policy 'oracle' but {dist.name!r} has no closed-form excess risk; "
                         "use 'auto' or 'mc'")
    return risk


def excess_population_risk(w, dist, loss, C=None, rng=None, *, m_eval=100_000, policy="auto"):
    """Excess population risk against ``dist.minimizer(loss, C)``, which raises
    ConfigError for a loss ``dist`` does not serve: (value, se).

    ``policy`` "auto" takes the distribution's closed form (se = 0) when it
    has one for ``loss``, else Monte Carlo over ``m_eval`` (an integer >= 2)
    fresh samples; "oracle" takes the closed form and raises ValueError when
    there is none; "mc" always takes Monte Carlo.  The two keyword arguments
    are a config's ``evaluation`` section, and their defaults here are the
    defaults of that section.

    Monte Carlo holds the sample, its labels and one ``(m_eval,)`` vector of
    loss differences, 8 m_eval (d + 2) bytes, plus one of the ``row_blocks``
    it scores the sample in.  At any BLAS thread count, the value and the
    standard error have the bits of the whole-sample formulas ``diff.mean()``
    and ``diff.std(ddof=1) / sqrt(m_eval)`` on one thread.
    """
    check_options(m_eval=m_eval, policy=policy)
    w = np.asarray(w, dtype=float)
    theta_star = dist.minimizer(loss, C)
    # Asked under every policy, so a profiler wrapping population_risk sees each evaluation.
    risk = closed_form_risk(w, dist, loss, policy)
    if risk is not None and policy != "mc":
        return float(risk - dist.population_risk(theta_star, loss)), 0.0
    if rng is None:
        raise ValueError("excess_population_risk: Monte Carlo evaluation needs an rng")
    sample = dist.sample(m_eval, rng)
    X, y = sample.X, sample.y
    diff = np.empty(m_eval)
    for rows in row_blocks(m_eval, sample.d):
        yb = None if y is None else y[rows]
        np.subtract(loss.values(w, X[rows], yb), loss.values(theta_star, X[rows], yb), out=diff[rows])
    mean = diff.mean()
    # diff.std(ddof=1) as numpy computes it, in place: subtract the mean,
    # square, sum, divide by m - 1, square root.
    diff -= mean
    np.square(diff, out=diff)
    return float(mean), math.sqrt(diff.sum() / (m_eval - 1)) / math.sqrt(m_eval)


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
    P(M <= t) = erf(t / sqrt 2)^d, as -expm1(d log1p(-erfc(t / sqrt 2))) over
    [0, 40] (the tail beyond is below d e^-800) with 400 Gauss-Legendre nodes:
    within about 1e-12 relative of adaptive quadrature for d from 1 to 1e5.
    """
    nodes, weights = np.polynomial.legendre.leggauss(400)
    t = 20.0 * (nodes + 1.0)
    erfc = np.array([math.erfc(x / math.sqrt(2.0)) for x in t])
    return float(20.0 * (weights @ -np.expm1(d * np.log1p(-erfc))))
