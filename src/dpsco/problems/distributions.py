"""Synthetic data distributions and the Dataset container.

Each distribution serves one loss, ``loss_type``, and answers for it:
``minimizer(loss, C=None)`` is that loss's population minimizer over C, and
``certify(loss, C=None)`` refuses a declared constant the data does not
certify (a relative 1e-12 short passes, for rounding).  Both raise
ConfigError for any other loss.  ``population_risk(w, loss)`` is the closed
form at every w, or None at every w (only ``BallCloud`` under
``MeanPointLoss`` has one).  The heavy-tailed generator also certifies an
analytic second-moment bound on gradient noise.  Sampling is deterministic
given (distribution parameters, seed).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..mechanisms import row_blocks, sample_lr_sphere
from ..spaces import dual_exponent
from .losses import LogisticLoss, MeanPointLoss, PseudoHuberLoss

__all__ = [
    "Dataset",
    "BallCloud",
    "LogisticSphere",
    "HeavyTailLinear",
]


def _all_finite(a):
    """Whether every entry of the float array ``a`` is finite.

    The minimum and the maximum propagate NaN, so both are finite exactly
    when every entry is; unlike ``np.isfinite`` this makes no array of a's
    size.
    """
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


@dataclass(frozen=True)
class Dataset:
    """n rows of d-dimensional features with optional labels.

    ``X`` is kept as a read-only view: a dataset's rows do not change once it
    is built, so a loss may compute a statistic of them once per dataset.
    """

    X: np.ndarray
    y: Optional[np.ndarray] = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("Dataset: X must be (n, d) with n >= 1")
        if not _all_finite(X):
            raise ValueError("Dataset: non-finite feature entries")
        X = X.view()
        X.flags.writeable = False
        object.__setattr__(self, "X", X)
        if self.y is not None:
            y = np.asarray(self.y, dtype=float)
            if y.shape != (X.shape[0],):
                raise ValueError("Dataset: y must have shape (n,)")
            if not _all_finite(y):
                raise ValueError("Dataset: non-finite labels")
            object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    def subset(self, idx):
        return Dataset(self.X[idx], None if self.y is None else self.y[idx])


def _refuse_unpaired(dist, loss):
    if not isinstance(loss, dist.loss_type):
        raise ConfigError(f"loss {getattr(loss, 'name', type(loss).__name__)!r} does not fit distribution "
                          f"{dist.name!r}, whose population minimizer is known for {dist.loss_type.name!r}")


def _refuse_below(dist, loss, constant, declared, needed, source):
    if declared < needed * (1.0 - 1e-12):
        raise ConfigError(f"loss {loss.name!r} declares {constant} {declared:.6g}, below the {needed:.6g} "
                          f"that distribution {dist.name!r} certifies ({source})")


class _LinearModel:
    """Features on the l_sphere_exponent sphere of radius ``radius``, labels centred on <w_star, z>."""

    radius = 1.0

    def minimizer(self, loss, C=None):
        """w_star, refused outside C (projecting it would not give the constrained
        optimum) and else projected onto C.  The logistic model is well specified;
        the heavy-tailed model has symmetric unimodal noise under an even convex
        penalty, so its risk is minimized where every residual is centred."""
        _refuse_unpaired(self, loss)
        if C is None:
            return self.w_star.copy()
        if C.gauge(self.w_star) > 1.0 + 1e-9:
            raise ConfigError(f"the population minimizer of loss {loss.name!r} on {self.name!r} lies outside "
                              f"the constraint set (gauge {C.gauge(self.w_star):.4g} > 1), where projecting "
                              "it does not give the constrained optimum")
        return C.project(self.w_star)

    def certify(self, loss, C=None):
        """Refuses a ``feature_dual_bound`` below ``feature_radius`` in the norm dual to the loss's."""
        _refuse_unpaired(self, loss)
        q = dual_exponent(loss.norm_p)
        _refuse_below(self, loss, "feature_dual_bound", loss.feature_dual_bound, self.feature_radius(q),
                      f"the largest l{q:g} norm of its features")

    def feature_radius(self, dual_exponent=2.0):
        # Draws have sphere_exponent-norm equal to radius; convert to the
        # requested dual norm by the standard norm-comparison factor.
        a, b = self.sphere_exponent, dual_exponent
        if b <= a:
            return self.radius * self.d ** (1.0 / b - 1.0 / a)
        return self.radius


def _uniform_ball(d, rng, size, exponent=2.0):
    # Uniform in the unit l_exponent ball: cone direction scaled by U^(1/d).
    theta = sample_lr_sphere(d, exponent, rng, size=size)
    u = rng.uniform(size=(size, 1))
    u **= 1.0 / d
    theta *= u
    return theta


class BallCloud:
    """Points mu + spread * U with U uniform in the unit l2 ball.

    Pairs with the quadratic point loss: the population risk has the closed
    form L(w) = 0.5 ||w - mu||_2^2 + 0.5 tr(Cov) with
    tr(Cov) = spread^2 * d / (d + 2).
    """

    name = "ball_cloud"
    loss_type = MeanPointLoss

    def __init__(self, mu, spread=1.0):
        self.mu = np.asarray(mu, dtype=float)
        self.spread = float(spread)
        self.d = self.mu.size

    def sample(self, n, rng):
        X = _uniform_ball(self.d, rng, n)
        X *= self.spread
        X += self.mu
        return Dataset(X)

    def minimizer(self, loss, C=None):
        """mu projected onto C, as the closed form above is 0.5 ||w - mu||_2^2 plus a constant."""
        _refuse_unpaired(self, loss)
        return self.mu.copy() if C is None else C.project(self.mu)

    def certify(self, loss, C=None):
        """Refuses a Lipschitz constant below sup ||theta - x||_2 over C and the support."""
        _refuse_unpaired(self, loss)
        if C is None:
            raise ConfigError(f"loss {loss.name!r} on {self.name!r} needs a constraint set: the quadratic "
                              "loss has no Lipschitz constant on an unbounded domain")
        _refuse_below(self, loss, "Lipschitz constant domain_radius + constraint_radius", loss.lipschitz,
                      self.feature_radius() + C.diameter_primal(2.0) / 2,
                      "sup ||theta - x||_2 over the constraint set and its support")

    @property
    def trace_cov(self):
        return self.spread**2 * self.d / (self.d + 2.0)

    def population_risk(self, w, loss):
        """The closed form above under ``MeanPointLoss``; None under any other loss."""
        if not isinstance(loss, MeanPointLoss):
            return None
        diff = np.asarray(w, dtype=float) - self.mu
        return 0.5 * float(diff @ diff) + 0.5 * self.trace_cov

    def feature_radius(self):
        """Certified bound on ||x||_2 over the support."""
        return math.sqrt(float(self.mu @ self.mu)) + self.spread


class LogisticSphere(_LinearModel):
    """Well-specified logistic model with features on a sphere.

    Features are drawn from the cone measure of the l_sphere_exponent sphere
    of the given radius (so the dual-norm feature bound certifying the
    logistic loss's Lipschitz constant is exactly ``radius`` when
    sphere_exponent matches the dual exponent of the ambient norm).  Labels
    are +-1 with P(y=1|z) = sigmoid(<w_star, z>); the population risk is
    minimized at w_star.
    """

    name = "logistic_sphere"
    loss_type = LogisticLoss

    def __init__(self, w_star, sphere_exponent=2.0, radius=1.0):
        self.w_star = np.asarray(w_star, dtype=float)
        self.sphere_exponent = float(sphere_exponent)
        self.radius = float(radius)
        self.d = self.w_star.size

    def sample(self, n, rng):
        Z = sample_lr_sphere(self.d, self.sphere_exponent, rng, size=n)
        Z *= self.radius
        # y = where(U < sigmoid(Z w_star), 1, -1) with U ~ U(0, 1), built in y a row block at a time.
        y = np.empty(n)
        for rows in row_blocks(n, self.d):
            b = y[rows]
            np.matmul(Z[rows], self.w_star, out=b)
            np.negative(b, out=b)
            np.exp(b, out=b)
            b += 1.0
            np.divide(1.0, b, out=b)
            b[...] = np.where(rng.random(b.size) < b, 1.0, -1.0)
        return Dataset(Z, y)

    def population_risk(self, w, loss):
        """None: no closed form yet, so the risk is scored by Monte Carlo."""
        return None


class HeavyTailLinear(_LinearModel):
    """Linear model with Student-t noise: y = <w_star, z> + scale * t(dof).

    Features live on the unit l_sphere_exponent sphere.  For dof = 3 the
    noise has finite variance but infinite fourth moment, so per-sample
    gradients are heavy-tailed while the second-moment bound required of the
    gradient noise stays certifiable: for a loss whose gradient is
    psi(residual) * z with |psi| <= psi_max and ||z|| <= 1 in the relevant
    dual norm, E||grad l - grad L||^2 <= 4 psi_max^2 =: sigma_sq_bound.
    """

    name = "heavy_tail_linear"
    loss_type = PseudoHuberLoss

    def __init__(self, w_star, sphere_exponent=2.0, t_dof=3.0, t_scale=1.0):
        if t_dof <= 2:
            raise ValueError("HeavyTailLinear: need dof > 2 for finite gradient variance")
        self.w_star = np.asarray(w_star, dtype=float)
        self.sphere_exponent = float(sphere_exponent)
        self.t_dof = float(t_dof)
        self.t_scale = float(t_scale)
        self.d = self.w_star.size

    def sample(self, n, rng):
        Z = sample_lr_sphere(self.d, self.sphere_exponent, rng, size=n)
        # y = Z w_star + t_scale * t, built in y a row block at a time.
        y = np.empty(n)
        for rows in row_blocks(n, self.d):
            b = y[rows]
            np.matmul(Z[rows], self.w_star, out=b)
            b += self.t_scale * rng.standard_t(self.t_dof, size=b.size)
        return Dataset(Z, y)

    def sigma_sq_bound(self, psi_max):
        """Analytic second-moment bound on gradient noise, 4 * psi_max^2."""
        return 4.0 * float(psi_max) ** 2

    def population_risk(self, w, loss):
        """None: no closed form, so the risk is scored by Monte Carlo."""
        return None
