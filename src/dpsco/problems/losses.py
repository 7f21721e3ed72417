"""Convex loss models with declared regularity constants.

Each loss declares the norm its constants refer to (``norm_p``: 2.0 for the
Euclidean solvers, the ambient p for mirror-descent runs), its Lipschitz
constant, smoothness, strong convexity and a Hessian-rank bound.  The
declared constants are promises the paired data distribution must certify:
the config parser refuses a constant its ``certify(loss, C)`` does not (see
``dpsco.problems.distributions``), and tests sample-check them.  ``name`` is
the loss's name in a config.

All evaluation is vectorized over the rows of a dataset, and rows are the
only input: one row x with label y is the one-row block ``x[None]``,
``np.array([y])``.  ``values`` returns per-sample losses (n,), and
``grads(w, X, y=None, mean=False)`` the per-sample gradients (n, d), or with
``mean=True`` their mean (d,); a custom loss must accept the ``mean``
keyword, which ``empirical_grad`` always passes.  The linear losses take
``X @ w`` and the mean gradient ``X.T @ coef / n`` over the row-block plan of
``mechanisms.row_blocks``, computed once per shape, without building the (n, d)
array and at any BLAS thread count with the same bits: ``X @ w`` is written
block by block into one output, and the mean adds the blocks' products in
order onto the first, so rows that fit one block take the single product.

The module needs numpy only: the logistic sigmoid is the private ``_expit``.
"""

import math

import numpy as np

from ..mechanisms import row_blocks

__all__ = ["LossModel", "LogisticLoss", "MeanPointLoss", "PseudoHuberLoss"]


class LossModel:
    """Base class carrying the declared constants.

    Attributes
    ----------
    lipschitz : float
        L with |l(w1,x) - l(w2,x)| <= L ||w1 - w2|| for the declared norm.
    smoothness : float
        beta with ||grad l(w1,x) - grad l(w2,x)||_* <= beta ||w1 - w2||.
    strong_convexity : float
        Modulus with respect to the Euclidean norm (0 for merely convex).
    norm_p : float
        Exponent of the norm the L/beta constants refer to.
    hessian_rank : int or None
        Upper bound on rank of the per-sample Hessian; None means full.

    Subclasses implement ``values(w, X, y=None)``, the per-sample losses
    (n,), and ``grads(w, X, y=None, mean=False)``: the per-sample gradients
    (n, d), or their mean over the rows (d,) when ``mean`` is true.
    """

    lipschitz = math.inf
    smoothness = math.inf
    strong_convexity = 0.0
    norm_p = 2.0
    hessian_rank = None

    def values(self, w, X, y=None):
        raise NotImplementedError

    def grads(self, w, X, y=None, mean=False):
        raise NotImplementedError

    def rank_bound(self, d):
        """r = min{d, 2 * rank bound}, the effective rank used by solvers."""
        if self.hessian_rank is None:
            return d
        return min(d, 2 * self.hessian_rank)


def _expit(x):
    """The logistic sigmoid 1 / (1 + exp(-x)), elementwise.

    Below x = -709, exp(-x) overflows to inf and the result is exactly 0; the
    overflow is expected there, so it raises no warning.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _row_products(X, w):
    """``X @ w``, written block by block over the ``row_blocks`` of X."""
    out = np.empty(X.shape[0])
    for rows in row_blocks(*X.shape):
        np.matmul(X[rows], w, out=out[rows])
    return out


def _linear_grads(coef, X, mean):
    """Gradients coef_i * x_i of a loss of <w, x_i>: per row, or their mean."""
    if not mean:
        return coef[:, None] * X
    first, *rest = row_blocks(*X.shape)
    total = X[first].T @ coef[first]  # one block: the whole product X.T @ coef
    for rows in rest:
        total += X[rows].T @ coef[rows]
    return total / X.shape[0]


class LogisticLoss(LossModel):
    """Logistic loss over linear predictors, l(w,(z,y)) = log(1 + exp(-y <w,z>)).

    ``feature_dual_bound`` is the certified bound on ||z|| in the dual of
    the declared norm; it yields L = bound and beta = bound^2 / 4.
    """

    name = "logistic"
    hessian_rank = 1

    def __init__(self, feature_dual_bound=1.0, norm_p=2.0):
        self.feature_dual_bound = float(feature_dual_bound)
        self.norm_p = float(norm_p)
        self.lipschitz = self.feature_dual_bound
        self.smoothness = self.feature_dual_bound**2 / 4.0
        self.strong_convexity = 0.0

    def values(self, w, X, y=None):
        if y is None:
            raise ValueError("LogisticLoss requires labels")
        margins = y * _row_products(X, w)
        # The formula np.logaddexp(0, -m) evaluates per element, vectorised:
        # exp never overflows, and m = 0 gives log(2).
        return np.maximum(-margins, 0.0) + np.log1p(np.exp(-np.abs(margins)))

    def grads(self, w, X, y=None, mean=False):
        if y is None:
            raise ValueError("LogisticLoss requires labels")
        # d/du log(1+e^{-u}) = -sigmoid(-u)
        coef = -y * _expit(-y * _row_products(X, w))
        return _linear_grads(coef, X, mean)


class MeanPointLoss(LossModel):
    """Quadratic point loss l(theta; x) = 0.5 ||theta - x||_2^2.

    1-strongly convex and 1-smooth in l2 with a full-rank Hessian; the
    Lipschitz constant over a constraint set of radius R with data of radius
    rho is R + rho (declared via the constructor).
    """

    name = "mean_point"
    hessian_rank = None  # identity Hessian: full rank
    norm_p = 2.0
    _mean_of = None  # (X, its column mean) for the last read-only X seen

    def __init__(self, domain_radius=1.0, constraint_radius=1.0):
        self.lipschitz = float(domain_radius) + float(constraint_radius)
        self.smoothness = 1.0
        self.strong_convexity = 1.0

    def values(self, w, X, y=None):
        diff = w[None, :] - X
        return 0.5 * (diff * diff).sum(axis=1)

    def grads(self, w, X, y=None, mean=False):
        if mean:
            return w - self._column_mean(X)
        return w[None, :] - X

    def _column_mean(self, X):
        # A Dataset's X is read-only, so its mean is computed once per dataset
        # rather than once per solver step; any other X is averaged each call.
        if X.flags.writeable:
            return X.mean(axis=0)
        if self._mean_of is None or self._mean_of[0] is not X:
            self._mean_of = (X, X.mean(axis=0))
        return self._mean_of[1]


class PseudoHuberLoss(LossModel):
    """Pseudo-Huber regression loss, smooth and Lipschitz, for heavy-tailed runs.

    l(w,(z,y)) = delta^2 (sqrt(1 + (r/delta)^2) - 1) with residual
    r = <w,z> - y.  The gradient magnitude is capped at delta * ||z||, so
    L = delta * feature_dual_bound and beta = feature_dual_bound^2.
    """

    name = "pseudo_huber"
    hessian_rank = 1

    def __init__(self, huber_delta=1.0, feature_dual_bound=1.0, norm_p=2.0):
        self.huber_delta = float(huber_delta)
        self.feature_dual_bound = float(feature_dual_bound)
        self.norm_p = float(norm_p)
        self.lipschitz = self.huber_delta * self.feature_dual_bound
        self.smoothness = self.feature_dual_bound**2
        self.strong_convexity = 0.0

    def values(self, w, X, y=None):
        if y is None:
            raise ValueError("PseudoHuberLoss requires labels")
        res = _row_products(X, w) - y
        dh = self.huber_delta
        return dh**2 * (np.sqrt(1.0 + (res / dh) ** 2) - 1.0)

    def grads(self, w, X, y=None, mean=False):
        if y is None:
            raise ValueError("PseudoHuberLoss requires labels")
        res = _row_products(X, w) - y
        dh = self.huber_delta
        coef = res / np.sqrt(1.0 + (res / dh) ** 2)
        return _linear_grads(coef, X, mean)
