"""lp-geometry private solvers built on mirror descent.

Three variants for 1 < p < 2 share the machinery here (the p >= 2 config
entry ``lipschitz_high_p`` runs the Euclidean ``phased_dp_sgd``):

* ``noisy_reg_md`` -- unconstrained, Lipschitz losses: each step solves a
  regularized linearized subproblem in closed form through the mirror map
  and adds generalized Gaussian noise to the gradient.
* ``shuffled_truncated_md`` and ``batched_truncated_md`` -- constrained,
  heavy-tailed gradients, one pass of the shared loop ``_truncated_md``:
  per-sample gradients truncated to bound sensitivity, a noisy constrained
  mirror step per batch, and the average of the iterates.  The shuffled
  solver permutes the data and adds per-sample noise amplified by shuffling
  (high-privacy regime only); the batched one adds one draw per batch under
  parallel composition.  Its analysis is stated for epsilon in (0, 1), and
  nothing yet refuses epsilon >= 1.

The problem defines the geometry: p is the loss's declared ``norm_p`` (its
constants are stated in ||.||_p) and d is ``data.d``.  Both set kappa, so
the noise, and a ``C`` of another dimension is refused.  Options are
keyword-only arguments.  ``T`` and ``lambda_trunc`` default to the
schedules the utility analysis prescribes and are > 0 when given, and
``noisy_reg_md``'s ``c_t`` > 0 scales its default T.  The regularization
weight alpha and the truncated solvers' step weight gamma = sqrt(T) are
always the schedule.  No option scales or skips a noise draw, and none
lifts the shuffled solver's regime gate.

``lambda`` is an overloaded symbol in this corner of the literature; here
``lambda_trunc`` always means the truncation offset and ``lambda_reg`` a
ridge weight, so the two cannot be silently confused.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, warn_at_caller
from .mechanisms import GGNoiseSpec, gg_sample, shuffle_calibrate
from .options import check_options
from .problems.risk import empirical_grad
# ``bregman`` is not called here; the benchmark's tracer binds dpsco.mirror.bregman.
from .spaces import SpaceSpec, bregman, grad_phi, inv_grad_phi, lp_norm, phi  # noqa: F401

__all__ = [
    "TruncationStats",
    "noisy_reg_md",
    "truncate_gradients",
    "mirror_step_constrained",
    "shuffled_truncated_md",
    "batched_truncated_md",
]


@dataclass
class TruncationStats:
    """Counters for the gradient truncation step."""

    total: int = 0
    zeroed: int = 0
    max_pre_norm: float = 0.0

    def update(self, norms, kept_mask):
        self.total += norms.size
        self.zeroed += int((~kept_mask).sum())
        if norms.size:
            self.max_pre_norm = max(self.max_pre_norm, float(norms.max()))

    @property
    def zeroed_fraction(self):
        return self.zeroed / self.total if self.total else 0.0


class _WeightedAverage:
    """Running average with geometric weights ratio^t, overflow-free.

    Maintains V_t = (sum_{j<=t} ratio^j) / ratio^t via V_t = 1 + V_{t-1}/ratio,
    which stays bounded, so no intermediate quantity grows with t.
    """

    def __init__(self, ratio):
        self.ratio = ratio
        self.v = 0.0
        self.value = None

    def add(self, w):
        self.v = 1.0 + self.v / self.ratio
        if self.value is None:
            self.value = np.array(w, dtype=float)
        else:
            frac = 1.0 / self.v
            self.value = (1.0 - frac) * self.value + frac * np.asarray(w, dtype=float)


def _space(name, data, loss, C=None):
    """SpaceSpec(loss.norm_p, data.d), after refusing p outside (1, 2) and a C of another d."""
    if not (1.0 < loss.norm_p < 2.0):
        raise ValueError(f"{name} requires 1 < p < 2; the loss declares norm_p={loss.norm_p}")
    if C is not None and C.d != data.d:
        raise ValueError(f"{name}: C must have the data's dimension d={data.d}, got d={C.d}")
    return SpaceSpec(loss.norm_p, data.d)


def _schedule_T(T, limit, bound="n"):
    """The automatic T, at least 1, clamped to ``limit`` (named ``bound``) with a warning."""
    T = max(1, T)
    if T > limit:
        warn_at_caller(f"schedule T={T} exceeds {bound}={limit}; clamping to {bound}")
        T = limit
    return T


def noisy_reg_md(data, loss, budget, rng, *, T=None, c_t=1.0):
    """Noisy regularized mirror descent, unconstrained.

    Each step minimizes
        <grad + g_t, w - w_t> + beta D_Phi(w, w_t) + alpha Phi(w)
    whose first-order condition gives the closed-form update
        w_{t+1} = (grad Phi)^{-1}((beta grad Phi(w_t) - grad - g_t) / (beta + alpha)).
    The output is the geometrically weighted average of w_2..w_{T+1} with
    ratio (2 beta + alpha) / (2 beta).  The weight is the schedule
    alpha = (4 beta / T) log2(n / T), so T must be below n; the automatic T,
    c_t * (n eps kappa / sqrt(d ln(1/delta)))^0.4 rounded up, is clamped to
    n - 1.
    """
    check_options(T=T, c_t=c_t)
    space = _space("noisy_reg_md", data, loss)
    n, d = data.n, data.d
    L, beta = loss.lipschitz, loss.smoothness
    kappa = space.kappa

    if T is None:
        raw = c_t * (
            n * budget.epsilon * kappa / math.sqrt(d * math.log(1.0 / budget.delta))
        ) ** 0.4
        T = _schedule_T(math.ceil(raw), max(1, n - 1), "n - 1")
    if T >= n:
        raise ValueError(f"noisy_reg_md: alpha_reg needs T < n; got T={T}, n={n}")
    alpha_reg = (4.0 * beta / T) * math.log2(n / T)

    sigma2 = 64.0 * L**2 * kappa * T * math.log(1.0 / budget.delta) / (n**2 * budget.epsilon**2)
    noise = GGNoiseSpec(sigma2=sigma2, r=space.r_noise, d=d)

    w = np.zeros(d)
    avg = _WeightedAverage((2.0 * beta + alpha_reg) / (2.0 * beta))
    for _ in range(T):
        g_t = gg_sample(noise, rng)
        dual = beta * grad_phi(w, space) - empirical_grad(w, data, loss) - g_t
        w = inv_grad_phi(dual / (beta + alpha_reg), space)
        avg.add(w)

    info = {"T": T, "alpha_reg": alpha_reg, "sigma2": sigma2, "r_noise": space.r_noise}
    return avg.value, info


def truncate_gradients(G, threshold, dual_exponent, stats):
    """Zero every row of G whose dual norm exceeds the threshold (inclusive keep).

    Returns the truncated copy of the batch and counts its rows in ``stats``.
    """
    if threshold <= 0:
        raise ValueError("truncate_gradients: threshold must be > 0")
    norms = lp_norm(G, dual_exponent)
    keep = norms <= threshold
    stats.update(norms, keep)
    out = np.where(keep[:, None], G, 0.0)
    # The truncation bound must hold with probability 1.
    if np.any(lp_norm(out, dual_exponent) > threshold * (1 + 1e-12)):
        raise AssertionError("truncation invariant violated")
    return out


def mirror_step_constrained(g_hat, w_prev, gamma, C, spec, tol=None):
    """Constrained mirror-descent step.

    Minimizes <g_hat, w> + gamma * D_Phi(w, w_prev) over C.  The
    unconstrained minimizer has the closed form
    (grad Phi)^{-1}(grad Phi(w_prev) - g_hat/gamma); if it is feasible it is
    returned directly.  Otherwise projected gradient descent with Armijo
    backtracking runs (at most 10 000 iterations) until the Frank-Wolfe gap
    certifies suboptimality <= tol.  Returns (w, residual).

    Phi(w_prev) and grad Phi(w_prev) are computed once per step; each
    candidate's D_Phi(w, w_prev) then runs the operations of ``bregman`` in
    its order, so the Armijo test sees the same bits.
    """
    if tol is None:
        tol = 1e-8 * gamma * C.diameter_primal(spec.p) ** 2
    gp_prev = grad_phi(w_prev, spec)
    u = inv_grad_phi(gp_prev - g_hat / gamma, spec)
    if C.contains(u, slack=1e-12):
        return u, 0.0
    phi_prev = phi(w_prev, spec)

    def value(w):
        divergence = np.maximum(phi(w, spec) - phi_prev - (gp_prev * (w - w_prev)).sum(), 0.0)
        return float(g_hat @ w + gamma * divergence)

    def grad(w):
        return g_hat + gamma * (grad_phi(w, spec) - gp_prev)

    w = C.project(u)
    f_w = value(w)
    # Base step: the potential's curvature scales like gamma * weight.
    eta = 1.0 / (gamma * max(1.0, spec.potential_weight))
    for _ in range(10_000):
        gw = grad(w)
        residual = float(gw @ w + C.support(-gw))
        if residual <= tol:
            return w, residual
        for _ in range(60):
            cand = C.project(w - eta * gw)
            f_cand = value(cand)
            decrease = float(gw @ (cand - w))
            if f_cand <= f_w + 0.25 * decrease:
                break
            eta *= 0.5
        else:  # no candidate of the 60 halvings passed the Armijo test
            break
        w, f_w = cand, f_cand
        eta *= 2.0
    raise NumericError(
        f"mirror step did not reach tol={tol:.3e} within 10000 iterations", residual=residual
    )


def _batch_size(n, T):
    if T > n:
        raise ValueError(f"T={T} batches need n >= T rows; got n={n}")
    return n // T


def _truncated_md(data, loss, C, space, T, lam, threshold, privatize):
    """One constrained mirror step per batch: the pass both truncated solvers share.

    Batch t is rows [t b, (t+1) b) of ``data``, b = floor(n/T), with the
    remainder in the last batch.  Its per-sample gradients are truncated at
    ``threshold`` and ``privatize`` turns them into the noisy gradient for a
    step with gamma = sqrt(T).  Returns the plain average of the
    iterates, which must lie in C, and the info fields both solvers report.
    """
    n = data.n
    b = _batch_size(n, T)
    gamma = math.sqrt(T)
    stats = TruncationStats()
    w = np.zeros(data.d)
    avg = _WeightedAverage(1.0)  # uniform gamma_t => plain average
    residuals = []
    for t in range(T):
        lo, hi = t * b, n if t == T - 1 else (t + 1) * b
        y = None if data.y is None else data.y[lo:hi]
        G = truncate_gradients(loss.grads(w, data.X[lo:hi], y), threshold, space.q, stats)
        w, res = mirror_step_constrained(privatize(G), w, gamma, C, space)
        residuals.append(res)
        avg.add(w)
    if not C.contains(avg.value, slack=1e-9):
        raise AssertionError("averaged iterate left the constraint set")
    info = {"T": T, "lambda_trunc": lam, "threshold": threshold, "gamma": gamma,
            "truncation": stats, "max_step_residual": max(residuals)}
    return avg.value, info


def shuffled_truncated_md(data, loss, C, budget, rng, *, T=None, lambda_trunc=None):
    """Shuffled, truncated, noisy one-pass mirror descent.

    Privacy comes from per-sample generalized Gaussian noise amplified by
    shuffling, which is only valid in the high-privacy regime
    eps <= sqrt(ln(n/delta)/n); outside it ``shuffle_calibrate`` refuses,
    so every run the solver returns holds a valid calibration.
    """
    check_options(T=T, lambda_trunc=lambda_trunc)
    space = _space("shuffled_truncated_md", data, loss, C)
    n, d = data.n, data.d
    beta = loss.smoothness
    kappa = space.kappa
    M = C.diameter_primal(space.p)
    logd = math.log(1.0 / budget.delta)

    if lambda_trunc is None:
        lambda_trunc = max(
            math.sqrt(n * budget.epsilon) / (kappa**2 * d * logd) ** 0.25,
            max(beta, 1.0) * M,  # floor: the threshold is at least 2 beta M
        )
    threshold = beta * M + lambda_trunc

    calib = shuffle_calibrate(n, budget, threshold, kappa)  # refuses outside the regime

    if T is None:
        T = _schedule_T(round(M**2 * n**2 * budget.epsilon**2 / (lambda_trunc**2 * d * logd)), n)

    perm = rng.permutation(n)  # Fisher-Yates under the hood; rng-injected
    # lambda_trunc > 0 makes the threshold, and so sigma, positive.
    noise = GGNoiseSpec(sigma2=calib.sigma**2, r=space.r_noise, d=d)

    def privatize(G):  # one draw per sample, before averaging
        return (G + gg_sample(noise, rng, size=len(G))).mean(axis=0)

    out, info = _truncated_md(data.subset(perm), loss, C, space, T, lambda_trunc, threshold, privatize)
    info["sigma"] = calib.sigma
    return out, info


def batched_truncated_md(data, loss, C, budget, rng, *, T=None, lambda_trunc=None):
    """Truncated batched mirror descent without shuffling.

    Disjoint batches compose in parallel, so each step adds a single
    generalized Gaussian draw calibrated to the batch-mean sensitivity.
    The analysis is stated for 0 < eps < 1; nothing yet refuses eps >= 1.
    """
    check_options(T=T, lambda_trunc=lambda_trunc)
    space = _space("batched_truncated_md", data, loss, C)
    n, d = data.n, data.d
    beta = loss.smoothness
    kappa = space.kappa
    M = C.diameter_primal(space.p)
    logd = math.log(1.0 / budget.delta)

    if lambda_trunc is None:
        lambda_trunc = max(
            (math.sqrt(n * budget.epsilon) * M / (kappa * (d * logd) ** 0.25)) ** (2.0 / 3.0),
            max(beta, 1.0) * M,  # floor: the threshold is at least 2 beta M
        )
    threshold = beta * M + lambda_trunc

    if T is None:
        T = _schedule_T(round(n * budget.epsilon / (M * lambda_trunc * math.sqrt(d * logd))), n)

    b = _batch_size(n, T)
    sigma2 = kappa * threshold**2 * logd / (b**2 * budget.epsilon**2)
    noise = GGNoiseSpec(sigma2=sigma2, r=space.r_noise, d=d)

    def privatize(G):  # one draw per batch mean
        return G.mean(axis=0) + gg_sample(noise, rng)

    out, info = _truncated_md(data, loss, C, space, T, lambda_trunc, threshold, privatize)
    info["sigma2_step"] = sigma2
    return out, info
