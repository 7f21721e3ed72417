"""Euclidean private solvers: approximate objective perturbation and phased SGD.

Objective perturbation privatizes constrained ERM by adding a random linear
term and a ridge penalty, minimizing to a certified accuracy alpha, then
perturbing and projecting the result: the approximate-minima perturbation of
Iyengar et al. 2019.  ``app_objp`` (convex losses) and ``app_objp_sc``
(strongly convex losses) run it through one body, ``_perturb_solve_release``;
each supplies only its ridge schedule, the curvature its smoothness
precondition counts (lambda, or lambda + Delta), its default accuracy
ceiling and its release scale (1 / lambda, or ||C||_2^2 / Delta_C).

The inner optimizer is accelerated projected gradient with constant momentum
(V-FISTA, Beck 2017, First-Order Methods in Optimization, section 10.7.7),
run for a deterministic iteration count derived from its linear convergence
rate, so the accuracy certificate is unconditional and the number of steps
does not depend on the data.

Solver options are keyword-only arguments, with their defaults in the signature.
No option scales or skips a noise draw: every release adds its noise as drawn
from the injected ``rng``.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, RefusalError, warn_at_caller
from .options import check_options
from .problems.risk import empirical_grad, gaussian_width_mc

__all__ = ["SmoothObjective", "inner_solve", "app_objp", "app_objp_sc", "phased_dp_sgd"]


@dataclass
class SmoothObjective:
    """A strongly convex, smooth objective: the inner optimizer reads its gradient and constants."""

    grad: callable
    smoothness: float
    strong_convexity: float


def _v_fista(obj, C, start):
    """Iterates x_1, x_2, ... of V-FISTA on ``obj`` over C, without end.

    x_1 is one plain projected-gradient step from C.project(start); from
    there each step takes a gradient at the extrapolated point, with step
    1/beta and momentum (sqrt(kappa) - 1) / (sqrt(kappa) + 1), and makes one
    projection onto C.
    """
    step = 1.0 / obj.smoothness
    root_kappa = math.sqrt(obj.smoothness / obj.strong_convexity)
    momentum = (root_kappa - 1.0) / (root_kappa + 1.0)
    x = C.project(np.asarray(start, dtype=float))
    y, m = x, 0.0  # no momentum into x_1
    while True:
        x_next = C.project(y - step * obj.grad(y))
        y = x_next + m * (x_next - x)
        x, m = x_next, momentum
        yield x


def _advance(iterates, k, x):
    """The k-th next iterate, or ``x`` itself when k = 0."""
    for x in itertools.islice(iterates, k):
        pass
    return x


def inner_iteration_count(obj, C, alpha):
    """Deterministic iteration count certifying alpha-suboptimality.

    With beta the smoothness, mu the strong convexity, kappa = beta / mu and
    x* the constrained minimizer: the first, plain projected-gradient step
    from x_0 in C gives
        J(x_1) - J* + (beta/2) ||x_1 - x*||^2 <= (beta/2) ||x_0 - x*||^2
                                               <= (beta/2) ||C||_2^2,
    with ||C||_2 the l2 diameter of C.  V-FISTA started at x_1 contracts
    J(x_k) - J* + (mu/2) ||x_k - x*||^2 by (1 - 1/sqrt(kappa)) <= exp(-1/sqrt(kappa))
    per step (Beck 2017, Theorem 10.42), and mu <= beta, so
    J(x_K) - J* <= alpha after
        K = 1 + ceil(sqrt(kappa) * ln(beta * ||C||_2^2 / (2 alpha)))
    steps (K = 1 when the logarithm is not positive).  The bound holds at
    every later iterate too.
    """
    if alpha <= 0:
        raise ValueError("inner accuracy alpha must be > 0")
    if obj.strong_convexity <= 0:
        raise ValueError("inner_solve requires a strongly convex objective")
    kappa = obj.smoothness / obj.strong_convexity
    arg = obj.smoothness * C.diameter_primal(2.0) ** 2 / (2.0 * alpha)
    if arg <= 1.0:
        return 1
    return 1 + math.ceil(math.sqrt(kappa) * math.log(arg))


def inner_solve(obj, C, alpha, start):
    """alpha-accurate constrained minimizer of ``obj``, certified by iteration count."""
    return _advance(_v_fista(obj, C, start), inner_iteration_count(obj, C, alpha), None)


def _require_l2_constants(loss):
    # The noise is calibrated to L and beta as l2 constants.  A loss declared
    # in ||.||_p bounds ||z||_q, q the dual exponent; ||z||_2 <= ||z||_q needs q <= 2.
    if loss.norm_p < 2.0:
        raise ValueError(f"a loss declared in norm_p={loss.norm_p} < 2 does not certify l2 constants")


def _gaussian_width_estimate(C):
    # Deterministic internal seed: the width only sets the default accuracy
    # ceiling, and a fixed seed keeps solver outputs reproducible.  The
    # estimate is a function of C alone, so it is drawn on the first solve
    # with C and kept on C for the solves that follow.
    width = getattr(C, "_gaussian_width", None)
    if width is None:
        width, _ = gaussian_width_mc(C, 20_000, np.random.default_rng(20_170_419))
        C._gaussian_width = width
    return width


def _alpha_ceiling(L, D, n, budget, width):
    first = L * D / n**1.5
    second = budget.epsilon**2 * L * D**3 / (width**2 * math.log(1.0 / budget.delta) * n**2.5)
    return min(first, second, 1.0)


def _alpha_ceiling_sc(L, D, n, budget, width, delta_c):
    first = L**2 * D**2 / (delta_c * n**2)
    second = (
        L**4
        * D**6
        * budget.epsilon**2
        / (delta_c**3 * n**4 * width**2 * math.log(1.0 / budget.delta))
    )
    return min(first, second, 1.0)


def _perturbed_objective(data, loss, G, lam):
    n = data.n

    def grad(w):
        return empirical_grad(w, data, loss) + G / n + 2.0 * lam * w

    return SmoothObjective(
        grad=grad,
        smoothness=loss.smoothness + 2.0 * lam,
        strong_convexity=loss.strong_convexity + 2.0 * lam,
    )


def _solve_with_surrogate(obj, C, alpha, start, release_bound):
    """V-FISTA to the certified count, then continue and check the bound.

    theta2 is iterate K of the trajectory from ``start``.  The surrogate is
    iterate K_s of the same trajectory, momentum included, where K_s is the
    count certifying alpha/100; the certificate holds at every iterate, so
    ||theta2 - surrogate|| <= sqrt(2 alpha / lam) + sqrt(2 (alpha/100) / lam)
    must hold whenever the certificates do; a larger distance raises
    NumericError with the distance as ``residual``.  ``info`` records K as
    ``inner_iters``, K_s - K as ``surrogate_iters`` and the distance and its
    bound as ``release_distance`` and ``release_bound``.
    """
    iterates = _v_fista(obj, C, start)
    k2 = inner_iteration_count(obj, C, alpha)
    theta2 = _advance(iterates, k2, None)
    extra = inner_iteration_count(obj, C, alpha / 100.0) - k2
    surrogate = _advance(iterates, extra, theta2)
    dist = float(np.linalg.norm(theta2 - surrogate))
    bound = release_bound * (1.0 + math.sqrt(1.0 / 100.0))
    if dist > bound:
        raise NumericError(
            f"release distance {dist:.3e} exceeds certified bound {bound:.3e}", residual=dist
        )
    info = {"inner_iters": k2, "surrogate_iters": extra, "release_distance": dist, "release_bound": bound}
    return theta2, info


def _perturb_solve_release(
    name, data, loss, C, budget, rng, lam, curvature, alpha_ceiling, release_curvature,
    alpha_opt, n_min=None,
):
    """Approximate-minima perturbation (Iyengar et al. 2019), shared by both solvers.

    Refuses a C whose d is not data.d (C's width and c_min set the noise).
    Then it refuses unless beta <= eps * n * curvature / r, the smoothness
    precondition that makes the perturbed-objective release private; the
    refusal names ``n_min``, by default ceil(r beta / (eps * curvature)).
    Then it adds the linear term G / n, G ~ N(0, sigma1^2 I), and the ridge
    lam ||w||^2 to the empirical risk, solves to accuracy alpha (``alpha_opt``,
    or ``alpha_ceiling(L, D, n, budget, width)`` when it is None), and releases
    C.project(theta2 + H), H ~ N(0, sigma2^2 I) with sigma2^2 proportional to
    alpha / release_curvature.
    """
    if C.d != data.d:
        raise ValueError(f"{name}: C must have the data's dimension d={data.d}, got d={C.d}")
    _require_l2_constants(loss)
    n, d = data.n, data.d
    L, beta = loss.lipschitz, loss.smoothness
    r = loss.rank_bound(d)
    D = C.diameter_primal(2.0)

    if beta > budget.epsilon * n * curvature / r:
        if n_min is None:  # no n suffices without curvature
            n_min = math.ceil(r * beta / (budget.epsilon * curvature)) if curvature > 0 else math.inf
        raise RefusalError(
            f"smoothness precondition failed: beta={beta:.3g} > eps*n*curvature/r="
            f"{budget.epsilon * n * curvature / r:.3g} (curvature {curvature:.3g}); "
            f"need n >= {n_min}",
            requirement=n_min,
        )
    if n < r**2 * beta**2 * D**2 / (budget.epsilon**2 * L**2):
        warn_at_caller(
            "n below the large-n regime of the utility guarantee "
            "(n >= r^2 beta^2 ||C||^2 / (eps^2 L^2)); privacy is unaffected"
        )
    if n < math.sqrt(d * math.log(1.0 / budget.delta)) / budget.epsilon:
        warn_at_caller("n below sqrt(d log(1/delta))/eps; utility bound constants degrade")

    width = _gaussian_width_estimate(C)
    alpha = alpha_opt if alpha_opt is not None else alpha_ceiling(L, D, n, budget, width)

    sigma1 = math.sqrt(128.0 * L**2 * math.log(2.5 / budget.delta)) / budget.epsilon
    G = sigma1 * rng.standard_normal(d)
    obj = _perturbed_objective(data, loss, G, lam)

    release_bound = math.sqrt(2.0 * alpha / release_curvature)
    theta2, info = _solve_with_surrogate(
        obj, C, alpha, np.zeros(d), release_bound
    )

    sigma2 = (
        math.sqrt(64.0 * alpha * math.log(2.5 / budget.delta) / release_curvature)
        / budget.epsilon
    )
    H = sigma2 * rng.standard_normal(d)
    theta_hat = C.project(theta2 + H)
    info.update(lam=lam, alpha=alpha, sigma1=sigma1, sigma2=sigma2, width=width)
    return theta_hat, info


def app_objp(data, loss, C, budget, rng, *, alpha_opt=None, lambda_reg=None):
    """Approximate objective perturbation for convex smooth Lipschitz losses.

    The ridge alone supplies the curvature: the default lambda is
    L / (sqrt(n) ||C||_2), and the release scale is 1 / lambda.  Returns
    (theta_hat, info).  Raises RefusalError when the smoothness precondition
    beta <= eps * n * lambda / r fails, since that condition is what makes
    the perturbed-objective release private.

    ``alpha_opt`` in (0, 1] is the inner accuracy (None: the utility-driven
    ceiling, through the estimated Gaussian width of C) and ``lambda_reg``
    >= 0 the ridge (None: the schedule).  The solve goes on to alpha/100
    and checks the certified distance between the released and the exact
    minimizer.
    """
    check_options(alpha_opt=alpha_opt, lambda_reg=lambda_reg)
    lam, n_min = lambda_reg, None
    if lam is None:
        L, D = loss.lipschitz, C.diameter_primal(2.0)
        lam = L / (math.sqrt(data.n) * D)
        # With this schedule the precondition reads n >= (r beta D / (eps L))^2.
        r = loss.rank_bound(data.d)
        n_min = math.ceil((r * loss.smoothness * D / (budget.epsilon * L)) ** 2)
    return _perturb_solve_release(
        "app_objp", data, loss, C, budget, rng, lam, curvature=lam, alpha_ceiling=_alpha_ceiling,
        release_curvature=lam, alpha_opt=alpha_opt, n_min=n_min,
    )


def app_objp_sc(data, loss, C, budget, rng, *, alpha_opt=None, lambda_reg=None):
    """Objective perturbation for strongly convex losses.

    The loss's own curvature Delta replaces most (or all) of the ridge term:
    lambda = max{r beta / (eps n) - Delta, 0}, the precondition counts
    lambda + Delta, and the release scale is ||C||_2^2 / Delta_C, with
    Delta_C the strong convexity measured in the Minkowski norm of C.  The
    options are those of ``app_objp``; ``lambda_reg`` = 0 runs on Delta alone.
    """
    check_options(alpha_opt=alpha_opt, lambda_reg=lambda_reg)
    delta2 = loss.strong_convexity
    if delta2 <= 0:
        raise ValueError("app_objp_sc requires a strongly convex loss")
    delta_c = delta2 * C.c_min**2  # modulus w.r.t. the Minkowski norm of C
    lam = lambda_reg
    if lam is None:
        r = loss.rank_bound(data.d)
        lam = max(r * loss.smoothness / (budget.epsilon * data.n) - delta2, 0.0)
    theta_hat, info = _perturb_solve_release(
        "app_objp_sc", data, loss, C, budget, rng, lam,
        curvature=lam + delta2,
        alpha_ceiling=functools.partial(_alpha_ceiling_sc, delta_c=delta_c),
        release_curvature=delta_c / C.diameter_primal(2.0) ** 2, alpha_opt=alpha_opt,
    )
    info["delta_c"] = delta_c
    return theta_hat, info


def phased_dp_sgd(data, loss, budget, rng):
    """Phased one-pass DP-SGD (unconstrained).

    Runs ceil(log2 n) phases on disjoint, geometrically shrinking shards;
    each phase averages its one-pass SGD iterates and perturbs the average
    with Gaussian noise whose scale shrinks 4x per phase.  Returns
    (w_k, info).  The base step size is the schedule
    eta = min(4 / sqrt(n), eps / (2 sqrt(d ln(1/delta)))) / L, and a step above
    1/beta is refused.

    For 2 <= p <= inf (config entry ``lipschitz_high_p``) it is the Euclidean
    reduction of Bassily, Guzman and Nandi 2021: constants declared in ||.||_p,
    p >= 2, hold in l2 as they stand, and the l2 guarantee reads in lp through
    the diameter conversion d^{1/2 - 1/p} (d^{1/2} at p = inf).
    """
    _require_l2_constants(loss)
    n, d = data.n, data.d
    L, beta = loss.lipschitz, loss.smoothness
    eta = (1.0 / L) * min(
        4.0 / math.sqrt(n),
        budget.epsilon / (2.0 * math.sqrt(d * math.log(1.0 / budget.delta))),
    )
    if eta > 1.0 / beta:
        n_min = math.ceil(16.0 * beta**2 / L**2)
        raise RefusalError(
            f"step size {eta:.3g} exceeds 1/beta={1.0 / beta:.3g}; need n >= {n_min} "
            "for the automatic step",
            requirement=n_min,
        )

    k = max(1, math.ceil(math.log2(n)))
    w = np.zeros(d)
    offset = 0
    shards = []
    for i in range(1, k + 1):
        n_i = n >> i  # floor(2^-i * n)
        if n_i == 0:
            shards.append(0)
            continue
        eta_i = eta * 4.0**-i
        shard = data.subset(slice(offset, offset + n_i))
        offset += n_i
        shards.append(n_i)

        avg = w.copy()  # running mean over the n_i + 1 iterates, starts at w_i^1
        cur = w
        for t in range(n_i):
            g = loss.grads(cur, shard.X[t : t + 1], None if shard.y is None else shard.y[t : t + 1])[0]
            cur = cur - eta_i * g
            avg += (cur - avg) / (t + 2.0)
        sigma_i = 4.0 * L * eta_i * math.sqrt(math.log(1.0 / budget.delta)) / budget.epsilon
        w = avg + sigma_i * rng.standard_normal(d)

    info = {"eta": eta, "phases": k, "shard_sizes": shards}
    return w, info
