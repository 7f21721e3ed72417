import math
import re

import numpy as np
import pytest
from scipy import optimize

from dpsco.bench import runner
from dpsco.bench.components import ALGORITHMS
from dpsco.errors import NumericError, RefusalError
from dpsco.mechanisms import PrivacyBudget
from dpsco import mirror
from dpsco.mirror import (
    TruncationStats,
    _WeightedAverage,
    batched_truncated_md,
    mirror_step_constrained,
    noisy_reg_md,
    shuffled_truncated_md,
    truncate_gradients,
)
from dpsco.problems import (
    BallCloud,
    Dataset,
    HeavyTailLinear,
    L2Ball,
    LpBall,
    MeanPointLoss,
    PseudoHuberLoss,
    empirical_grad,
    empirical_risk,
)
from dpsco.spaces import SpaceSpec, bregman, grad_phi, inv_grad_phi, lp_norm

HUGE_EPS = PrivacyBudget(1e6, 1e-5)


class QuadLoss(MeanPointLoss):
    """1-D style quadratic point loss with constants declared for any p."""

    def __init__(self, norm_p, lipschitz=2.0):
        super().__init__()
        self.norm_p = norm_p
        self.lipschitz = lipschitz


class TestWeightedAverage:
    def test_matches_explicit_weights(self):
        rng = np.random.default_rng(0)
        ratio = 1.07
        ws = [rng.standard_normal(3) for _ in range(40)]
        acc = _WeightedAverage(ratio)
        for w in ws:
            acc.add(w)
        weights = np.array([ratio**t for t in range(1, 41)])
        expected = (weights[:, None] * np.array(ws)).sum(axis=0) / weights.sum()
        np.testing.assert_allclose(acc.value, expected, rtol=1e-12)

    def test_no_overflow_long_run(self):
        acc = _WeightedAverage(1.5)
        for _ in range(10_000):
            acc.add(np.array([1.0]))
        assert acc.value[0] == pytest.approx(1.0, rel=1e-12)

    def test_weights_sum_to_one(self):
        # the running form applies convex combinations; verify the implied
        # weights against the closed form to 1e-12 relative
        acc = _WeightedAverage(1.25)
        applied = []
        for t in range(1, 101):
            acc.add(np.zeros(1))
            applied.append(1.0 / acc.v)
        total = 0.0
        wsum = 0.0
        for frac in applied:
            wsum = wsum * (1 - frac) + frac
        assert wsum == pytest.approx(1.0, rel=1e-12)


def _regularized_md_step_residual(w_next, w_prev, grad_with_noise, beta, alpha, space):
    """Norm of the regularized subproblem's first-order condition at w_next."""
    res = (
        grad_with_noise
        + beta * (grad_phi(w_next, space) - grad_phi(w_prev, space))
        + alpha * grad_phi(w_next, space)
    )
    return float(np.linalg.norm(res))


class TestNoisyRegMD:
    def test_zero_noise_tracks_regularized_minimizer(self, zero_noise):
        d = 1
        space = SpaceSpec(1.5, d)
        c = 0.8
        data = Dataset(np.full((256, 1), c))
        loss = QuadLoss(1.5)
        w, info = noisy_reg_md(data, loss, HUGE_EPS, zero_noise(1), T=60)
        alpha = info["alpha_reg"]
        # direct minimizer of 0.5 (w-c)^2 + alpha * (kappa/2) w^2 in 1-D
        direct = c / (1.0 + alpha * space.kappa)
        assert abs(w[0] - direct) <= 1e-3
        # excess empirical risk bounded by the regularization bias alpha*Phi(c)
        excess = empirical_risk(w, data, loss) - 0.0
        assert excess <= 2.0 * alpha * 0.5 * space.kappa * c**2 + 1e-9

    def test_step_first_order_residual(self):
        space = SpaceSpec(1.5, 6)
        rng = np.random.default_rng(2)
        data = Dataset(rng.standard_normal((64, 6)) * 0.3)
        loss = QuadLoss(1.5)
        beta, alpha = loss.smoothness, 0.2
        w = rng.standard_normal(6) * 0.5
        g = empirical_grad(w, data, loss) + 0.01 * rng.standard_normal(6)
        w_next = inv_grad_phi(
            (beta * grad_phi(w, space) - g) / (beta + alpha), space
        )
        assert _regularized_md_step_residual(w_next, w, g, beta, alpha, space) <= 1e-8

    def test_output_weight_ratio(self):
        beta, alpha = 1.0, 0.3
        ratio = (2 * beta + alpha) / (2 * beta)
        acc = _WeightedAverage(ratio)
        acc.add(np.zeros(1))
        v1 = acc.v
        acc.add(np.zeros(1))
        # consecutive weights ratio: w_t+1/w_t = ratio exactly
        assert acc.v == pytest.approx(1 + v1 / ratio)

    def test_t_clamped_below_n(self):
        # The alpha_reg schedule needs T < n, so the automatic T stops at n - 1, and says so.
        _, data, loss, _ = _heavy_setup(n=64, d=4)
        with pytest.warns(UserWarning, match="clamping") as caught:
            _, info = noisy_reg_md(
                data, loss, PrivacyBudget(0.5, 1e-5), np.random.default_rng(8), c_t=1e6
            )
        assert info["T"] == 63
        assert [w.filename for w in caught] == [__file__]  # the caller's line, not dpsco's

    def test_deterministic(self):
        space = SpaceSpec(1.5, 4)
        rng = np.random.default_rng(3)
        data = Dataset(rng.standard_normal((128, 4)) * 0.2)
        loss = QuadLoss(1.5)
        b = PrivacyBudget(1.0, 1e-5)
        w1, _ = noisy_reg_md(data, loss, b, np.random.default_rng(7), T=20)
        w2, _ = noisy_reg_md(data, loss, b, np.random.default_rng(7), T=20)
        np.testing.assert_array_equal(w1, w2)

    def test_auto_schedules(self):
        space = SpaceSpec(1.5, 4)
        rng = np.random.default_rng(4)
        data = Dataset(rng.standard_normal((512, 4)) * 0.2)
        loss = QuadLoss(1.5)
        b = PrivacyBudget(0.5, 1e-5)
        _, info = noisy_reg_md(data, loss, b, np.random.default_rng(8))
        expected_T = math.ceil(
            (512 * 0.5 * space.kappa / math.sqrt(4 * math.log(1e5))) ** 0.4
        )
        assert info["T"] == expected_T
        assert info["alpha_reg"] == pytest.approx(
            (4.0 * loss.smoothness / info["T"]) * math.log2(512 / info["T"])
        )
        assert info["sigma2"] == pytest.approx(
            64.0 * loss.lipschitz**2 * space.kappa * info["T"] * math.log(1e5) / (512**2 * 0.25)
        )


class TestTruncation:
    def test_boundary_inclusive(self):
        g = np.array([[3.0, 4.0]])  # ||g||_2 = 5
        stats = TruncationStats()
        out = truncate_gradients(g, 5.0, 2.0, stats)
        np.testing.assert_array_equal(out, g)
        assert stats.zeroed == 0

    def test_above_threshold_zeroed(self):
        g = np.array([[3.0, 4.0]])
        stats = TruncationStats()
        out = truncate_gradients(g, 5.0 / (1 + 1e-9), 2.0, stats)
        np.testing.assert_array_equal(out, np.zeros((1, 2)))
        assert stats.zeroed == 1

    def test_zero_gradient_unchanged(self):
        out = truncate_gradients(np.zeros((1, 3)), 1.0, 1.5, TruncationStats())
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_stats_accumulate(self):
        stats = TruncationStats()
        truncate_gradients(np.array([[10.0, 0.0]]), 1.0, 2.0, stats)
        truncate_gradients(np.array([[0.1, 0.0]]), 1.0, 2.0, stats)
        assert stats.total == 2
        assert stats.zeroed == 1
        assert stats.max_pre_norm == pytest.approx(10.0)
        assert stats.zeroed_fraction == pytest.approx(0.5)

    def test_batch_straddling_the_threshold(self):
        # dual exponent 3: row norms 2, (1 + 8)^(1/3), 0 and 3 against threshold 2
        G = np.array([[2.0, 0.0], [1.0, -2.0], [0.0, 0.0], [0.0, 3.0]])
        stats = TruncationStats(total=1, zeroed=1, max_pre_norm=1.5)
        out = truncate_gradients(G, 2.0, 3.0, stats)
        np.testing.assert_array_equal(out, [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        assert (stats.total, stats.zeroed) == (5, 3)
        assert stats.max_pre_norm == pytest.approx(3.0)
        np.testing.assert_array_equal(G[1], [1.0, -2.0])  # the input batch is left as it was

    def test_nonpositive_threshold_refused(self):
        with pytest.raises(ValueError, match="threshold"):
            truncate_gradients(np.ones((2, 2)), 0.0, 2.0, TruncationStats())


class _UphillBall(L2Ball):
    """An l2 ball whose every projection after the first moves uphill from the first.

    The step's search projects v = w - eta * grad, w the first point.  The first
    such v fixes the direction w - v, along the gradient, and every candidate
    is w moved a fixed distance that way: by convexity its objective is at least
    f(w) + <grad, candidate - w>, above the Armijo bound, so every halving fails.
    """

    def __init__(self, radius, d):
        super().__init__(radius, d)
        self.points = []

    def project(self, v):
        if not self.points:
            self.points.append(super().project(v))
            return self.points[0]
        w = self.points[0]
        if len(self.points) == 1:
            self.uphill = 0.5 * self.radius * (w - v) / np.linalg.norm(w - v)
        self.points.append(w + self.uphill)
        return self.points[-1]


class TestMirrorStep:
    def test_failed_search_raises_numeric_error(self):
        space, C = SpaceSpec(1.5, 4), _UphillBall(0.5, 4)
        g_hat, w_prev, gamma = np.array([3.0, -1.0, 2.0, 0.5]), np.zeros(4), 1.0
        with pytest.raises(NumericError, match="mirror step did not reach tol") as exc:
            mirror_step_constrained(g_hat, w_prev, gamma, C, space)
        assert len(C.points) == 1 + 60  # the start, then 60 rejected halvings of one step
        w = C.points[0]
        gw = g_hat + gamma * (grad_phi(w, space) - grad_phi(w_prev, space))
        assert exc.value.residual == pytest.approx(float(gw @ w + C.support(-gw)), rel=1e-12)
        assert exc.value.residual > 1e-8 * gamma * C.diameter_primal(1.5) ** 2  # above the tol

    def test_zero_gradient_returns_previous(self):
        space = SpaceSpec(1.5, 4)
        C = LpBall(1.5, 1.0, 4)
        w_prev = C.project(np.array([0.3, -0.2, 0.1, 0.0]))
        w, res = mirror_step_constrained(np.zeros(4), w_prev, 2.0, C, space)
        np.testing.assert_allclose(w, w_prev, atol=1e-12)
        assert res == 0.0

    def test_interior_closed_form(self):
        space = SpaceSpec(1.5, 3)
        C = LpBall(1.5, 10.0, 3)  # large ball: unconstrained minimizer interior
        w_prev = np.array([0.2, 0.1, -0.1])
        g = np.array([0.3, -0.2, 0.1])
        gamma = 2.0
        w, _ = mirror_step_constrained(g, w_prev, gamma, C, space)
        expected = inv_grad_phi(grad_phi(w_prev, space) - g / gamma, space)
        np.testing.assert_allclose(w, expected, rtol=1e-12)

    def test_euclidean_subcase_matches_projected_step(self):
        # s = 2 (p = 2, kappa = 1): the step is Proj_C(w_prev - g/(gamma*kappa))
        space = SpaceSpec(2.0, 3)
        C = L2Ball(0.5, 3)
        w_prev = C.project(np.array([0.4, 0.1, 0.0]))
        g = np.array([-2.0, 1.0, 0.5])
        gamma = 1.5
        w, _ = mirror_step_constrained(g, w_prev, gamma, C, space, tol=1e-12)
        expected = C.project(w_prev - g / (gamma * space.kappa))
        np.testing.assert_allclose(w, expected, atol=1e-6)

    def test_constrained_matches_scipy(self):
        space = SpaceSpec(1.5, 4)
        C = L2Ball(0.7, 4)
        rng = np.random.default_rng(5)
        w_prev = C.project(rng.standard_normal(4) * 0.3)
        g = rng.standard_normal(4)
        gamma = 1.2

        def objective(w):
            return float(g @ w + gamma * bregman(w, w_prev, space))

        w, res = mirror_step_constrained(g, w_prev, gamma, C, space, tol=1e-10)
        ref = optimize.minimize(
            objective,
            w_prev,
            constraints=[{"type": "ineq", "fun": lambda w: 0.49 - float(w @ w)}],
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-14},
        )
        assert objective(w) <= ref.fun + 1e-8
        assert C.gauge(w) <= 1 + 1e-9


def _reference_mirror_step(g_hat, w_prev, gamma, C, spec):
    """``mirror_step_constrained`` as first written: each candidate scored by ``bregman``."""
    tol = 1e-8 * gamma * C.diameter_primal(spec.p) ** 2
    gp_prev = grad_phi(w_prev, spec)
    u = inv_grad_phi(gp_prev - g_hat / gamma, spec)
    if C.contains(u, slack=1e-12):
        return u, 0.0

    def value(w):
        return float(g_hat @ w + gamma * bregman(w, w_prev, spec))

    w = C.project(u)
    f_w = value(w)
    eta = 1.0 / (gamma * max(1.0, spec.potential_weight))
    for _ in range(10_000):
        gw = g_hat + gamma * (grad_phi(w, spec) - gp_prev)
        residual = float(gw @ w + C.support(-gw))
        if residual <= tol:
            return w, residual
        for _ in range(60):
            cand = C.project(w - eta * gw)
            f_cand = value(cand)
            if f_cand <= f_w + 0.25 * float(gw @ (cand - w)):
                break
            eta *= 0.5
        else:
            raise AssertionError("reference line search failed")
        w, f_w = cand, f_cand
        eta *= 2.0
    raise AssertionError("reference step did not converge")


# (p, d) -> a seed whose step binds and converges within a few milliseconds;
# at p = 1.2 most draws take seconds or raise NumericError (ROADMAP item 3).
_BINDING_SEEDS = {
    (1.2, 2): 1, (1.2, 6): 25, (1.2, 20): 52,
    (1.5, 2): 1, (1.5, 6): 0, (1.5, 20): 0,
    (1.8, 2): 1, (1.8, 6): 0, (1.8, 20): 0,
}


class TestMirrorStepPins:
    """Computing the w_prev terms once per step leaves every output bit as it was."""

    @pytest.mark.parametrize("p,d", sorted(_BINDING_SEEDS))
    def test_binding_step_same_bits(self, p, d):
        space, C = SpaceSpec(p, d), LpBall(p, 0.3, d)
        rng = np.random.default_rng(_BINDING_SEEDS[p, d])
        w_prev = C.project(rng.standard_normal(d))
        g = rng.standard_normal(d)
        w, res = mirror_step_constrained(g, w_prev, 2.0, C, space)
        w_ref, res_ref = _reference_mirror_step(g, w_prev, 2.0, C, space)
        assert res > 0.0  # the Armijo loop ran
        assert res == res_ref
        assert w.tobytes() == w_ref.tobytes()

    def test_interior_step_same_bits(self):
        space, C = SpaceSpec(1.5, 6), LpBall(1.5, 10.0, 6)
        rng = np.random.default_rng(4)
        w_prev, g = rng.standard_normal(6) * 0.1, rng.standard_normal(6)
        w, res = mirror_step_constrained(g, w_prev, 2.0, C, space)
        w_ref, res_ref = _reference_mirror_step(g, w_prev, 2.0, C, space)
        assert res == res_ref == 0.0
        assert w.tobytes() == w_ref.tobytes()


def _heavy_setup(n=512, d=6, p=1.5, seed=11, huber_delta=20.0, t_scale=3.0):
    space = SpaceSpec(p, d)
    dist = HeavyTailLinear(
        0.3 * np.ones(d) / d ** (1 / space.q), sphere_exponent=space.q, t_scale=t_scale
    )
    data = dist.sample(n, np.random.default_rng(seed))
    loss = PseudoHuberLoss(huber_delta=huber_delta, feature_dual_bound=1.0, norm_p=p)
    C = LpBall(p, 1.0, d)
    return dist, data, loss, C


class TestShuffledTruncatedMD:
    def test_regime_gate(self):
        _, data, loss, C = _heavy_setup(n=1000)
        with pytest.raises(RefusalError) as exc:
            shuffled_truncated_md(
                data, loss, C, PrivacyBudget(0.5, 1e-5), np.random.default_rng(0), T=4
            )
        assert "maximum admissible epsilon" in str(exc.value)

    def test_accepts_high_privacy_regime(self):
        _, data, loss, C = _heavy_setup(n=4096)
        # max admissible eps at n=4096, delta=1e-5: sqrt(ln(4096e5)/4096) ~ 0.0696
        w, info = shuffled_truncated_md(
            data, loss, C, PrivacyBudget(0.01, 1e-5), np.random.default_rng(1), T=4
        )
        assert info["sigma"] > 0
        assert C.gauge(w) <= 1 + 1e-9

    def test_truncation_invariant_and_feasibility(self):
        _, data, loss, C = _heavy_setup(n=1024, huber_delta=8.0)
        w, info = shuffled_truncated_md(
            data, loss, C, PrivacyBudget(0.05, 1e-5), np.random.default_rng(2),
            T=8, lambda_trunc=2.0,
        )
        stats = info["truncation"]
        assert stats.total == 1024
        assert 0 < stats.zeroed < stats.total
        assert C.gauge(w) <= 1 + 1e-9

    def test_zero_noise_matches_plain_batched_reference(self, zero_noise):
        _, data, loss, C = _heavy_setup(n=256, d=4)
        space = SpaceSpec(1.5, 4)
        T, lam = 8, 1e9
        seed = 33
        w, info = shuffled_truncated_md(
            data, loss, C, PrivacyBudget(0.25, 1e-5), zero_noise(seed), T=T, lambda_trunc=lam
        )

        # independent plain one-pass batched mirror descent, matched shuffle
        rng = np.random.default_rng(seed)
        perm = rng.permutation(data.n)
        X, y = data.X[perm], data.y[perm]
        gamma = math.sqrt(T)
        b = data.n // T
        wt = np.zeros(4)
        iterates = []
        for t in range(T):
            lo, hi = t * b, (t + 1) * b if t < T - 1 else data.n
            g = loss.grads(wt, X[lo:hi], y[lo:hi]).mean(axis=0)
            u = inv_grad_phi(grad_phi(wt, space) - g / gamma, space)
            wt = u if C.gauge(u) <= 1 else C.project(u)
            iterates.append(wt)
        ref = np.mean(iterates, axis=0)
        assert info["truncation"].zeroed == 0
        assert np.linalg.norm(w - ref) <= 1e-6

    def test_t_clamped_to_n(self):
        _, data, loss, C = _heavy_setup(n=64)
        with pytest.warns(UserWarning, match="clamping") as caught:
            _, info = shuffled_truncated_md(
                data, loss, C, PrivacyBudget(0.25, 1e-5), np.random.default_rng(8),
                lambda_trunc=1e-6,
            )
        assert info["T"] == 64
        assert [w.filename for w in caught] == [__file__]  # the caller's line, not dpsco's

    def test_deterministic(self):
        _, data, loss, C = _heavy_setup(n=512)
        b = PrivacyBudget(0.01, 1e-5)
        w1, _ = shuffled_truncated_md(data, loss, C, b, np.random.default_rng(9), T=4)
        w2, _ = shuffled_truncated_md(data, loss, C, b, np.random.default_rng(9), T=4)
        np.testing.assert_array_equal(w1, w2)


class TestBatchedTruncatedMD:
    def test_accepts_moderate_epsilon(self):
        _, data, loss, C = _heavy_setup(n=1000)
        w, _ = batched_truncated_md(
            data, loss, C, PrivacyBudget(0.5, 1e-5), np.random.default_rng(3), T=5
        )
        assert C.gauge(w) <= 1 + 1e-9

    def test_noise_scale_inverse_in_batch_size(self):
        _, data, loss, C = _heavy_setup(n=1024)
        b = PrivacyBudget(0.5, 1e-5)
        _, info1 = batched_truncated_md(
            data, loss, C, b, np.random.default_rng(4), T=4, lambda_trunc=4.0
        )
        _, info2 = batched_truncated_md(
            data, loss, C, b, np.random.default_rng(4), T=8, lambda_trunc=4.0
        )
        # batch size halves => sigma doubles
        assert math.sqrt(info2["sigma2_step"] / info1["sigma2_step"]) == pytest.approx(2.0)

    def test_truncation_monotone_in_lambda(self, zero_noise):
        _, data, loss, C = _heavy_setup(n=2048, huber_delta=20.0, t_scale=3.0)
        fracs = []
        for lam in (1.0, 2.0, 4.0, 8.0):
            _, info = batched_truncated_md(
                data, loss, C, PrivacyBudget(0.5, 1e-5), zero_noise(5), T=8, lambda_trunc=lam
            )
            fracs.append(info["truncation"].zeroed_fraction)
        assert all(a > b for a, b in zip(fracs, fracs[1:]))

    def test_single_batch_coincides_with_shuffled(self, zero_noise):
        # T = 1: one batch covers the whole dataset, so the shuffle cannot
        # matter; with the noise off both variants produce the same point.
        _, data, loss, C = _heavy_setup(n=128, d=4)
        opts = dict(T=1, lambda_trunc=5.0)
        b = PrivacyBudget(0.25, 1e-5)  # in the shuffling regime at n = 128
        w1, _ = batched_truncated_md(data, loss, C, b, zero_noise(6), **opts)
        w2, _ = shuffled_truncated_md(data, loss, C, b, zero_noise(7), **opts)
        np.testing.assert_allclose(w1, w2, atol=1e-12)

    def test_t_clamped_to_n(self):
        _, data, loss, C = _heavy_setup(n=64)
        with pytest.warns(UserWarning, match="clamping") as caught:
            _, info = batched_truncated_md(
                data, loss, C, PrivacyBudget(0.5, 1e-5), np.random.default_rng(8),
                lambda_trunc=1e-6,
            )
        assert info["T"] == 64
        assert [w.filename for w in caught] == [__file__]  # the caller's line, not dpsco's


SHARED_INFO = {"T", "lambda_trunc", "threshold", "gamma", "truncation", "max_step_residual"}


class TestTruncatedSolverInfo:
    def test_info_keys(self):
        _, data, loss, C = _heavy_setup(n=128, d=4)
        opts = dict(T=4, lambda_trunc=2.0)
        b = PrivacyBudget(0.25, 1e-5)
        _, shuffled = shuffled_truncated_md(data, loss, C, b, np.random.default_rng(0), **opts)
        _, batched = batched_truncated_md(data, loss, C, b, np.random.default_rng(0), **opts)
        assert set(shuffled) == SHARED_INFO | {"sigma"}
        assert set(batched) == SHARED_INFO | {"sigma2_step"}
        for info in (shuffled, batched):
            assert isinstance(info["truncation"], TruncationStats)
            assert info["truncation"].total == 128

    @pytest.mark.parametrize("solve", [shuffled_truncated_md, batched_truncated_md])
    def test_average_outside_the_set_raises(self, solve, monkeypatch):
        # The shared pass checks its average: a step that leaves C is caught
        # in either solver.
        _, data, loss, C = _heavy_setup(n=128, d=4)
        monkeypatch.setattr(
            mirror, "mirror_step_constrained", lambda g, w, gamma, C, spec: (np.full_like(w, 2.0), 0.0)
        )
        with pytest.raises(AssertionError, match="left the constraint set"):
            solve(
                data, loss, C, PrivacyBudget(0.25, 1e-5), np.random.default_rng(0),
                T=4, lambda_trunc=2.0,
            )

    @pytest.mark.parametrize("solve", [shuffled_truncated_md, batched_truncated_md])
    def test_more_batches_than_rows_refused(self, solve):
        _, data, loss, C = _heavy_setup(n=16, d=4)
        with pytest.raises(ValueError, match="need n >= T"):
            solve(
                data, loss, C, PrivacyBudget(0.5, 1e-5), np.random.default_rng(0),
                T=17, lambda_trunc=2.0,
            )


def _mismatched_setting(name, case):
    """A 4-dimensional problem for ``name`` with its loss declared at p = 2, or with C in d = 20."""
    _, data, loss, C = _heavy_setup(n=64, d=4)
    if name in ("app_objp", "app_objp_sc"):
        data, loss = BallCloud(np.full(4, 0.2)).sample(64, np.random.default_rng(0)), MeanPointLoss()
    if case == "p=2":
        loss = PseudoHuberLoss(huber_delta=20.0, feature_dual_bound=1.0, norm_p=2.0)
    else:
        C = L2Ball(1.0, 20)
    return data, loss, C


class TestSetting:
    # kappa = min{1/(p-1), 2 ln d} calibrates the mirror solvers' noise, and C's
    # width and c_min that of objective perturbation, so p and d are privacy
    # inputs.  p is the loss's norm_p and d is data.d: each mirror solver refuses
    # a loss declared outside 1 < p < 2, and every constrained solver a C of another d.
    @pytest.mark.parametrize(
        "name, case",
        [(name, "p=2") for name in ("noisy_reg_md", "shuffled_truncated_md", "batched_truncated_md")]
        + [(name, "C.d") for name, entry in ALGORITHMS.items() if entry.constrained],
    )
    def test_refused(self, name, case):
        data, loss, C = _mismatched_setting(name, case)
        with pytest.raises(ValueError, match=f"^{name}") as exc:
            ALGORITHMS[name].run(
                getattr(runner, name), data, loss, C, PrivacyBudget(0.25, 1e-5), np.random.default_rng(0)
            )
        reason = "requires 1 < p < 2" if case == "p=2" else "the data's dimension d=4"
        assert reason in str(exc.value)


class TestSolverOptions:
    # Options another solver reads; before they were keyword arguments, a
    # shared config object dropped them without a word.  No solver takes an
    # option that scales its noise or lifts the shuffling regime gate.
    @pytest.mark.parametrize(
        "name, option",
        [
            ("batched_truncated_md", "alpha_reg"),
            ("batched_truncated_md", "bypass_regime_check"),
            ("noisy_reg_md", "gamma"),
            ("noisy_reg_md", "lambda_trunc"),
            ("shuffled_truncated_md", "bypass_regime_check"),
            *((name, "noise_multiplier") for name in sorted(ALGORITHMS)),
        ],
    )
    def test_option_the_solver_does_not_read_raises(self, name, option):
        # Called as a config calls it: the entry and the solver the runner binds to its name.
        _, data, loss, C = _heavy_setup(n=64, d=4)
        with pytest.raises(TypeError, match=option):
            ALGORITHMS[name].run(
                getattr(runner, name), data, loss, C, PrivacyBudget(0.5, 1e-5),
                np.random.default_rng(0), **{option: 1.0},
            )

    @pytest.mark.parametrize(
        "solve, option, value",
        [
            (noisy_reg_md, "T", 0),
            (batched_truncated_md, "T", 2.5),
            (batched_truncated_md, "lambda_trunc", -5.0),
            (shuffled_truncated_md, "lambda_trunc", 0.0),
            (noisy_reg_md, "c_t", 0.0),
        ],
    )
    def test_out_of_range_option_raises(self, solve, option, value):
        _, data, loss, C = _heavy_setup(n=64, d=4)
        sets = () if solve is noisy_reg_md else (C,)
        with pytest.raises(ValueError, match=f"{option} must be"):
            solve(data, loss, *sets, PrivacyBudget(0.5, 1e-5), np.random.default_rng(0),
                  **{option: value})


class TestHighP:
    def test_rejects_low_p(self):
        # The p >= 2 entry is the solver the runner binds to the lipschitz_high_p config name.
        data = Dataset(np.zeros((4, 2)))
        with pytest.raises(ValueError, match=re.escape("norm_p=1.5 < 2")):
            runner.lipschitz_high_p(
                data, QuadLoss(1.5), PrivacyBudget(1.0, 1e-5), np.random.default_rng(0)
            )
