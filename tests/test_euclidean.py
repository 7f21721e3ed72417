import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from dpsco import euclidean
from dpsco.bench import ExperimentConfig
from dpsco.errors import NumericError, RefusalError
from dpsco.euclidean import (
    SmoothObjective,
    _advance,
    _solve_with_surrogate,
    _v_fista,
    app_objp,
    app_objp_sc,
    inner_iteration_count,
    inner_solve,
    phased_dp_sgd,
)
from dpsco.mechanisms import PrivacyBudget
from dpsco.problems import (
    BallCloud,
    Dataset,
    L1Ball,
    L2Ball,
    LogisticLoss,
    LogisticSphere,
    MeanPointLoss,
    empirical_risk,
)
from test_acceptance import CONVEX_TREND_DOC
from test_mirror import QuadLoss

HUGE_EPS = PrivacyBudget(1e6, 1e-5)


@dataclass
class _ValuedObjective(SmoothObjective):
    """A test objective that also evaluates itself, so a test can measure a value gap."""

    value: callable = None


def _quadratic(center):
    c = np.asarray(center, dtype=float)
    return _ValuedObjective(
        value=lambda w: 0.5 * float((w - c) @ (w - c)),
        grad=lambda w: w - c,
        smoothness=1.0,
        strong_convexity=1.0,
    )


class TestInnerSolve:
    def test_quadratic_recovers_center(self):
        C = L2Ball(1.0, 3)
        center = np.array([0.3, -0.2, 0.1])
        alpha = 1e-8
        w = inner_solve(_quadratic(center), C, alpha, np.zeros(3))
        # strong-convexity conversion: ||w - c|| <= sqrt(2 alpha / lam)
        assert np.linalg.norm(w - center) <= math.sqrt(2 * alpha)

    def test_ridge_logistic_matches_reference(self):
        rng = np.random.default_rng(0)
        dist = LogisticSphere(np.array([0.6, -0.4]))
        data = dist.sample(200, rng)
        loss = LogisticLoss()
        lam = 0.05

        def f(w):
            return empirical_risk(w, data, loss) + lam * float(w @ w)

        def g(w):
            return loss.grads(w, data.X, data.y).mean(axis=0) + 2 * lam * w

        ref = optimize.minimize(f, np.zeros(2), jac=g, method="BFGS", tol=1e-14).x
        assert np.linalg.norm(ref) < 1.0  # interior, so constrained == unconstrained

        obj = SmoothObjective(grad=g, smoothness=loss.smoothness + 2 * lam, strong_convexity=2 * lam)
        w = inner_solve(obj, L2Ball(1.0, 2), 1e-12, np.zeros(2))
        assert np.linalg.norm(w - ref) <= 1e-5

    def test_start_at_optimum_keeps_value(self):
        C = L2Ball(1.0, 2)
        center = np.array([0.2, 0.2])
        obj = _quadratic(center)
        w = inner_solve(obj, C, 1e-6, center)
        assert obj.value(w) <= obj.value(center) + 1e-12

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            inner_solve(_quadratic([0.0]), L2Ball(1.0, 1), 0.0, np.zeros(1))


def _random_quadratic(rng, d, kappa):
    """0.5 (w - c)' A (w - c) with the eigenvalues of A spread over [beta / kappa, beta]."""
    beta = rng.uniform(0.5, 5.0)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A = (Q * np.geomspace(beta / kappa, beta, d)) @ Q.T
    c = rng.standard_normal(d)
    c *= rng.uniform(0.0, 3.0) / np.linalg.norm(c)  # outside the unit ball about half the time
    return _ValuedObjective(
        value=lambda w: 0.5 * float((w - c) @ A @ (w - c)),
        grad=lambda w: A @ (w - c),
        smoothness=beta,
        strong_convexity=beta / kappa,
    )


def _pgd_count(obj, C, alpha):
    """Certified count of plain projected gradient: ceil(kappa ln(beta ||C||^2 / 2 alpha))."""
    kappa = obj.smoothness / obj.strong_convexity
    return math.ceil(kappa * math.log(obj.smoothness * C.diameter_primal(2.0) ** 2 / (2.0 * alpha)))


class TestCertificate:
    @pytest.mark.parametrize("make_set", [L2Ball, L1Ball])
    @pytest.mark.parametrize("kappa", [1.0, 4.0, 100.0, 1e4])
    def test_value_gap_at_the_count(self, kappa, make_set):
        rng = np.random.default_rng(int(kappa) + len(make_set.__name__))
        for d, alpha in ((2, 1e-3), (9, 1e-6), (20, 1e-9)):
            C = make_set(1.0, d)
            obj = _random_quadratic(rng, d, kappa)
            start = C.project(4.0 * rng.standard_normal(d)) * rng.uniform()  # anywhere in C
            k = inner_iteration_count(obj, C, alpha)
            w = inner_solve(obj, C, alpha, start)
            reference = _advance(_v_fista(obj, C, start), 20 * k, None)
            assert C.gauge(w) <= 1.0 + 1e-12
            assert obj.value(w) - obj.value(reference) <= alpha

    @settings(max_examples=200, deadline=None)
    @given(
        kappa=st.floats(4.0, 1e4),
        beta=st.floats(0.1, 10.0),
        radius=st.floats(0.5, 10.0),
        alpha=st.floats(1e-12, 1e-3),
    )
    def test_count_below_projected_gradient(self, kappa, beta, radius, alpha):
        obj = SmoothObjective(grad=None, smoothness=beta, strong_convexity=beta / kappa)
        C = L2Ball(radius, 3)
        assert inner_iteration_count(obj, C, alpha) < _pgd_count(obj, C, alpha)

    def test_count_grows_with_sqrt_kappa(self):
        C = L2Ball(1.0, 3)
        counts = [
            inner_iteration_count(SmoothObjective(None, 1.0, 1.0 / kappa), C, 1e-6)
            for kappa in (1.0, 100.0, 1e4)
        ]
        log_arg = math.log(4.0 / 2e-6)
        assert counts == [1 + math.ceil(math.sqrt(k) * log_arg) for k in (1.0, 100.0, 1e4)]

    def test_bad_constants_rejected(self):
        with pytest.raises(ValueError, match="strongly convex"):
            inner_iteration_count(SmoothObjective(None, 1.0, 0.0), L2Ball(1.0, 2), 1e-6)
        with pytest.raises(ValueError, match="alpha"):
            inner_iteration_count(_quadratic([0.0, 0.0]), L2Ball(1.0, 2), -1.0)


def _inner_constants(loss, lam):
    """Curvature constants of the perturbed objective handed to the inner loop."""
    return SmoothObjective(
        grad=None,
        smoothness=loss.smoothness + 2.0 * lam,
        strong_convexity=loss.strong_convexity + 2.0 * lam,
    )


_OBJP_INFO = {"lam", "alpha", "sigma1", "sigma2", "width", "inner_iters", "surrogate_iters"}
_RELEASE_INFO = {"release_distance", "release_bound"}


class TestReleaseDistance:
    def test_distance_past_the_bound_is_a_numeric_error(self):
        obj = _random_quadratic(np.random.default_rng(3), 5, 100.0)
        with pytest.raises(NumericError, match="exceeds certified bound 0.000e") as exc:
            _solve_with_surrogate(obj, L2Ball(1.0, 5), 1e-6, np.zeros(5), release_bound=0.0)
        assert exc.value.residual > 0.0


class TestInnerCounts:
    def test_criterion_07_config_at_largest_n(self):
        cfg = ExperimentConfig.from_dict(CONVEX_TREND_DOC)
        loss, dist, C = cfg.components
        n = max(cfg.n_grid)
        data = dist.sample(n, np.random.default_rng(7))
        budget = PrivacyBudget(cfg.eps_grid[0], cfg.delta)
        _, info = app_objp(data, loss, C, budget, np.random.default_rng(8))
        assert set(info) == _OBJP_INFO | _RELEASE_INFO
        assert info["release_distance"] <= info["release_bound"]
        obj = _inner_constants(loss, info["lam"])
        k = inner_iteration_count(obj, C, info["alpha"])
        assert info["inner_iters"] == k < _pgd_count(obj, C, info["alpha"]) / 8
        assert info["surrogate_iters"] == inner_iteration_count(obj, C, info["alpha"] / 100) - k

    @pytest.mark.parametrize("solver, own_keys", [(app_objp, set()), (app_objp_sc, {"delta_c"})])
    def test_info_records_the_counts(self, solver, own_keys):
        data, loss, C, _ = _mean_point_setup(n=512)
        _, info = solver(data, loss, C, PrivacyBudget(1.0, 1e-5), np.random.default_rng(12))
        assert set(info) == _OBJP_INFO | own_keys | _RELEASE_INFO
        obj = _inner_constants(loss, info["lam"])
        k = inner_iteration_count(obj, C, info["alpha"])
        assert info["inner_iters"] == k
        assert info["surrogate_iters"] == inner_iteration_count(obj, C, info["alpha"] / 100) - k


def _mean_point_setup(n=64, d=5, seed=1, spread=0.5, mu_scale=0.4):
    rng = np.random.default_rng(seed)
    mu = mu_scale * np.ones(d) / math.sqrt(d)
    dist = BallCloud(mu, spread=spread)
    data = dist.sample(n, rng)
    loss = MeanPointLoss(domain_radius=dist.feature_radius(), constraint_radius=1.0)
    return data, loss, L2Ball(1.0, d), dist


class TestAppObjP:
    def test_zero_noise_matches_ridge_erm(self):
        # n copies of one point: ridge minimizer is x0 / (1 + 2 lam) for the
        # J(theta) = risk + lam ||theta||^2 objective used here.
        d = 4
        x0 = 0.5 * np.ones(d) / math.sqrt(d)
        data = Dataset(np.tile(x0, (32, 1)))
        loss = MeanPointLoss()
        C = L2Ball(1.0, d)
        w, info = app_objp(data, loss, C, HUGE_EPS, np.random.default_rng(2), alpha_opt=1e-10)
        expected = x0 / (1.0 + 2.0 * info["lam"])
        assert np.linalg.norm(w - expected) <= 1e-3

    def test_matches_direct_solver_at_tiny_alpha(self, zero_noise):
        data, loss, C, _ = _mean_point_setup()
        w, info = app_objp(data, loss, C, HUGE_EPS, zero_noise(3), alpha_opt=1e-10)
        lam = info["lam"]
        direct = data.X.mean(axis=0) / (1.0 + 2.0 * lam)
        direct = C.project(direct)
        assert np.linalg.norm(w - direct) <= 1e-4

    def test_output_feasible(self):
        data, loss, C, _ = _mean_point_setup()
        w, _ = app_objp(data, loss, C, PrivacyBudget(1.0, 1e-5), np.random.default_rng(4))
        assert C.gauge(w) <= 1.0 + 1e-9

    def test_deterministic(self):
        data, loss, C, _ = _mean_point_setup()
        budget = PrivacyBudget(1.0, 1e-5)
        w1, _ = app_objp(data, loss, C, budget, np.random.default_rng(5))
        w2, _ = app_objp(data, loss, C, budget, np.random.default_rng(5))
        np.testing.assert_array_equal(w1, w2)

    def test_width_is_drawn_once_per_set_and_not_stored_on_it(self, monkeypatch):
        # Two solves with one C make one width draw, cached by C, and leave C as built.
        draws = []

        def counted(*args):
            draws.append(args)
            return width_mc(*args)

        width_mc = euclidean.gaussian_width_mc
        monkeypatch.setattr(euclidean, "gaussian_width_mc", counted)
        data, loss, C, _ = _mean_point_setup()
        built = dict(vars(C))
        budget = PrivacyBudget(1.0, 1e-5)
        w1, _ = app_objp(data, loss, C, budget, np.random.default_rng(5))
        w2, _ = app_objp(data, loss, C, budget, np.random.default_rng(5))
        assert len(draws) == 1 and draws[0][0] is C
        assert vars(C) == built
        np.testing.assert_array_equal(w1, w2)

    def test_smoothness_refusal(self):
        data, loss, C, _ = _mean_point_setup(n=8)
        with pytest.raises(RefusalError) as exc:
            app_objp(data, loss, C, PrivacyBudget(0.1, 1e-5), np.random.default_rng(6), lambda_reg=1e-6)
        assert exc.value.requirement is not None  # names the minimum n

    @pytest.mark.parametrize("solver", [app_objp, app_objp_sc])
    def test_refusal_names_the_n_that_runs(self, solver):
        # With an explicit ridge the precondition is n >= r beta / (eps * curvature):
        # 5 / (0.1 * 1e-3) = 50 000 for the convex solver, 5 / (0.1 * 1.001) for the
        # strongly convex one.
        budget = PrivacyBudget(0.1, 1e-5)
        data, loss, C, _ = _mean_point_setup(n=8)
        with pytest.raises(RefusalError) as exc:
            solver(data, loss, C, budget, np.random.default_rng(6), lambda_reg=1e-3)
        n_min = exc.value.requirement
        assert f"need n >= {n_min}" in str(exc.value)
        data, _, _, _ = _mean_point_setup(n=n_min)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # below the utility regime; privacy holds
            w, _ = solver(data, loss, C, budget, np.random.default_rng(6), lambda_reg=1e-3)
        assert C.contains(w)

    def test_release_distance_assertion_runs(self):
        data, loss, C, _ = _mean_point_setup()
        _, info = app_objp(data, loss, C, PrivacyBudget(1.0, 1e-5), np.random.default_rng(7))
        assert info["release_distance"] <= info["release_bound"]


class TestAppObjPSC:
    def test_small_n_warnings_name_the_caller(self):
        data, loss, C, _ = _mean_point_setup(n=16)
        with pytest.warns(UserWarning, match="large-n regime") as caught:
            app_objp_sc(data, loss, C, PrivacyBudget(0.5, 1e-5), np.random.default_rng(3))
        assert {w.filename for w in caught} == {__file__}

    def test_lambda_zero_branch(self):
        data, loss, C, _ = _mean_point_setup(n=512)
        _, info = app_objp_sc(data, loss, C, PrivacyBudget(1.0, 1e-5), np.random.default_rng(8))
        # r * beta / (eps n) = 5/512 < Delta = 1, so no ridge is added
        assert info["lam"] == 0.0

    def test_zero_noise_projected_mean(self):
        data, loss, C, _ = _mean_point_setup(n=256)
        w, _ = app_objp_sc(data, loss, C, HUGE_EPS, np.random.default_rng(9), alpha_opt=1e-10)
        assert np.linalg.norm(w - C.project(data.X.mean(axis=0))) <= 1e-4

    def test_sigma2_scales_with_diameter(self):
        data, loss, _, _ = _mean_point_setup(n=256)
        budget = PrivacyBudget(0.5, 1e-5)
        _, small = app_objp_sc(
            data, loss, L2Ball(1.0, 5), budget, np.random.default_rng(10), alpha_opt=1e-8
        )
        _, big = app_objp_sc(
            data, loss, L2Ball(math.sqrt(2.0), 5), budget, np.random.default_rng(10), alpha_opt=1e-8
        )
        # sigma2^2 formula carries ||C||_2^2 / Delta_C; for balls this doubles
        # when the squared diameter doubles and Delta_C follows c_min^2.
        ratio = (big["sigma2"] / small["sigma2"]) ** 2
        assert ratio == pytest.approx(2.0 * small["delta_c"] / big["delta_c"], rel=1e-12)

    def test_requires_strong_convexity(self):
        data, _, C, _ = _mean_point_setup()
        with pytest.raises(ValueError):
            app_objp_sc(data, LogisticLoss(), C, PrivacyBudget(1.0, 1e-5), np.random.default_rng(11))


class TestOptionRanges:
    @pytest.mark.parametrize("solver", [app_objp, app_objp_sc])
    @pytest.mark.parametrize(
        "option, value",
        [("alpha_opt", 2.0), ("alpha_opt", 0.0), ("lambda_reg", -0.5)],
    )
    def test_out_of_range_option_raises(self, solver, option, value):
        data, loss, C, _ = _mean_point_setup()
        with pytest.raises(ValueError, match=re.escape(f"{option} must be")):
            solver(data, loss, C, PrivacyBudget(1.0, 1e-5), np.random.default_rng(0), **{option: value})

    def test_zero_ridge_runs_on_the_loss_curvature_alone(self):
        # lambda_reg = 0 is in range: app_objp_sc runs on Delta, and app_objp,
        # which then has no curvature, refuses it as a privacy precondition.
        data, loss, C, _ = _mean_point_setup(n=512)
        budget = PrivacyBudget(1.0, 1e-5)
        _, info = app_objp_sc(data, loss, C, budget, np.random.default_rng(1), lambda_reg=0.0)
        assert info["lam"] == 0.0
        with pytest.raises(RefusalError, match="need n >= inf"):
            app_objp(data, loss, C, budget, np.random.default_rng(1), lambda_reg=0.0)


def _lp_feature_setup():
    """Logistic data on the unit l3 sphere in d = 20, with the loss declared in
    ||.||_1.5: the feature bound 1 holds for ||z||_3, not for ||z||_2."""
    dist = LogisticSphere(np.full(20, 0.1), sphere_exponent=3.0, radius=1.0)
    data = dist.sample(4096, np.random.default_rng(3))
    return data, LogisticLoss(feature_dual_bound=1.0, norm_p=1.5)


class TestL2Constants:
    """The Euclidean solvers calibrate noise to L and beta as l2 constants,
    which a loss declared in ||.||_p with p < 2 does not certify."""

    def test_lp_bound_is_not_an_l2_bound(self):
        data, loss = _lp_feature_setup()
        assert np.linalg.norm(data.X, axis=1).max() > 1.5 * loss.lipschitz

    @pytest.mark.parametrize("solver", [app_objp, phased_dp_sgd])
    def test_loss_declared_below_p_2_is_refused(self, solver):
        data, loss = _lp_feature_setup()
        args = (data, loss, L2Ball(1.0, data.d)) if solver is app_objp else (data, loss)
        with pytest.raises(ValueError, match=re.escape("norm_p=1.5 < 2")):
            solver(*args, PrivacyBudget(1.0, 1e-5), np.random.default_rng(0))

    def test_strongly_convex_loss_declared_below_p_2_is_refused(self):
        data, loss, C, _ = _mean_point_setup()
        loss.norm_p = 1.5
        with pytest.raises(ValueError, match=re.escape("norm_p=1.5 < 2")):
            app_objp_sc(data, loss, C, PrivacyBudget(1.0, 1e-5), np.random.default_rng(0))


class TestPhasedSGD:
    def test_shard_sizes(self):
        rng = np.random.default_rng(12)
        data = Dataset(rng.standard_normal((100, 1)) * 0.1)
        loss = MeanPointLoss(domain_radius=1.0, constraint_radius=0.0)
        _, info = phased_dp_sgd(data, loss, HUGE_EPS, rng)
        assert info["shard_sizes"] == [50, 25, 12, 6, 3, 1, 0]

    def test_noise_ratio_geometric(self):
        # sigma_i = 4 L eta_i sqrt(log(1/delta)) / eps with eta_i = 4^-i eta
        b = PrivacyBudget(1.0, 1e-5)
        eta = 0.1
        sig = [4.0 * 1.0 * eta * 4.0**-i * math.sqrt(math.log(1e5)) / b.epsilon for i in (1, 2, 3)]
        assert sig[1] / sig[0] == pytest.approx(0.25)
        assert sig[2] / sig[1] == pytest.approx(0.25)

    def test_zero_noise_matches_reference_one_pass(self, zero_noise):
        # 1-D quadratic: matched-seed run with the noise turned off must
        # land within O(1/sqrt(n)) of the population minimizer.
        rng = np.random.default_rng(13)
        dist = BallCloud(np.array([0.5]), spread=0.5)
        data = dist.sample(512, rng)
        loss = MeanPointLoss(domain_radius=1.0, constraint_radius=1.0)
        w, _ = phased_dp_sgd(data, loss, HUGE_EPS, np.random.default_rng(0))
        ref, _ = phased_dp_sgd(data, loss, HUGE_EPS, zero_noise(0))
        assert abs(w[0] - ref[0]) <= 1e-3
        assert abs(ref[0] - 0.5) <= 3.0 / math.sqrt(512)

    def test_eta_cap_refusal(self):
        # L = 8 and beta = 16: at n = 16 the scheduled step 4 / (L sqrt(n)) = 1/8
        # exceeds 1/beta, and 16 beta^2 / L^2 = 64 rows would be needed.
        rng = np.random.default_rng(14)
        data = LogisticSphere(np.full(2, 0.5)).sample(16, rng)
        loss = LogisticLoss(feature_dual_bound=8.0)
        with pytest.raises(RefusalError, match=re.escape("step size 0.125 exceeds 1/beta=0.0625")) as exc:
            phased_dp_sgd(data, loss, PrivacyBudget(1e6, 1e-5), rng)
        assert exc.value.requirement == 64

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        dist = BallCloud(np.zeros(3))
        data = dist.sample(128, rng)
        loss = MeanPointLoss()
        b = PrivacyBudget(0.5, 1e-5)
        w1, _ = phased_dp_sgd(data, loss, b, np.random.default_rng(21))
        w2, _ = phased_dp_sgd(data, loss, b, np.random.default_rng(21))
        np.testing.assert_array_equal(w1, w2)


class TestHighP:
    """phased_dp_sgd is also the solver for 2 <= p <= inf: constants declared
    in ||.||_p with p >= 2 hold in l2 as they stand."""

    @pytest.mark.parametrize("p", [3.0, math.inf])
    def test_zero_noise_matches_reference(self, p, zero_noise):
        rng = np.random.default_rng(14)
        data = Dataset(rng.standard_normal((256, 2)) * 0.3)
        loss = QuadLoss(p)
        w, _ = phased_dp_sgd(data, loss, HUGE_EPS, np.random.default_rng(15))
        ref, _ = phased_dp_sgd(data, loss, HUGE_EPS, zero_noise(15))
        assert np.linalg.norm(w - ref) <= 1e-3
