import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from dpsco.errors import ConfigError
from dpsco.problems import (
    L1Ball,
    BallCloud,
    Dataset,
    HeavyTailLinear,
    L2Ball,
    LogisticLoss,
    LpBall,
    LogisticSphere,
    MeanPointLoss,
    PseudoHuberLoss,
    chi_mean,
    empirical_grad,
    empirical_risk,
    excess_population_risk,
    gaussian_width_mc,
    max_abs_gaussian_mean,
)
from dpsco.problems.distributions import _student_t_pdf
from dpsco.problems.losses import _expit
from dpsco.spaces import lp_norm


def _fd_grad(loss, w, x, y=None, h=1e-6):
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (loss.value(w + e, x, y) - loss.value(w - e, x, y)) / (2 * h)
    return g


class TestEmpirical:
    def test_single_sample(self):
        loss = MeanPointLoss()
        data = Dataset(np.array([[1.0, 0.0]]))
        w = np.zeros(2)
        assert empirical_risk(w, data, loss) == pytest.approx(loss.value(w, data.X[0]))

    def test_mean_is_minimizer(self):
        loss = MeanPointLoss()
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((50, 3)))
        xbar = data.X.mean(axis=0)
        np.testing.assert_allclose(empirical_grad(xbar, data, loss), np.zeros(3), atol=1e-12)

    def test_hand_arithmetic(self):
        loss = MeanPointLoss()
        data = Dataset(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert empirical_risk(np.zeros(2), data, loss) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)))


class TestGradientConsistency:
    @pytest.mark.parametrize(
        "loss,labeled",
        [
            (LogisticLoss(), True),
            (MeanPointLoss(), False),
            (PseudoHuberLoss(huber_delta=2.0), True),
        ],
    )
    def test_finite_differences(self, loss, labeled):
        rng = np.random.default_rng(1)
        for _ in range(25):
            w = rng.standard_normal(6)
            x = rng.standard_normal(6)
            y = float(rng.choice([-1.0, 1.0])) if labeled else None
            fd = _fd_grad(loss, w, x, y)
            np.testing.assert_allclose(loss.gradient(w, x, y), fd, rtol=1e-5, atol=1e-7)


def _loss_case(name, n, d, w_norm, seed):
    """A shipped loss with matching data and a w of l2 norm ``w_norm``; for the
    logistic loss the rows lie on the unit sphere, so the margins reach w_norm."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.choice([-1.0, 1.0], size=n)
    w = rng.standard_normal(d)
    w *= w_norm / np.linalg.norm(w)
    if name == "logistic":
        return LogisticLoss(), w, X / np.linalg.norm(X, axis=1, keepdims=True), y
    if name == "mean_point":
        return MeanPointLoss(), w, X, None
    return PseudoHuberLoss(huber_delta=2.0), w, X, 3.0 * y


_LOSS_NAMES = ("logistic", "mean_point", "pseudo_huber")


class TestMeanGradient:
    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(_LOSS_NAMES),
        n=st.integers(1, 64),
        d=st.integers(1, 12),
        w_norm=st.floats(0.0, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mean_matches_per_sample_mean(self, name, n, d, w_norm, seed):
        loss, w, X, y = _loss_case(name, n, d, w_norm, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow at margins up to 1e3
            per_sample = loss.grads(w, X, y)
            mean = loss.grads(w, X, y, mean=True)
        assert per_sample.shape == (n, d) and mean.shape == (d,)
        scale = max(1.0, float(np.abs(per_sample).max()))
        np.testing.assert_allclose(mean, per_sample.mean(axis=0), rtol=0.0, atol=1e-12 * scale)

    @pytest.mark.parametrize("name", _LOSS_NAMES)
    def test_empirical_grad_is_one_full_batch_call(self, name, monkeypatch):
        # One grads call on the whole X per empirical gradient, with X passed
        # positionally: a profiler wrapping grads counts rows from that argument.
        loss, w, X, y = _loss_case(name, 40, 5, 2.0, 0)
        data = Dataset(X, y)
        calls = []
        original = type(loss).grads

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(type(loss), "grads", spy)
        g = empirical_grad(w, data, loss)
        assert len(calls) == 1
        args, kwargs = calls[0]
        assert args[2] is data.X and kwargs == {"mean": True}
        np.testing.assert_allclose(g, original(loss, w, X, y).mean(axis=0), rtol=0.0, atol=1e-12)

    def test_mean_point_follows_each_dataset(self):
        # The column mean of a dataset is kept between solver steps; another
        # dataset, or a writable array that changed, must not see a stale one.
        loss = MeanPointLoss()
        rng = np.random.default_rng(5)
        a, b = (Dataset(rng.standard_normal((30, 4))) for _ in range(2))
        w = rng.standard_normal(4)
        for data in (a, b, a):
            np.testing.assert_array_equal(empirical_grad(w, data, loss), w - data.X.mean(axis=0))
        X = rng.standard_normal((30, 4))
        first = loss.grads(w, X, mean=True)
        X += 1.0
        np.testing.assert_allclose(loss.grads(w, X, mean=True), first - 1.0, rtol=0.0, atol=1e-12)

    def test_dataset_rows_are_read_only(self):
        X = np.ones((3, 2))
        data = Dataset(X)
        with pytest.raises(ValueError):
            data.X[0, 0] = 2.0
        assert X.flags.writeable  # the caller's own array is not locked


class TestDeclaredConstants:
    def test_logistic_gradient_bound(self):
        loss = LogisticLoss(feature_dual_bound=1.0)
        dist = LogisticSphere(np.array([0.5, 0.3, -0.2, 0.1]))
        rng = np.random.default_rng(2)
        data = dist.sample(500, rng)
        for w in (np.zeros(4), rng.standard_normal(4)):
            grads = loss.grads(w, data.X, data.y)
            assert lp_norm(grads, 2, axis=-1).max() <= loss.lipschitz + 1e-12

    def test_logistic_smoothness_ratio(self):
        loss = LogisticLoss(feature_dual_bound=1.0)
        dist = LogisticSphere(np.array([0.5, 0.3, -0.2, 0.1]))
        rng = np.random.default_rng(3)
        data = dist.sample(100, rng)
        for _ in range(50):
            w1 = rng.standard_normal(4)
            w2 = rng.standard_normal(4)
            dg = loss.grads(w1, data.X, data.y) - loss.grads(w2, data.X, data.y)
            ratio = lp_norm(dg, 2, axis=-1).max() / np.linalg.norm(w1 - w2)
            assert ratio <= loss.smoothness * (1 + 1e-6)

    def test_heavy_tail_sigma_bound(self):
        loss = PseudoHuberLoss(huber_delta=2.0, feature_dual_bound=1.0, norm_p=1.5)
        dist = HeavyTailLinear(np.array([0.5, -0.5, 0.2]), sphere_exponent=3.0)
        rng = np.random.default_rng(4)
        data = dist.sample(20_000, rng)
        sigma_sq = dist.sigma_sq_bound(loss.huber_delta)
        w = np.array([0.1, 0.2, -0.3])
        grads = loss.grads(w, data.X, data.y)
        noise = grads - grads.mean(axis=0)
        emp = float((lp_norm(noise, 3.0, axis=-1) ** 2).mean())
        assert emp <= sigma_sq

    def test_rank_bound(self):
        assert LogisticLoss().rank_bound(20) == 2
        assert MeanPointLoss().rank_bound(20) == 20


class TestNumpyReplacements:
    """The numpy/math forms the package uses in place of scipy's."""

    def test_expit_matches_scipy(self):
        x = np.linspace(-40.0, 40.0, 100_001)
        np.testing.assert_allclose(_expit(x), special.expit(x), rtol=1e-15, atol=0.0)

    def test_expit_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _expit(np.array([-1e3, 1e3]))
        assert out[0] == 0.0 and out[1] == 1.0

    @pytest.mark.parametrize("dof", [2.5, 3.0, 12.0])
    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
    def test_student_t_pdf_matches_scipy(self, dof, scale):
        r = np.linspace(-40.0, 40.0, 401)
        ours = [_student_t_pdf(float(x), dof, scale) for x in r]
        np.testing.assert_allclose(ours, stats.t(dof, scale=scale).pdf(r), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("t_dof,t_scale,huber_delta", [(3.0, 1.0, 20.0), (2.5, 0.3, 2.0), (12.0, 3.0, 5.0)])
    def test_heavy_tail_risk_at_minimizer_matches_scipy(self, t_dof, t_scale, huber_delta):
        dist = HeavyTailLinear(np.array([0.3, -0.1, 0.2]), sphere_exponent=3.0, t_dof=t_dof, t_scale=t_scale)
        loss = PseudoHuberLoss(huber_delta=huber_delta)
        dens = stats.t(t_dof, scale=t_scale).pdf

        def f(r):
            return huber_delta**2 * (math.sqrt(1.0 + (r / huber_delta) ** 2) - 1.0) * dens(r)

        ref, _ = integrate.quad(f, -np.inf, np.inf, limit=200)
        assert dist.population_risk(dist.w_star, loss) == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert dist.population_risk(dist.w_star + 0.1, loss) is None


class TestDatasetCsv:
    def test_deterministic_generation(self):
        dist = BallCloud(np.zeros(3))
        a = dist.sample(10, np.random.default_rng(42))
        b = dist.sample(10, np.random.default_rng(42))
        np.testing.assert_array_equal(a.X, b.X)


class TestPopulationRisk:
    def test_oracle_at_minimizer(self):
        dist = BallCloud(np.array([0.2, -0.1]), spread=1.0)
        assert dist.population_risk(dist.true_minimizer) == pytest.approx(0.5 * dist.trace_cov)

    def test_mc_matches_oracle(self):
        dist = BallCloud(np.array([0.2, -0.1, 0.3]), spread=0.7)
        loss = MeanPointLoss()
        w = np.array([0.1, 0.1, 0.1])
        oracle = dist.population_risk(w)
        rng = np.random.default_rng(6)
        sample = dist.sample(100_000, rng)
        vals = loss.values(w, sample.X)
        mc = float(vals.mean())
        se = float(vals.std() / math.sqrt(vals.size))
        assert abs(mc - oracle) <= 3 * se

    def test_excess_at_minimizer_is_zero(self):
        dist = BallCloud(np.array([0.2, -0.1]))
        loss = MeanPointLoss()
        excess, _ = excess_population_risk(dist.true_minimizer, dist, loss)
        assert excess == pytest.approx(0.0, abs=1e-15)

    def test_excess_policies(self):
        # "mc" samples even where a closed form exists; "auto" takes it.
        dist = BallCloud(np.array([0.2, -0.1, 0.3]), spread=0.7)
        loss = MeanPointLoss()
        w = np.array([0.1, 0.1, 0.1])
        oracle, oracle_se = excess_population_risk(w, dist, loss, policy="oracle")
        auto = excess_population_risk(w, dist, loss, policy="auto")
        mc, se = excess_population_risk(w, dist, loss, m_eval=20_000, rng=np.random.default_rng(6), policy="mc")
        assert oracle_se == 0.0 and auto == (oracle, 0.0)
        assert se > 0.0 and mc != oracle
        assert abs(mc - oracle) <= 4 * se

    def test_excess_with_constraint(self):
        dist = BallCloud(np.array([0.5, 0.0]))
        loss = MeanPointLoss()
        C = L2Ball(1.0, 2)
        excess, _ = excess_population_risk(np.array([0.5, 0.0]), dist, loss, C)
        assert excess == pytest.approx(0.0, abs=1e-15)


class TestGaussianWidth:
    def test_l2_ball_closed_form(self):
        # E ||xi||_2 in d=2: sqrt(2) Gamma(3/2) / Gamma(1) = sqrt(pi/2)
        assert chi_mean(2) == pytest.approx(math.sqrt(math.pi / 2.0))
        # Against scipy's gammaln; exp turns the rounding of log-gammas near
        # 400 (d = 200) into a relative error of about 1e-13.
        for d in (1, 5, 20, 200):
            ref = math.sqrt(2.0) * math.exp(special.gammaln((d + 1) / 2.0) - special.gammaln(d / 2.0))
            assert chi_mean(d) == pytest.approx(ref, rel=1e-12)
        C = L2Ball(1.0, 2)
        est, se = gaussian_width_mc(C, 100_000, np.random.default_rng(7))
        assert abs(est - chi_mean(2)) <= 3 * se

    def test_homogeneity(self):
        C1 = L2Ball(1.0, 5)
        C2 = L2Ball(2.0, 5)
        e1, _ = gaussian_width_mc(C1, 50_000, np.random.default_rng(8))
        e2, _ = gaussian_width_mc(C2, 50_000, np.random.default_rng(8))
        assert e2 == pytest.approx(2 * e1, rel=1e-12)

    def test_l1_ball_quadrature_oracle(self):
        d = 100
        oracle = max_abs_gaussian_mean(d)
        est, se = gaussian_width_mc(L1Ball(1.0, d), 100_000, np.random.default_rng(9))
        assert abs(est - oracle) <= 3 * se


class TestReferenceBaseline:
    def test_unknown_minimizer_is_a_config_error(self):
        class NoOptimumCloud(BallCloud):
            true_minimizer = None

        dist = NoOptimumCloud(np.array([0.3, -0.2]), spread=0.5)
        with pytest.raises(ConfigError, match="no known population minimizer"):
            excess_population_risk(np.zeros(2), dist, MeanPointLoss(), rng=np.random.default_rng(0))

    def test_minimizer_outside_the_set_is_a_config_error(self):
        # ||w_star||_1.5 = 0.5 * 12^(1/3) > 1: projecting w_star onto the ball
        # is not the constrained optimum of the regression loss.
        d, p = 12, 1.5
        dist = HeavyTailLinear(0.5 * np.ones(d) / d ** (1.0 / 3.0), sphere_exponent=3.0)
        loss = PseudoHuberLoss(huber_delta=10.0, norm_p=p)
        with pytest.raises(ConfigError, match="outside the constraint set"):
            excess_population_risk(
                np.zeros(d), dist, loss, LpBall(p, 1.0, d), m_eval=100, rng=np.random.default_rng(0)
            )

    def test_mean_point_minimizer_is_projected(self):
        # For the quadratic point loss the projected mean is the constrained optimum.
        dist = BallCloud(np.array([2.0, 0.0]))
        excess, se = excess_population_risk(np.array([1.0, 0.0]), dist, MeanPointLoss(), L2Ball(1.0, 2))
        assert se == 0.0
        assert excess == pytest.approx(0.0, abs=1e-15)
