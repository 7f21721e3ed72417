import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from dpsco.errors import ConfigError
from dpsco.mechanisms import _BLOCK_ENTRIES, row_blocks, sample_lr_sphere
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
from dpsco.problems.losses import _expit, _linear_grads, _row_products
from dpsco.spaces import lp_norm
from conftest import peak_bytes
from test_mechanisms import _block_rows

SRC = Path(__file__).resolve().parent.parent / "src"


def _fd_grad(loss, w, x, y=None, h=1e-6):
    X, Y = x[None], None if y is None else np.array([y])  # one row is a one-row block
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (loss.values(w + e, X, Y)[0] - loss.values(w - e, X, Y)[0]) / (2 * h)
    return g


class TestEmpirical:
    def test_single_sample(self):
        loss = MeanPointLoss()
        data = Dataset(np.array([[1.0, 0.0]]))
        w = np.zeros(2)
        assert empirical_risk(w, data, loss) == pytest.approx(loss.values(w, data.X[:1])[0])

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
            grad = loss.grads(w, x[None], None if y is None else np.array([y]))[0]
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


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

    @pytest.mark.parametrize("name", ["logistic", "pseudo_huber"])
    @pytest.mark.parametrize("rows", ["1", "block", "block+1", "3 blocks+9"])
    def test_linear_losses_keep_the_single_product_in_one_block(self, name, rows):
        # Rows that fit one of row_blocks' blocks (a 1-row tail joins the block)
        # take the one product X.T @ coef / n; more rows add the blocks' products.
        d = 20
        block = _block_rows(d)
        n = {"1": 1, "block": block, "block+1": block + 1, "3 blocks+9": 3 * block + 9}[rows]
        loss, w, X, y = _loss_case(name, n, d, 2.0, 4)
        if name == "logistic":
            coef = -y * _expit(-y * (X @ w))
        else:
            res = X @ w - y
            coef = res / np.sqrt(1.0 + (res / loss.huber_delta) ** 2)
        got, want = loss.grads(w, X, y, mean=True), X.T @ coef / n
        if len(row_blocks(n, d)) == 1:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("rows", ["1", "block", "block+1", "3 blocks+9"])
    def test_linear_products_have_the_bits_of_the_blockwise_loop(self, rows):
        # Both directions against a reference loop over row_blocks: X @ w as
        # the concatenated block products, and the mean gradient as the
        # blocks' X.T @ coef summed in order onto the first block's.
        d = 20
        block = _block_rows(d)
        n = {"1": 1, "block": block, "block+1": block + 1, "3 blocks+9": 3 * block + 9}[rows]
        rng = np.random.default_rng(n)
        X, w, coef = rng.standard_normal((n, d)), rng.standard_normal(d), rng.standard_normal(n)
        blocks = row_blocks(n, d)
        parts = [X[b].T @ coef[b] for b in blocks]
        want = np.concatenate([X[b] @ w for b in blocks]), sum(parts[1:], parts[0]) / n
        assert _row_products(X, w).tobytes() == want[0].tobytes()
        assert _linear_grads(coef, X, mean=True).tobytes() == want[1].tobytes()

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
            assert lp_norm(grads, 2).max() <= loss.lipschitz + 1e-12

    def test_logistic_smoothness_ratio(self):
        loss = LogisticLoss(feature_dual_bound=1.0)
        dist = LogisticSphere(np.array([0.5, 0.3, -0.2, 0.1]))
        rng = np.random.default_rng(3)
        data = dist.sample(100, rng)
        for _ in range(50):
            w1 = rng.standard_normal(4)
            w2 = rng.standard_normal(4)
            dg = loss.grads(w1, data.X, data.y) - loss.grads(w2, data.X, data.y)
            ratio = lp_norm(dg, 2).max() / np.linalg.norm(w1 - w2)
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
        emp = float((lp_norm(noise, 3.0) ** 2).mean())
        assert emp <= sigma_sq

    def test_rank_bound(self):
        assert LogisticLoss().rank_bound(20) == 2
        assert MeanPointLoss().rank_bound(20) == 20


class TestCertify:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("dist,loss_type", [
        (LogisticSphere(np.array([0.3, -0.2, 0.1, 0.0]), sphere_exponent=3.0, radius=2.0), LogisticLoss),
        (HeavyTailLinear(np.array([0.3, -0.2, 0.1, 0.0]), sphere_exponent=3.0), PseudoHuberLoss),
    ], ids=["logistic_sphere", "heavy_tail_linear"])
    def test_feature_bound_is_the_largest_dual_norm(self, dist, loss_type, p):
        q = p / (p - 1.0)
        bound = dist.feature_radius(q)
        assert lp_norm(dist.sample(2000, np.random.default_rng(1)).X, q).max() <= bound * (1 + 1e-12)
        dist.certify(loss_type(feature_dual_bound=bound, norm_p=p))
        # Rounding slack: a bound one computation away from the data's passes.
        dist.certify(loss_type(feature_dual_bound=bound * (1 - 1e-13), norm_p=p))
        with pytest.raises(ConfigError, match="declares feature_dual_bound"):
            dist.certify(loss_type(feature_dual_bound=bound * (1 - 1e-9), norm_p=p))

    def test_mean_point_needs_the_support_and_the_set(self):
        # Feature radius 0.5 + 0.5; the l1 ball of radius 2 reaches l2 norm 2.
        dist, C = BallCloud(np.array([0.3, -0.4]), spread=0.5), L1Ball(2.0, 2)
        X = dist.sample(2000, np.random.default_rng(2)).X
        vertices = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
        assert lp_norm(vertices[:, None, :] - X[None], 2.0).max() <= 3.0
        dist.certify(MeanPointLoss(domain_radius=1.0, constraint_radius=2.0), C)
        with pytest.raises(ConfigError, match="declares Lipschitz constant"):
            dist.certify(MeanPointLoss(domain_radius=1.0, constraint_radius=1.99), C)
        with pytest.raises(ConfigError, match="needs a constraint set"):
            dist.certify(MeanPointLoss(domain_radius=1.0, constraint_radius=2.0))

    def test_unpaired_loss_is_refused(self):
        with pytest.raises(ConfigError, match="does not fit"):
            BallCloud(np.zeros(2)).certify(LogisticLoss(), L2Ball(1.0, 2))


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

    def test_logistic_values_match_logaddexp(self):
        # m = 0 and |m| > 709, where exp(|m|) overflows; atol forgives only
        # the digits a subnormal result does not hold.
        extremes = [0.0, -709.5, 709.5, -710.0, 710.0, -800.0, 800.0, -1e300, 1e300]
        m = np.concatenate([np.linspace(-40.0, 40.0, 100_001), extremes])
        X = m[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = LogisticLoss().values(np.ones(1), X, np.ones(m.size))
        ref = np.logaddexp(0.0, -m)
        np.testing.assert_allclose(vals, ref, rtol=1e-15, atol=np.finfo(float).tiny)
        assert vals[100_001] == math.log(2.0)


class TestDatasetCsv:
    def test_deterministic_generation(self):
        dist = BallCloud(np.zeros(3))
        a = dist.sample(10, np.random.default_rng(42))
        b = dist.sample(10, np.random.default_rng(42))
        np.testing.assert_array_equal(a.X, b.X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_features_refused(self, bad):
        X = np.zeros((4, 3))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite feature entries"):
            Dataset(X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_labels_refused(self, bad):
        y = np.ones(4)
        y[3] = bad
        with pytest.raises(ValueError, match="non-finite labels"):
            Dataset(np.zeros((4, 3)), y)


class TestPopulationRisk:
    def test_oracle_at_minimizer(self):
        dist = BallCloud(np.array([0.2, -0.1]), spread=1.0)
        loss = MeanPointLoss()
        assert dist.population_risk(dist.minimizer(loss), loss) == pytest.approx(0.5 * dist.trace_cov)

    def test_mc_matches_oracle(self):
        dist = BallCloud(np.array([0.2, -0.1, 0.3]), spread=0.7)
        loss = MeanPointLoss()
        w = np.array([0.1, 0.1, 0.1])
        oracle = dist.population_risk(w, loss)
        rng = np.random.default_rng(6)
        sample = dist.sample(100_000, rng)
        vals = loss.values(w, sample.X)
        mc = float(vals.mean())
        se = float(vals.std() / math.sqrt(vals.size))
        assert abs(mc - oracle) <= 3 * se

    def test_excess_at_minimizer_is_zero(self):
        dist = BallCloud(np.array([0.2, -0.1]))
        loss = MeanPointLoss()
        excess, _ = excess_population_risk(dist.minimizer(loss), dist, loss)
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

    @pytest.mark.parametrize("dist,loss", [
        (BallCloud(np.array([0.2, -0.1])), LogisticLoss()),
        (LogisticSphere(np.array([0.3, -0.2])), LogisticLoss()),
        (HeavyTailLinear(np.array([0.3, -0.2])), PseudoHuberLoss()),
    ], ids=["ball_cloud-logistic", "logistic_sphere", "heavy_tail_linear"])
    def test_no_closed_form_at_any_point(self, dist, loss):
        # Explicit points: BallCloud has no minimizer for the logistic loss.
        w0 = np.array([0.3, -0.2])
        for w in (w0, w0 + 0.1, np.zeros(2)):
            assert dist.population_risk(w, loss) is None

    def test_oracle_without_a_closed_form_is_refused(self):
        # "auto" falls back to Monte Carlo; "oracle" does not.
        dist = HeavyTailLinear(np.array([0.3, -0.2]))
        loss = PseudoHuberLoss()
        w = np.array([0.1, 0.1])
        _, se = excess_population_risk(w, dist, loss, m_eval=100, rng=np.random.default_rng(0))
        assert se > 0.0
        with pytest.raises(ValueError, match="'heavy_tail_linear' has no closed-form excess risk"):
            excess_population_risk(w, dist, loss, m_eval=100, rng=np.random.default_rng(0), policy="oracle")

    def test_excess_with_constraint(self):
        dist = BallCloud(np.array([0.5, 0.0]))
        loss = MeanPointLoss()
        C = L2Ball(1.0, 2)
        excess, _ = excess_population_risk(np.array([0.5, 0.0]), dist, loss, C)
        assert excess == pytest.approx(0.0, abs=1e-15)


def _mc_case(name, d):
    """(dist, loss, C) for Monte Carlo scoring: labelled logistic and heavy-tail data, unlabelled ball_cloud."""
    if name == "logistic_sphere":
        return LogisticSphere(np.full(d, 0.15), radius=2.0), LogisticLoss(feature_dual_bound=2.0), None
    if name == "heavy_tail_linear":
        return HeavyTailLinear(np.full(d, 0.1), t_scale=0.7), PseudoHuberLoss(), None
    return BallCloud(np.full(d, 0.1), spread=0.8), MeanPointLoss(), L2Ball(1.0, d)


_MC_CASES = ["logistic_sphere", "heavy_tail_linear", "ball_cloud"]


def _scored_and_whole(name, d, m, seed):
    """``excess_population_risk`` under "mc" at m_eval = m, and the whole-sample formulas on the same sample."""
    dist, loss, C = _mc_case(name, d)
    w = 0.05 * np.random.default_rng(1).standard_normal(d)
    theta_star = dist.minimizer(loss, C)
    sample = dist.sample(m, np.random.default_rng(seed))
    diff = loss.values(w, sample.X, sample.y) - loss.values(theta_star, sample.X, sample.y)
    expected = float(diff.mean()), float(diff.std(ddof=1) / math.sqrt(m))
    return excess_population_risk(w, dist, loss, C, np.random.default_rng(seed), m_eval=m, policy="mc"), expected


class TestMonteCarloScoring:
    @pytest.mark.parametrize("name", _MC_CASES)
    @pytest.mark.parametrize("m_eval", ["2", "block-1", "block", "block+1", "50000"])
    def test_same_bits_as_the_whole_sample(self, name, m_eval):
        d = 20 if name != "ball_cloud" else 6
        block = _block_rows(d)
        m = {"2": 2, "block-1": block - 1, "block": block, "block+1": block + 1, "50000": 50_000}[m_eval]
        got, expected = _scored_and_whole(name, d, m, seed=2)
        assert got == expected

    def test_a_one_row_tail_is_scored_with_the_block_before_it(self):
        # At seed 8 the last of block + 1 rows, scored alone, would take another
        # BLAS route and move the value's bits.
        d = 20
        m = _block_rows(d) + 1
        assert len(row_blocks(m, d)) == 1
        got, expected = _scored_and_whole("logistic_sphere", d, m, seed=8)
        assert got == expected

    @pytest.mark.parametrize("name", _MC_CASES)
    def test_row_blocks_score_each_row_as_the_whole_sample(self, name):
        # A loss difference a few ulps off on a few rows rarely moves the mean's
        # bits, so each row's loss is checked.  m is a multiple of 4 t for t up
        # to 8, so a threaded BLAS product over the whole sample splits it at
        # whole row groups for up to 8 threads.
        d, m = (20 if name != "ball_cloud" else 6), 50_400
        dist, loss, _ = _mc_case(name, d)
        w = 0.05 * np.random.default_rng(1).standard_normal(d)
        sample = dist.sample(m, np.random.default_rng(2))
        X, y = sample.X, sample.y
        blocks = [loss.values(w, X[b], None if y is None else y[b]) for b in row_blocks(m, d)]
        assert np.concatenate(blocks).tobytes() == loss.values(w, X, y).tobytes()

    def test_logistic_labels_same_stream(self):
        d, n = 6, 2 * _BLOCK_ENTRIES + 5
        dist = LogisticSphere(np.full(d, 0.3), radius=2.0)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        data = dist.sample(n, rng)
        Z = sample_lr_sphere(d, 2.0, ref, size=n)
        Z *= 2.0
        probs = 1.0 / (1.0 + np.exp(-(Z @ dist.w_star)))
        y = np.where(ref.uniform(size=n) < probs, 1.0, -1.0)
        assert data.X.tobytes() == Z.tobytes() and data.y.tobytes() == y.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_heavy_tail_labels_same_stream(self):
        d, n = 6, 2 * _BLOCK_ENTRIES + 5
        dist = HeavyTailLinear(np.full(d, 0.3), sphere_exponent=2.25, t_scale=0.7)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        data = dist.sample(n, rng)
        Z = sample_lr_sphere(d, 2.25, ref, size=n)
        noise = 0.7 * ref.standard_t(3.0, size=n)
        y = Z @ dist.w_star + noise
        assert data.X.tobytes() == Z.tobytes() and data.y.tobytes() == y.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("name", _MC_CASES)
    @pytest.mark.parametrize("d", [6, 20])
    def test_holds_the_sample_and_two_vectors(self, name, d):
        # The (m, d) sample, its labels and the loss differences, plus at most two blocks.
        m = 50_000
        dist, loss, C = _mc_case(name, d)
        peak = peak_bytes(
            lambda: excess_population_risk(np.zeros(d), dist, loss, C, np.random.default_rng(0), m_eval=m, policy="mc")
        )
        assert peak <= m * d * 8 + 2 * m * 8 + 2 * _BLOCK_ENTRIES * 8, peak / (m * d * 8)


_THREADS_CHILD = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from dpsco.problems import (HeavyTailLinear, LogisticLoss, LogisticSphere, PseudoHuberLoss, empirical_grad,
                            empirical_risk, excess_population_risk)
m, w = 100_003, np.full(20, 0.05)
heavy = HeavyTailLinear(np.full(20, 0.1), t_scale=0.7)
for dist, loss in ((heavy, PseudoHuberLoss()), (LogisticSphere(np.full(20, 0.15)), LogisticLoss())):
    data = dist.sample(m, np.random.default_rng(5))
    print(hashlib.sha256(data.X.tobytes() + data.y.tobytes()).hexdigest())
    print(empirical_risk(w, data, loss).hex(), empirical_grad(w, data, loss).tobytes().hex())
    print(*(x.hex() for x in excess_population_risk(w, dist, loss, rng=np.random.default_rng(6), m_eval=m, policy="mc")))
"""


def test_sample_and_risk_do_not_depend_on_the_blas_thread_count():
    # A product over all 100 003 rows at d = 20 (X @ w, or the full-batch
    # gradient's X.T @ coef) has other bits on two threads than on one; the
    # row blocks stay on one thread.
    outs = []
    for threads in ("1", "2", "3"):
        env = {**os.environ, **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)}
        out = subprocess.run([sys.executable, "-c", _THREADS_CHILD, str(SRC)], env=env, capture_output=True,
                             text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        outs.append(out.stdout)
    assert outs[1] == outs[0] and outs[2] == outs[0]


def _batched_width(C, m, rng):
    """The Gaussian width formula gaussian_width_mc replaced: running sums over 20 000-row batches."""
    total = total_sq = 0.0
    left = m
    while left > 0:
        k = min(20_000, left)
        vals = np.asarray(C.support(rng.standard_normal((k, C.d))), dtype=float)
        total += vals.sum()
        total_sq += (vals * vals).sum()
        left -= k
    mean = total / m
    var = max(total_sq / m - mean**2, 0.0) * m / (m - 1)
    return float(mean), float(math.sqrt(var / m))


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

    @pytest.mark.parametrize("d", [20, 1024])
    def test_holds_one_vector_and_two_blocks(self, d):
        # The (m,) support values, one Gaussian block and lp_norm's temporary of
        # it, whatever d is: one (m, d) batch of Gaussians was 164 MB at d = 1024.
        # The slack holds lp_norm's per-row vectors and the list of row slices.
        m, C, rng = 20_000, L2Ball(1.0, d), np.random.default_rng(0)
        peak = peak_bytes(lambda: gaussian_width_mc(C, m, rng))
        assert peak <= m * 8 + 2 * _BLOCK_ENTRIES * 8 + 192 * 1024, peak

    @pytest.mark.parametrize("C", [L1Ball(1.0, 20), L2Ball(2.0, 20), LpBall(1.5, 1.0, 20)], ids=["l1", "l2", "lp"])
    @pytest.mark.parametrize("m", [2, 1633, 20_000, 50_001])
    def test_same_estimate_as_the_batched_sums(self, C, m):
        # Up to one 20 000-row batch of the replaced formula the estimate keeps
        # its bits; at every m it is the mean over one full-size draw.  The
        # standard error takes numpy's two-pass variance instead of the running
        # sum of squares.
        got = gaussian_width_mc(C, m, np.random.default_rng(3))
        want = _batched_width(C, m, np.random.default_rng(3))
        if m <= 20_000:
            assert got[0] == want[0]
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
        assert got[0] == C.support(np.random.default_rng(3).standard_normal((m, C.d))).mean()
        assert got[1] == pytest.approx(want[1], rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2, 5, 20, 100, 1000, 100_000])
    def test_max_abs_gaussian_mean_matches_adaptive_quadrature(self, d):
        ref, _ = integrate.quad(lambda t: 1.0 - math.erf(t / math.sqrt(2.0)) ** d, 0.0, np.inf, limit=200)
        assert max_abs_gaussian_mean(d) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_l1_ball_quadrature_oracle(self):
        d = 100
        oracle = max_abs_gaussian_mean(d)
        est, se = gaussian_width_mc(L1Ball(1.0, d), 100_000, np.random.default_rng(9))
        assert abs(est - oracle) <= 3 * se


class TestReferenceBaseline:
    def test_unpaired_loss_is_a_config_error(self):
        # w_star is not the pseudo-Huber minimizer on logistic data, so no excess is measured against it.
        dist = LogisticSphere(0.4 * np.ones(4))
        with pytest.raises(ConfigError, match="loss 'pseudo_huber' does not fit distribution 'logistic_sphere'"):
            excess_population_risk(np.zeros(4), dist, PseudoHuberLoss(), m_eval=20_000, rng=np.random.default_rng(0))

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
