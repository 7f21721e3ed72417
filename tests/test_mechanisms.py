import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from dpsco.errors import RefusalError
from dpsco.mechanisms import (
    GGNoiseSpec,
    PrivacyBudget,
    advanced_composition,
    gaussian_noise_sigma2,
    gg_calibrate,
    gg_sample,
    sample_lr_sphere,
    shuffle_calibrate,
)
from dpsco.problems import BallCloud, HeavyTailLinear, LogisticSphere
from dpsco.spaces import lp_norm


class TestPrivacyBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyBudget(0.0, 0.5)
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, 0.0)
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, 1.0)

    def test_values_are_checked_as_given_and_stored_as_floats(self):
        # A string or a boolean is refused rather than converted.
        with pytest.raises(ValueError, match="delta must be in"):
            PrivacyBudget(1.0, "1e-5")
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            PrivacyBudget(True, 1e-5)
        b = PrivacyBudget(2, 1e-5)
        assert type(b.epsilon) is float and b.epsilon == 2.0


class TestGaussianCalibration:
    def test_log_term_equals_one(self):
        b = PrivacyBudget(1.0, 1.25 / math.e)
        assert gaussian_noise_sigma2(1.0, b) == pytest.approx(2.0)

    def test_quadratic_in_sensitivity(self):
        b = PrivacyBudget(0.7, 1e-4)
        assert gaussian_noise_sigma2(2.0, b) == pytest.approx(4 * gaussian_noise_sigma2(1.0, b))

    def test_arithmetic_value(self):
        # 2 * ln(1.25e5) / 0.25, evaluated independently
        b = PrivacyBudget(0.5, 1e-5)
        expected = 2.0 * math.log(1.25e5) / 0.5**2
        assert gaussian_noise_sigma2(1.0, b) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(93.8885521302755)

    def test_zero_sensitivity_noiseless(self):
        assert gaussian_noise_sigma2(0.0, PrivacyBudget(1.0, 1e-5)) == 0.0


class TestGGCalibration:
    def test_log_term_equals_one(self):
        assert gg_calibrate(1.0, 1.0, PrivacyBudget(1.0, 1.0 / math.e)) == pytest.approx(2.0)

    def test_doubling_sensitivity_quadruples(self):
        b = PrivacyBudget(0.3, 1e-6)
        assert gg_calibrate(2.0, 2.0, b) == pytest.approx(4 * gg_calibrate(1.0, 2.0, b))

    def test_arithmetic_value(self):
        b = PrivacyBudget(1.0, 1e-5)
        expected = 2.0 * 2.0 * math.log(1e5) * 0.25
        assert gg_calibrate(0.5, 2.0, b) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(11.512925464970229)

    def test_monotone_in_epsilon_and_sensitivity(self):
        for eps in (0.1, 0.2, 0.5, 0.9):
            for fn in (gg_calibrate, lambda s, k, b: gaussian_noise_sigma2(s, b)):
                hi = fn(1.0, 2.0, PrivacyBudget(eps, 1e-5))
                lo = fn(1.0, 2.0, PrivacyBudget(eps * 1.5, 1e-5))
                assert hi > lo
        for s in (0.5, 1.0, 2.0):
            a = gg_calibrate(s, 2.0, PrivacyBudget(0.5, 1e-5))
            b2 = gg_calibrate(s * 2, 2.0, PrivacyBudget(0.5, 1e-5))
            assert b2 > a
            assert gaussian_noise_sigma2(2 * s, PrivacyBudget(0.5, 1e-5)) > gaussian_noise_sigma2(
                s, PrivacyBudget(0.5, 1e-5)
            )


class TestAdvancedComposition:
    def test_single_step_value(self):
        eps, _ = advanced_composition(PrivacyBudget(0.5, 0.5), 1)
        # 0.5 / (2 sqrt(2 ln 4))
        assert eps == pytest.approx(0.5 / (2 * math.sqrt(2 * math.log(4.0))), rel=1e-15)
        assert eps == pytest.approx(0.15014030109830623)

    def test_delta_split(self):
        for T in (1, 3, 10):
            _, ds = advanced_composition(PrivacyBudget(0.5, 1e-5), T)
            assert ds == 1e-5 / T

    def test_eight_step_value(self):
        eps, _ = advanced_composition(PrivacyBudget(0.5, 1e-5), 8)
        assert eps == pytest.approx(0.017889246245008195, rel=1e-14)

    def test_bit_for_bit_reproducible(self):
        a = advanced_composition(PrivacyBudget(0.7, 1e-6), 13)
        b = advanced_composition(PrivacyBudget(0.7, 1e-6), 13)
        assert a == b

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            advanced_composition(PrivacyBudget(0.5, 1e-5), 0)
        with pytest.raises(ValueError):
            advanced_composition(PrivacyBudget(1.5, 1e-5), 4)


class TestShuffleCalibration:
    def test_inverse_sqrt_n_scaling(self):
        b = PrivacyBudget(0.01, 1e-5)
        s1 = shuffle_calibrate(10_000, b, 1.0, 2.0).sigma
        s2 = shuffle_calibrate(40_000, b, 1.0, 2.0).sigma
        # ln(n/delta) grows slowly; allow a few percent around the 2x ratio
        assert s1 / s2 == pytest.approx(2.0, rel=0.05)

    def test_halving_epsilon_doubles_sigma(self):
        a = shuffle_calibrate(4096, PrivacyBudget(0.05, 1e-5), 1.0, 2.0).sigma
        b = shuffle_calibrate(4096, PrivacyBudget(0.025, 1e-5), 1.0, 2.0).sigma
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_arithmetic_value(self):
        cal = shuffle_calibrate(4096, PrivacyBudget(0.05, 1e-5), 1.0, 2.0)
        expected = 2.0 * math.sqrt(math.log(1e5) * math.log(4096e5)) / (0.05 * 64.0)
        assert cal.sigma == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(9.443691567374877)

    def test_validity_gate(self):
        # high-privacy regime only: eps <= sqrt(ln(n/delta)/n), and the
        # calibration itself refuses above it, naming the ceiling
        n, delta = 1000, 1e-5
        ceiling = math.sqrt(math.log(n / delta) / n)
        cal = shuffle_calibrate(n, PrivacyBudget(ceiling, delta), 1.0, 2.0)
        assert cal.max_epsilon == ceiling and cal.sigma > 0.0
        for eps in (math.nextafter(ceiling, 1.0), 0.5):
            with pytest.raises(RefusalError) as info:
                shuffle_calibrate(n, PrivacyBudget(eps, delta), 1.0, 2.0)
            assert info.value.requirement == ceiling
            assert str(info.value) == (
                f"epsilon={eps:.4g} outside the shuffling amplification regime; "
                f"maximum admissible epsilon at n={n} is {ceiling:.4g}"
            )
        assert shuffle_calibrate(100_000, PrivacyBudget(0.01, 1e-5), 1.0, 2.0).sigma > 0.0


class TestGGSampler:
    def test_r2_reduces_to_gaussian(self):
        rng = np.random.default_rng(42)
        spec = GGNoiseSpec(sigma2=2.0, r=2.0, d=4)
        z = gg_sample(spec, rng, size=40_000)
        cov = np.cov(z.T)
        se = 2.0 * math.sqrt(2.0 / 40_000)  # var of a variance estimate ~ 2 sigma^4 / m
        assert np.all(np.abs(np.diag(cov) - 2.0) < 3 * 2.0 * math.sqrt(2.0 / 40_000) + 3 * se)
        off = cov - np.diag(np.diag(cov))
        assert np.all(np.abs(off) < 5 * 2.0 / math.sqrt(40_000))

    @pytest.mark.parametrize("r", [2.0, 3.0, 8.0])
    def test_radius_is_chi(self, r):
        rng = np.random.default_rng(7)
        d = 10
        spec = GGNoiseSpec(sigma2=1.0, r=r, d=d)
        z = gg_sample(spec, rng, size=20_000)
        radii = lp_norm(z, r, axis=-1)
        res = stats.kstest(radii, stats.chi(d).cdf)
        assert res.pvalue > 0.01

    def test_second_moment_bound(self):
        rng = np.random.default_rng(3)
        spec = GGNoiseSpec(sigma2=1.5, r=3.0, d=10)
        z = gg_sample(spec, rng, size=100_000)
        m2 = float((lp_norm(z, 3.0, axis=-1) ** 2).mean())
        assert m2 <= 10 * 1.5 * (1 + 3.0 / math.sqrt(100_000))

    def test_sign_symmetry(self):
        rng = np.random.default_rng(5)
        spec = GGNoiseSpec(sigma2=1.0, r=3.0, d=6)
        z = gg_sample(spec, rng, size=50_000)
        se = z.std(axis=0) / math.sqrt(z.shape[0])
        assert np.all(np.abs(z.mean(axis=0)) < 4 * se)

    def test_single_draw_shape(self):
        rng = np.random.default_rng(1)
        z = gg_sample(GGNoiseSpec(1.0, 2.5, 7), rng)
        assert z.shape == (7,)


def _reference_lr_sphere(d, r, rng, size=None):
    """The sampler as first written: two powers and a full-size temporary per step."""
    shape = (d,) if size is None else (size, d)
    a = 1.0 / r
    if a < 1.0:
        g = rng.gamma(a + 1.0, size=shape)
        g = g * rng.uniform(size=shape) ** (1.0 / a)
    else:
        g = rng.gamma(a, size=shape)
    signs = rng.integers(0, 2, size=shape) * 2 - 1
    u = signs * g ** (1.0 / r)
    nrm = (np.abs(u) ** r).sum(axis=-1, keepdims=True) ** (1.0 / r)
    return u / np.where(nrm > 0, nrm, 1.0)


class TestLrSphereSampler:
    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 2.25, 3.0])
    @pytest.mark.parametrize("size", [None, 7])
    def test_same_draws_as_the_reference_formula(self, r, size):
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = sample_lr_sphere(6, r, rng, size=size)
        want = _reference_lr_sphere(6, r, ref_rng, size=size)
        assert got.shape == want.shape == ((6,) if size is None else (size, 6))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # The generator is left in the same state, so every later draw is unchanged.
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_rows_are_unit_vectors(self, r):
        u = sample_lr_sphere(5, r, np.random.default_rng(2), size=100)
        np.testing.assert_allclose(lp_norm(u, r, axis=-1), 1.0, rtol=1e-12)

    @pytest.mark.parametrize(
        "sample",
        [
            LogisticSphere(np.full(20, 0.04)).sample,
            HeavyTailLinear(np.full(20, 0.04), sphere_exponent=2.25).sample,
            BallCloud(np.zeros(20)).sample,
            lambda m, rng: gg_sample(GGNoiseSpec(1.0, 2.25, 20), rng, size=m),
        ],
        ids=["logistic_sphere", "heavy_tail_linear", "ball_cloud", "gg_sample"],
    )
    def test_a_sample_holds_at_most_two_full_size_buffers(self, sample):
        m, d = 50_000, 20
        tracemalloc.start()
        try:
            sample(m, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * m * d * 8, peak / (m * d * 8)
