import math
import warnings

import numpy as np
import pytest

from dpsco.spaces import (
    SpaceSpec,
    bregman,
    dual_exponent,
    grad_phi,
    inv_grad_phi,
    lp_norm,
    phi,
)
from conftest import peak_bytes

GRID = [(p, d) for p in (1.1, 1.5, 1.9) for d in (5, 50)]


class TestLpNorm:
    def test_pythagorean(self):
        assert lp_norm(np.array([3.0, 4.0]), 2) == pytest.approx(5.0)

    def test_inf_is_max_magnitude(self):
        assert lp_norm(np.array([1.0, -1.0, 1.0]), math.inf) == 1.0

    def test_fractional_exponent(self):
        # direct evaluation: (1 + 1)^(1/1.5) = 2^(2/3)
        assert lp_norm(np.array([1.0, 1.0]), 1.5) == pytest.approx(2.0 ** (2.0 / 3.0))
        assert 2.0 ** (2.0 / 3.0) == pytest.approx(1.5874010519681994)

    def test_l1(self):
        assert lp_norm(np.array([1.0, -2.0, 3.0]), 1) == 6.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(np.array([1.0, np.nan]), 2)
        with pytest.raises(ValueError):
            lp_norm(np.array([np.inf, 0.0]), 1.5)

    def test_batched(self):
        v = np.array([[3.0, 4.0], [0.0, 1.0]])
        np.testing.assert_allclose(lp_norm(v, 2), [5.0, 1.0])

    def test_extreme_scale(self):
        v = np.array([1e200, 1e200])
        assert np.isfinite(lp_norm(v, 1.1))

    def test_l2_neither_overflows_nor_underflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = lp_norm(np.full(20, 1e200), 2)
            tiny = lp_norm(np.full(3, 1e-200), 2)
        np.testing.assert_allclose(big, math.sqrt(20.0) * 1e200, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(tiny, math.sqrt(3.0) * 1e-200, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_one_full_size_temporary(self, p):
        v = np.random.default_rng(0).standard_normal((20_000, 20))
        peak = peak_bytes(lambda: lp_norm(v, p))
        assert peak <= 1.3 * v.nbytes, peak / v.nbytes

    @pytest.mark.parametrize("p", [1, 1.5, 2, math.inf])
    def test_input_is_left_unchanged(self, p):
        v = np.random.default_rng(1).standard_normal((50, 7))
        before = v.copy()
        lp_norm(v, p)
        np.testing.assert_array_equal(v, before)

    def test_read_only_input(self):
        v = np.array([[3.0, -4.0], [1e200, 1e200]])
        v.flags.writeable = False
        np.testing.assert_allclose(lp_norm(v, 2), [5.0, math.sqrt(2.0) * 1e200], rtol=1e-15)


class TestSpaceSpec:
    def test_dual_exponent_pairing(self):
        for p, _ in GRID:
            s = SpaceSpec(p, 5)
            assert 1.0 / s.p + 1.0 / s.q == pytest.approx(1.0)
        assert dual_exponent(math.inf) == 1.0
        assert dual_exponent(1) == math.inf

    def test_kappa_cap(self):
        # cap binds for p close to 1, not for moderate p
        s = SpaceSpec(1.1, 50)
        assert s.kappa == pytest.approx(2.0 * math.log(50))
        s = SpaceSpec(1.5, 50)
        assert s.kappa == pytest.approx(2.0)

    def test_kappa_at_least_one(self):
        for p, d in GRID:
            assert SpaceSpec(p, d).kappa >= 1.0

    def test_noise_index_is_kappa_plus_one(self):
        for p, d in GRID:
            s = SpaceSpec(p, d)
            assert s.r_noise == pytest.approx(s.kappa + 1.0)
            assert s.r_noise >= 2.0

    def test_d1_skips_cap(self):
        s = SpaceSpec(1.5, 1)
        assert s.kappa == pytest.approx(2.0)

    @pytest.mark.parametrize("p", [2.5, 3.0, math.inf])
    def test_refuses_p_above_two(self, p):
        # 2 <= p <= inf runs through the Euclidean reduction, never in a SpaceSpec.
        with pytest.raises(ValueError, match=r"p must be in \(1, 2\]"):
            SpaceSpec(p, 5)

    @pytest.mark.parametrize("d", [1, 2, 50])
    def test_p2_is_euclidean(self, d):
        s = SpaceSpec(2.0, d)
        assert (s.kappa, s.r_noise, s.potential_weight, s.q) == (1.0, 2.0, 1.0, 2.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            SpaceSpec(1.0, 5)
        with pytest.raises(ValueError):
            SpaceSpec(1.5, 0)


def _fd_grad(f, w, h=1e-6):
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2 * h)
    return g


class TestMirrorMap:
    def test_grad_at_zero(self):
        s = SpaceSpec(1.5, 4)
        np.testing.assert_array_equal(grad_phi(np.zeros(4), s), np.zeros(4))
        np.testing.assert_array_equal(inv_grad_phi(np.zeros(4), s), np.zeros(4))

    def test_one_dimensional(self):
        # Phi reduces to (kappa/2) w^2 in 1-D, so grad at w=2 is 2*kappa.
        s = SpaceSpec(1.5, 1)
        assert grad_phi(np.array([2.0]), s)[0] == pytest.approx(2.0 * s.kappa)

    @pytest.mark.parametrize("p,d", GRID)
    def test_gradient_matches_finite_differences(self, p, d):
        s = SpaceSpec(p, d)
        rng = np.random.default_rng(7)
        for _ in range(5):
            w = rng.standard_normal(d)
            fd = _fd_grad(lambda v: phi(v, s), w)
            np.testing.assert_allclose(grad_phi(w, s), fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("p,d", GRID)
    def test_roundtrip(self, p, d):
        s = SpaceSpec(p, d)
        rng = np.random.default_rng(11)
        for _ in range(200):
            w = rng.standard_normal(d) * rng.uniform(0.01, 10.0)
            err = np.linalg.norm(inv_grad_phi(grad_phi(w, s), s) - w)
            assert err <= 1e-8 * (1.0 + np.linalg.norm(w))

    def test_roundtrip_bulk_invariant(self):
        # 10^4 vectors with ||w||_2 <= 10, vectorized
        spec = SpaceSpec(1.5, 50)
        rng = np.random.default_rng(23)
        W = rng.standard_normal((10_000, 50))
        W *= rng.uniform(0.0, 10.0, size=(10_000, 1)) / np.linalg.norm(W, axis=1, keepdims=True)
        back = inv_grad_phi(grad_phi(W, spec), spec)
        err = np.linalg.norm(back - W, axis=-1) / (1.0 + np.linalg.norm(W, axis=-1))
        assert float(err.max()) <= 1e-8

    @pytest.mark.parametrize("p,d", GRID)
    def test_young_fenchel_equality(self, p, d):
        s = SpaceSpec(p, d)
        rng = np.random.default_rng(13)
        for _ in range(50):
            w = rng.standard_normal(d)
            y = grad_phi(w, s)
            lhs = float(y @ w)
            rhs = phi(w, s) + 0.5 / s.potential_weight * lp_norm(y, s.q) ** 2
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_batched_grad(self):
        s = SpaceSpec(1.5, 6)
        rng = np.random.default_rng(3)
        W = rng.standard_normal((10, 6))
        batched = grad_phi(W, s)
        for i in range(10):
            np.testing.assert_allclose(batched[i], grad_phi(W[i], s))


class TestBregman:
    def test_zero_at_equal_points(self):
        s = SpaceSpec(1.5, 5)
        w = np.ones(5)
        assert bregman(w, w, s) == 0.0

    def test_quadratic_identity_at_p2(self):
        # s = 2, weight 1: D(y, x) = 0.5 ||y - x||_2^2
        s = SpaceSpec(2.0, 2)
        d = bregman(np.array([1.0, 1.0]), np.zeros(2), s)
        assert d == pytest.approx(1.0)

    @pytest.mark.parametrize("p,d", GRID)
    def test_strong_convexity_sample(self, p, d):
        s = SpaceSpec(p, d)
        rng = np.random.default_rng(17)
        for _ in range(300):
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            assert bregman(y, x, s) >= 0.5 * lp_norm(y - x, p) ** 2 - 1e-10

    def test_positivity_and_first_arg_convexity(self):
        s = SpaceSpec(1.5, 8)
        rng = np.random.default_rng(19)
        for _ in range(200):
            x, y1, y2 = (rng.standard_normal(8) for _ in range(3))
            lam = rng.uniform()
            mix = bregman(lam * y1 + (1 - lam) * y2, x, s)
            sep = lam * bregman(y1, x, s) + (1 - lam) * bregman(y2, x, s)
            assert mix <= sep + 1e-10
            assert bregman(y1, x, s) >= 0.0


def _reference_lp_norm(v, p, axis=-1):
    """``lp_norm`` as first written, for 1 < p < inf: np.where for the zero slices."""
    a = np.abs(np.asarray(v, dtype=float))
    m = a.max(axis=axis, keepdims=True)
    safe = np.where(m > 0, m, 1.0)
    s = ((a / safe) ** p).sum(axis=axis)
    return np.squeeze(safe, axis=axis) * s ** (1.0 / p)


def _reference_norm_power_gradient(v, expo_norm, expo_coord, weight, axis=-1):
    """The mirror map as first written: a full lp_norm of v/max|v| and np.where guards."""
    v = np.asarray(v, dtype=float)
    m = np.abs(v).max(axis=axis, keepdims=True)
    safe = np.where(m > 0, m, 1.0)
    u = v / safe
    nr = np.expand_dims(np.asarray(_reference_lp_norm(u, expo_norm, axis=axis)), axis=axis)
    scale = np.where(nr > 0, nr, 1.0) ** (2.0 - expo_norm)
    a = np.abs(u)
    a = np.where(a < 1e-300, 0.0, a)
    with np.errstate(invalid="ignore"):
        signed = np.where(a > 0, a**expo_coord, 0.0) * np.sign(u)
    return weight * safe * scale * signed


def _pin_inputs(d):
    rng = np.random.default_rng(d)
    base = rng.standard_normal(d) * 2.0
    with_zeros = base.copy()
    with_zeros[::2] = 0.0
    edge = base.copy()
    edge[0], edge[-1] = 1e-310, -0.0  # subnormal and signed zero
    ties = np.where(np.arange(d) % 2, -1.5, 1.5)
    rows = rng.standard_normal((5, d))
    rows[1] = 0.0
    return [base, with_zeros, edge, ties, base * 1e-200, base * 1e200, np.zeros(d), rows]


def _same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    assert type(got) is type(want)  # a numpy scalar, not a 0-d array: later powers differ
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()  # signed zeros too


class TestSameBitsAsReference:
    """The in-place evaluations return exactly the bits of the first-written ones."""

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8, 2.0, 2.5, 4.0, 10.0])
    @pytest.mark.parametrize("d", [1, 2, 6, 33])
    def test_lp_norm(self, p, d):
        for v in _pin_inputs(d):
            for r in (p, dual_exponent(p)):
                _same_bits(lp_norm(v, r), _reference_lp_norm(v, r))

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 6, 33])
    def test_mirror_maps(self, p, d):
        s = SpaceSpec(p, d)
        for v in _pin_inputs(d):
            _same_bits(
                grad_phi(v, s),
                _reference_norm_power_gradient(v, s.p, s.p - 1.0, s.potential_weight),
            )
            _same_bits(
                inv_grad_phi(v, s),
                _reference_norm_power_gradient(v, s.q, s.q - 1.0, 1.0 / s.potential_weight),
            )
