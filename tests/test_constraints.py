import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsco.errors import NumericError
from dpsco.problems.constraints import (
    L1Ball,
    L2Ball,
    LpBall,
    _project_rescaled,
    project_l1_ball,
    project_lp_ball,
)
from dpsco.spaces import dual_exponent, lp_norm


class TestL1Projection:
    def test_interior_unchanged(self):
        v = np.array([0.2, -0.3])
        np.testing.assert_array_equal(project_l1_ball(v, 1.0), v)

    def test_axis_point(self):
        np.testing.assert_allclose(project_l1_ball(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])

    def test_symmetric_point(self):
        np.testing.assert_allclose(project_l1_ball(np.array([1.0, 1.0]), 1.0), [0.5, 0.5])

    def test_feasible_output(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.standard_normal(20) * 3
            w = project_l1_ball(v, 1.0)
            assert lp_norm(w, 1) <= 1.0 + 1e-12


class TestLpProjection:
    def test_radial_scaling_at_p2(self):
        np.testing.assert_allclose(
            project_lp_ball(np.array([3.0, 4.0]), 2.0, 1.0), [0.6, 0.8]
        )

    def test_interior_unchanged(self):
        v = np.array([0.1, 0.1])
        np.testing.assert_array_equal(project_lp_ball(v, 1.5, 1.0), v)

    def test_symmetric_case(self):
        # both coordinates equal a with 2 a^1.5 = 1, i.e. a = 2^(-2/3)
        w = project_lp_ball(np.array([2.0, 2.0]), 1.5, 1.0)
        a = 2.0 ** (-2.0 / 3.0)
        np.testing.assert_allclose(w, [a, a], rtol=1e-8)

    def test_feasibility_slack(self):
        rng = np.random.default_rng(1)
        for p in (1.2, 1.5, 1.8, 3.0):
            for _ in range(50):
                v = rng.standard_normal(15) * 2
                w = project_lp_ball(v, p, 1.0, tol=1e-10)
                assert abs(lp_norm(w, p) - 1.0) <= 1e-9 or lp_norm(v, p) <= 1.0

    def test_projection_optimality(self):
        # ||v - proj(v)|| <= ||v - w|| for random feasible w
        rng = np.random.default_rng(2)
        p = 1.5
        for _ in range(20):
            v = rng.standard_normal(10) * 2
            w_star = project_lp_ball(v, p, 1.0)
            base = np.linalg.norm(v - w_star)
            for _ in range(50):
                cand = rng.standard_normal(10)
                cand = cand / max(1.0, lp_norm(cand, p))
                assert base <= np.linalg.norm(v - cand) + 1e-9

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            project_lp_ball(np.ones(3), 1.0, 1.0)

    @pytest.mark.parametrize("d", [1, 6, 30])
    def test_large_p_far_outside(self, d):
        # Equal magnitudes project to sign(v) * radius * d^(-1/p).  A Newton
        # solve of t + nu p t^(p-1) = |v| started at t = |v| creeps at p = 20.
        v = 1e3 * np.where(np.arange(d) % 2, -1.0, 1.0)
        w = project_lp_ball(v, 20.0, 1.0)
        np.testing.assert_allclose(w, np.sign(v) * d ** (-1.0 / 20.0), rtol=1e-9)
        w = project_lp_ball(v * np.linspace(0.5, 1.5, d), 20.0, 1.0)
        assert abs(lp_norm(w, 20.0) - 1.0) <= 1e-10

    @pytest.mark.parametrize("tiny", [0.0, 1e-8, -1e-8])
    def test_tiny_coordinate_near_p_one(self, tiny):
        p = 1.05
        v = np.array([tiny, 0.8, -0.6, 0.3])
        w = project_lp_ball(v, p, 0.5)
        assert abs(lp_norm(w, p) - 0.5) <= 1e-10
        assert w[0] * tiny >= 0.0 and abs(w[0]) <= abs(tiny)
        # KKT: every coordinate off zero has the same multiplier
        # nu = (|v_i| - |w_i|) / (p |w_i|^(p-1)).
        a, t = np.abs(v[1:]), np.abs(w[1:])
        nu = (a - t) / (p * t ** (p - 1.0))
        np.testing.assert_allclose(nu, nu[0], rtol=1e-8)


_EPS = np.finfo(float).eps


def _reference_radial_coordinates(a, m, p, radius):
    """The per-coordinate Newton solve as first written: fresh arrays, np.where brackets."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        hi = np.minimum(a, radius * (a / m) ** (1.0 / (p - 1.0)))
        lo = np.zeros_like(a)
        t = hi
        close = 4.0 * _EPS * a
        for _ in range(100):
            A = t / a
            B = m * (t / radius) ** (p - 1.0) / a
            f = A + B - 1.0
            den = A + (p - 1.0) * B
            hi = np.where(f >= 0, t, hi)
            lo = np.where(f <= 0, t, lo)
            step = t - t * f / den
            step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
            done = np.all(np.abs(step - t) <= close)
            t = step
            if done:
                break
    return t, np.divide(B, den, out=np.zeros_like(a), where=den > 0)


def _reference_project_lp_ball(v, p, radius, tol=1e-10):
    """``project_lp_ball`` as first written, one numpy temporary per operation."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        nrm = lp_norm(v, p)
    if nrm <= radius:
        return v.copy()
    if not math.isfinite(nrm):
        return _project_rescaled(
            lambda u, r, t: _reference_project_lp_ball(u, p, r, t), v, radius, tol
        )
    if p == 2.0:
        return v * (radius / nrm)
    nonzero = v != 0
    a = np.abs(v[nonzero])
    q = dual_exponent(p)
    m_lo = (nrm - radius) * a.size ** min(0.0, 1.0 / q - 1.0 / p)
    m_hi = lp_norm(a, q)
    m = m_lo
    residual = math.inf
    for _ in range(100):
        t, elasticity = _reference_radial_coordinates(a, m, p, radius)
        norm_t = lp_norm(t, p)
        residual = abs(norm_t - radius)
        if residual <= tol:
            w = np.zeros_like(v)
            w[nonzero] = np.sign(v[nonzero]) * t
            return w
        if norm_t > radius:
            m_lo = m
        else:
            m_hi = m
        g = (radius / norm_t) ** (p - 1.0)
        dg = g * (p - 1.0) * float(np.sum((t / norm_t) ** p * elasticity))
        step = m - m * (g - 1.0) / dg if dg > 0 else math.nan
        if not m_lo <= step <= m_hi:
            step = 0.5 * (m_lo + m_hi)
        if step == m:
            break
        m = step
    raise NumericError("reference solve did not reach tol", residual=residual)


def _projection_pin_inputs(d):
    rng = np.random.default_rng(d)
    base = rng.standard_normal(d) * 2.0
    with_zeros = base.copy()
    with_zeros[::2] = 0.0
    ties = np.where(np.arange(d) % 2, -1.5, 1.5)
    ties[0] = 0.7
    return {
        "plain": base,
        "zeros": with_zeros,
        "ties": ties,
        "tiny": base * 1e-200,
        "huge": base * 1e200,
        "overflowing": base / np.abs(base).max() * 1.5e308,  # infinite norm: rescaled solve
        "mixed": base * np.logspace(-8, 3, d),
    }


def _outcome(project, *args):
    """The projection or its NumericError residual, and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = project(*args)
        except NumericError as exc:
            out = ("NumericError", exc.residual)
    return out, [str(w.message) for w in caught]


class TestLpProjectionPins:
    """The in-place solve returns exactly the bits of the first-written one."""

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8, 2.5, 4.0, 10.0])
    @pytest.mark.parametrize("d", [1, 2, 6, 33])
    def test_same_bits_as_reference(self, p, d):
        for name, v in _projection_pin_inputs(d).items():
            for radius in (0.3, 1.0):
                got, got_warnings = _outcome(project_lp_ball, v, p, radius)
                want, want_warnings = _outcome(_reference_project_lp_ball, v, p, radius)
                assert got_warnings == want_warnings, name
                if isinstance(want, tuple):
                    assert got == want, name
                    continue
                np.testing.assert_array_equal(got, want, err_msg=name)
                assert got.tobytes() == want.tobytes(), name  # signed zeros too


def _feasible_points(rng, d, p, radius, k):
    """k points of the lp ball, half of them on its boundary."""
    z = rng.standard_normal((k, d))
    z *= radius / lp_norm(z, p)[:, None]
    return z * np.where(np.arange(k) % 2, 1.0, rng.random(k))[:, None]


@st.composite
def _lp_inputs(draw):
    d = draw(st.integers(1, 30))
    coord = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    v = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
    scale = 10.0 ** draw(st.floats(-6.0, 3.0))
    p = draw(st.floats(1.05, 20.0))
    radius = 10.0 ** draw(st.floats(-2.0, 1.0))
    return v * scale, p, radius, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_lp_inputs())
def test_lp_projection_properties(case):
    v, p, radius, seed = case
    w = project_lp_ball(v, p, radius)
    assert w.tobytes() == _reference_project_lp_ball(v, p, radius).tobytes()
    if lp_norm(v, p) <= radius:
        np.testing.assert_array_equal(w, v)
        return
    assert abs(lp_norm(w, p) - radius) <= 1e-10
    # signs kept, magnitudes shrunk, zeros stay zero
    assert np.all(w * v >= 0.0) and np.all(np.abs(w) <= np.abs(v))
    np.testing.assert_allclose(project_lp_ball(w, p, radius), w, rtol=0.0, atol=1e-9)
    # variational inequality <v - w, u - w> <= 0 for every u in the ball,
    # up to rounding that grows with the length of v - w
    u = _feasible_points(np.random.default_rng(seed), v.size, p, radius, 20)
    slack = 1e-8 * max(1.0, float(np.linalg.norm(v - w)))
    assert np.max((u - w) @ (v - w)) <= slack


class TestBallSets:
    @pytest.mark.parametrize(
        "ball",
        [L2Ball(2.0, 6), L1Ball(1.5, 6), LpBall(1.5, 1.0, 6)],
    )
    def test_projection_idempotent(self, ball):
        rng = np.random.default_rng(3)
        for _ in range(30):
            v = rng.standard_normal(6) * 4
            w = ball.project(v)
            np.testing.assert_allclose(ball.project(w), w, atol=1e-9)
            assert ball.gauge(w * (1 - 1e-12)) <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "ball",
        [L2Ball(2.0, 6), L1Ball(1.5, 6), LpBall(1.5, 1.0, 6)],
    )
    def test_support_gauge_duality(self, ball):
        # <x, y> <= gauge(x) * support(y)
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            assert x @ y <= ball.gauge(x) * ball.support(y) + 1e-9

    @pytest.mark.parametrize("make", [lambda d: L2Ball(1.0, d), lambda d: L1Ball(1.0, d),
                                      lambda d: LpBall(1.5, 1.0, d)], ids=["l2", "l1", "lp"])
    @pytest.mark.parametrize("d", [0, -3, 2.5])
    def test_refuses_a_dimension_that_is_not_a_positive_integer(self, make, d):
        with pytest.raises(ValueError, match="dimension d must be a positive integer"):
            make(d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_l2_projection_refuses_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            L2Ball(1.0, 3).project(np.array([0.5, bad, 0.0]))

    def test_l2_projection_of_huge_input_lies_on_the_sphere(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = L2Ball(1.0, 20).project(np.full(20, 1e200))
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
        np.testing.assert_allclose(w, np.full(20, 1.0 / math.sqrt(20.0)), rtol=1e-12)

    @pytest.mark.parametrize("entry", [1e300, 1e305, 1e308])
    @pytest.mark.parametrize(
        "ball,exponent",
        [
            (L2Ball(1.0, 20), 2.0),
            (L1Ball(1.0, 20), 1.0),
            (LpBall(1.5, 1.0, 20), 1.5),
            (LpBall(3.0, 1.0, 20), 3.0),
            (LpBall(3.0, 1e-3, 20), 3.0),
        ],
        ids=["l2", "l1", "lp1.5", "lp3", "lp3-small"],
    )
    def test_projection_of_huge_input(self, ball, exponent, entry):
        # At 1e308 the norm itself overflows; at 1e300 the l1 threshold would
        # be the difference of two numbers near 1e301; at p = 3 the KKT
        # multiplier nu = ||v||_q / (p R^(p-1)) leaves the float range.  All
        # project to the point with all coordinates equal on the sphere.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = ball.project(np.full(20, entry))
        np.testing.assert_allclose(w, np.full(20, ball.radius * 20.0 ** (-1.0 / exponent)), rtol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "ball", [L2Ball(1.0, 20), L1Ball(1.0, 20), LpBall(1.5, 1.0, 20)], ids=["l2", "l1", "lp1.5"]
    )
    def test_projection_refuses_non_finite_input(self, ball, bad):
        v = np.full(20, 1e308)
        v[3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in (v, np.where(np.isfinite(v), 0.5, v)):
                with pytest.raises(ValueError, match="non-finite"):
                    ball.project(u)

    def test_support_positively_homogeneous(self):
        ball = L1Ball(1.0, 5)
        xi = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        assert ball.support(3.0 * xi) == pytest.approx(3.0 * ball.support(xi))

    def test_l2_geometry(self):
        ball = L2Ball(2.0, 8)
        assert ball.diameter_primal(2.0) == pytest.approx(4.0)
        assert ball.c_min == pytest.approx(2.0)
        assert ball.c_min <= ball.diameter_primal(2.0)

    def test_l1_geometry(self):
        ball = L1Ball(1.0, 4)
        assert ball.diameter_primal(2.0) == pytest.approx(2.0)
        # boundary point closest to the origin is a face center
        assert ball.c_min == pytest.approx(0.5)
        assert ball.diameter_primal(1.5) == pytest.approx(2.0)

    def test_lp_geometry(self):
        ball = LpBall(1.5, 1.0, 4)
        # primal diameter in its own norm
        assert ball.diameter_primal(1.5) == pytest.approx(2.0)
        # l2 extremes: vertices for p < 2
        assert ball.diameter_primal(2.0) == pytest.approx(2.0)
        assert ball.c_min == pytest.approx(4.0 ** (0.5 - 1 / 1.5))

    def test_support_batched(self):
        ball = L2Ball(1.0, 3)
        xi = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]])
        np.testing.assert_allclose(ball.support(xi), [5.0, 2.0])
