"""Norm-ball constraint sets: projections, support functions, gauges.

Every ball exposes Euclidean projection, the support function
h_C(xi) = sup_{w in C} <xi, w>, the Minkowski gauge (the norm whose unit
ball is C), diameters, and the distance from origin to the boundary.
"""

import math

import numpy as np

from ..errors import NumericError
from ..spaces import dual_exponent, lp_norm

__all__ = ["ConstraintSet", "L2Ball", "L1Ball", "LpBall", "project_l1_ball", "project_lp_ball"]


def _project_rescaled(project, v, *lengths):
    """``project(v, *lengths)`` for a finite v whose norm overflows.

    ``lengths`` are the radius and any absolute tolerance.  Uses the exact
    identity P_{R B}(v) = c P_{(R/c) B}(v/c) with c = 2^k > v.size: each
    |v_i / c| is below max|v| / v.size, so even the l1 norm of v / c is
    finite, and dividing by a power of two rounds nothing above the
    subnormal range.  NaN or inf entries raise ValueError.
    """
    if not np.all(np.isfinite(v)):
        raise ValueError("projection: input has non-finite entries")
    c = math.ldexp(1.0, v.size.bit_length())
    return c * project(v / c, *(x / c for x in lengths))


def _project_l2_ball(v, radius):
    """Euclidean projection onto {||w||_2 <= radius}: radial scaling."""
    # hypot scales as it sums, so a finite v whose squared norm would
    # overflow or underflow still gets its norm, without a warning.
    nrm = math.hypot(*v.tolist())
    if nrm <= radius:
        return v.copy()
    if not math.isfinite(nrm):
        return _project_rescaled(_project_l2_ball, v, radius)
    return v * (radius / nrm)


def project_l1_ball(v, radius):
    """Euclidean projection onto {||w||_1 <= radius} by sort-and-threshold.

    The projection is sign(v) * max(|v| - theta, 0), with theta the largest
    threshold that leaves an l1 norm of ``radius``.  It is computed as
    top - level from the gaps top - |v_i| below the largest entry ``top``,
    so that when ||v||_1 >> radius the kept coordinates are not the small
    difference of two large numbers.
    """
    if radius <= 0:
        raise ValueError("project_l1_ball: radius must be > 0")
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    top = float(a.max())
    # ||v||_1 and every partial sum of gaps below are at most d * top.
    if not math.isfinite(top * v.size):
        return _project_rescaled(project_l1_ball, v, radius)
    if a.sum() <= radius:
        return v.copy()
    gaps = np.sort(top - a)
    # Keeping the k largest entries needs level (radius + sum of their gaps) / k;
    # they are kept while their largest gap is below it, which holds for a
    # prefix of k that always contains k = 1 (gap 0 < radius).
    level = (radius + np.cumsum(gaps)) / np.arange(1, v.size + 1)
    kept = gaps < level
    rho = v.size if kept.all() else int(np.argmin(kept))
    return np.sign(v) * np.maximum(level[rho - 1] - (top - a), 0.0)


_EPS = np.finfo(float).eps
_INNER_CAP = 100
_OUTER_CAP = 100


def _radial_coordinates(a, p, radius):
    """Return ``roots(m)``: the t with t + m * (t / radius)^(p-1) = a, per coordinate of a > 0.

    The left side increases in t from 0 at t = 0 and is >= a at
    t0 = min(a, radius * (a / m)^(1/(p-1))), so each root lies in [0, t0]:
    started at t = a, Newton would shrink t only by a factor of about
    (p-2)/(p-1) per step at large p.  Newton runs on the left side divided
    by a, A + B - 1 with A = t / a and B = m (t / radius)^(p-1) / a, which
    both lie in [0, 1] on [0, t0], so no intermediate quantity leaves the
    float range however large a / t is; a Newton step subtracts
    t (A + B - 1) / (A + (p-1) B) from t.  The bracket [lo, hi] is closed, so
    a converged step landing on one of its ends is kept; a step leaving it
    is replaced by bisection.  ``roots(m)`` returns t and the elasticity
    -d ln t / d ln m = B / (A + (p-1) B), taken at the iterate before the
    last (which moved t by at most 4 eps a), and 0 where t = 0.

    The arithmetic runs in place, in vectors allocated once per a, with the
    operations of the formulas above in their order.  Scalars enter as
    vectors, which numpy pairs with less overhead, except in ``**=``: its
    scalar-exponent fast paths (0.5, 2) round unlike a general power.  Each
    pair of tests is one comparison of stacked rows: rows (x, y, z) give
    [x <= y, y <= z], and |x| <= c is -c <= x <= c.
    """
    k = a.size
    pm1 = p - 1.0
    work = np.empty((6, k))  # A, B, S = A + B, den, t and m as a vector
    one, rad, pm1v = np.full((3, k), [[1.0], [radius], [pm1]])
    # Stacks [0, f, 0] with f = A + B - 1, [lo, step, hi] and
    # [-close, step - t, close], each tested by one comparison of its rows.
    fs, zs, ds = np.zeros((3, 3, k))
    f, diff = fs[1], ds[1]
    np.multiply(4.0 * _EPS, a, ds[2])
    np.negative(ds[2], ds[0])
    f_le, z_le, d_le = (fs[1:], fs[:2]), (zs[:2], zs[1:]), (ds[:2], ds[1:])
    flags = np.empty(2 * k, dtype=bool)
    left, right = pair = flags.reshape(2, k)  # the x <= y and y <= z halves of a test

    def roots(m):
        A, B, S, den, t, mv = work
        lo, step, hi = zs
        mv.fill(m)
        # t0 overflows to inf (then min gives a) or underflows to 0 (then the
        # root is below the smallest double and the bracket keeps t at 0,
        # where the Newton step is 0/0).
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(a, mv, hi)
            hi **= 1.0 / pm1
            hi *= rad
            np.minimum(a, hi, out=hi)
            lo.fill(0.0)
            np.copyto(step, hi)
            for _ in range(_INNER_CAP):
                np.copyto(t, step)
                np.divide(t, a, A)
                np.divide(t, rad, B)
                B **= pm1
                B *= mv
                B /= a
                np.add(A, B, S)
                np.subtract(S, one, f)
                np.multiply(pm1v, B, den)
                den += A
                np.less_equal(*f_le, pair)  # [f <= 0, 0 <= f]
                np.copyto(lo, t, where=left)
                np.copyto(hi, t, where=right)
                np.multiply(t, f, step)
                step /= den
                np.subtract(t, step, step)
                np.less_equal(*z_le, pair)  # [lo <= step, step <= hi]
                if False in flags.tolist():  # a step left the bracket, or is NaN
                    np.logical_and(left, right, left)
                    np.copyto(step, 0.5 * (lo + hi), where=~left)
                np.subtract(step, t, diff)
                np.less_equal(*d_le, pair)  # |step - t| <= close
                if False not in flags.tolist():
                    break
        return step.copy(), np.divide(B, den, out=np.zeros(k), where=den > 0)

    return roots


def project_lp_ball(v, p, radius, tol=1e-10):
    """Euclidean projection onto {||w||_p <= radius} for p in (1, inf).

    Returns a copy of ``v`` inside the ball and the exact radial scaling at
    p = 2.  Otherwise the projection is w = sign(v) * t, where t solves the
    KKT system t_i + nu*p*t_i^(p-1) = |v_i| and the multiplier nu > 0 makes
    ||t||_p = radius.  The multiplier is solved for as m = nu*p*radius^(p-1),
    which has the units of v and stays in the float range whenever ||v||_q
    does (nu itself overflows when ||v||_q / radius^(p-1) does).  Two
    bracketed Newton solves find it:

    * inner, per coordinate: t(m) for a given m (``_radial_coordinates``);
    * outer, on m: Newton on g(m) = (radius / ||t(m)||_p)^(p-1) - 1 with
      m g'(m) = (p-1) (g+1) sum_i u_i^p e_i, u = t / ||t||_p and e_i the
      elasticity -d ln t_i / d ln m.  g is linear in m where
      t_i^(p-1) ~ |v_i| radius^(p-1) / m and close to linear near m = 0.
      Since 0 <= t <= |v| and m (t/radius)^(p-1) = |v| - t, the dual norm
      q = p/(p-1) brackets the root:
      (||v||_p - radius) * k^min(0, 1/q - 1/p) <= m <= ||v||_q,
      with k the number of nonzero coordinates of v.
      Newton starts at the lower end; a step leaving the bracket is
      replaced by bisection.

    The returned point satisfies | ||w||_p - radius | <= tol when the
    constraint is active.  A solve that cannot reach tol within its fixed
    iteration caps raises NumericError carrying the residual.
    """
    if not (1.0 < p < math.inf):
        raise ValueError("project_lp_ball: p must be in (1, inf)")
    if radius <= 0 or tol <= 0:
        raise ValueError("project_lp_ball: radius and tol must be > 0")
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf, handled below
        nrm = lp_norm(v, p)
    if nrm <= radius:
        return v.copy()
    if not math.isfinite(nrm):
        return _project_rescaled(lambda u, r, t: project_lp_ball(u, p, r, t), v, radius, tol)
    if p == 2.0:
        return v * (radius / nrm)

    nonzero = v != 0
    v_nonzero = v[nonzero]
    a = np.abs(v_nonzero)
    q = dual_exponent(p)
    m_lo = (nrm - radius) * a.size ** min(0.0, 1.0 / q - 1.0 / p)
    m_hi = lp_norm(a, q)

    roots = _radial_coordinates(a, p, radius)
    m = m_lo
    residual = math.inf
    for _ in range(_OUTER_CAP):
        t, elasticity = roots(m)
        norm_t = lp_norm(t, p)
        residual = abs(norm_t - radius)
        if residual <= tol:
            w = np.zeros_like(v)
            w[nonzero] = np.sign(v_nonzero) * t
            return w
        if norm_t > radius:
            m_lo = m
        else:
            m_hi = m
        g = (radius / norm_t) ** (p - 1.0)
        dg = g * (p - 1.0) * float(((t / norm_t) ** p * elasticity).sum())  # m g'(m)
        step = m - m * (g - 1.0) / dg if dg > 0 else math.nan
        if not m_lo <= step <= m_hi:
            step = 0.5 * (m_lo + m_hi)
        if step == m:
            break
        m = step
    raise NumericError(
        f"project_lp_ball: Newton solve did not reach tol={tol}", residual=residual
    )


class ConstraintSet:
    """Ball {||w||_a <= radius} for a norm exponent a; each subclass has its own ``project``."""

    def __init__(self, exponent, radius, d):
        if radius <= 0:
            raise ValueError("ball radius must be > 0")
        self.exponent = float(exponent)
        self.radius = float(radius)
        self.d = int(d)
        self._dual = dual_exponent(self.exponent)

    def support(self, xi):
        """h_C(xi) = sup_{w in C} <xi, w>."""
        return self.radius * lp_norm(xi, self._dual)

    def gauge(self, v):
        """Minkowski norm: min{r >= 0 : v in r*C}."""
        return lp_norm(v, self.exponent) / self.radius

    def contains(self, v, slack=1e-9):
        return self.gauge(v) <= 1.0 + slack

    @property
    def diameter_l2(self):
        # max ||v||_2 over the ball: r for a <= 2, r * d^(1/2 - 1/a) for a > 2.
        bump = max(0.0, 0.5 - 1.0 / self.exponent)
        return 2.0 * self.radius * self.d**bump

    def diameter_primal(self, p):
        """Diameter with respect to the ambient lp norm."""
        bump = max(0.0, 1.0 / p - 1.0 / self.exponent)
        return 2.0 * self.radius * self.d**bump

    @property
    def c_min(self):
        """Distance from the origin to the boundary."""
        # min ||v||_2 on the boundary: r * d^(1/2 - 1/a) for a <= 2, r above.
        bump = min(0.0, 0.5 - 1.0 / self.exponent)
        return self.radius * self.d**bump


class L2Ball(ConstraintSet):
    def __init__(self, radius, d):
        super().__init__(2.0, radius, d)

    def project(self, v):
        return _project_l2_ball(np.asarray(v, dtype=float), self.radius)


class L1Ball(ConstraintSet):
    def __init__(self, radius, d):
        super().__init__(1.0, radius, d)

    def project(self, v):
        return project_l1_ball(v, self.radius)


class LpBall(ConstraintSet):
    def __init__(self, exponent, radius, d):
        if not (1.0 < exponent < math.inf):
            raise ValueError("LpBall: exponent must be in (1, inf); use L1Ball/L2Ball otherwise")
        super().__init__(exponent, radius, d)

    def project(self, v):
        return project_lp_ball(v, self.exponent, self.radius)
