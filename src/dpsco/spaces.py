"""lp geometry: norms, regularity constants, mirror potentials and Bregman divergences.

The mirror solvers run in lp for 1 < p <= 2 (problems with 2 <= p <= inf
take the Euclidean reduction), with the mirror potential

    Phi(w) = (c/2) * ||w||_p^2,    c = 1/(p-1)

(equivalently c = q - 1 with q the dual exponent).  This weight makes Phi
exactly 1-strongly convex with respect to ||.||_p, which is the property
every solver in this package leans on; at p = 2 it is the Euclidean
potential (1/2)||w||_2^2.  Each map acts along the last axis, so the rows
of a 2-D array are points.

The regularity constant ``kappa`` of the dual space is kept separate from
the potential: it is capped logarithmically in the dimension and only
enters noise calibration.  The noise norm index is r_noise = kappa + 1.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceSpec",
    "lp_norm",
    "phi",
    "grad_phi",
    "inv_grad_phi",
    "bregman",
]

# Magnitudes below this are flushed to zero before fractional powers are
# taken; keeps |w|^(p-1) out of the subnormal range without affecting any
# tolerance used here (roundtrips are checked at 1e-8).
_FLUSH = 1e-300


def lp_norm(v, p):
    """lp norm of ``v`` along its last axis; p may be any real >= 1 or ``inf``.

    Raises ValueError on non-finite input or p < 1.  The arithmetic runs in
    place in one temporary, in the operation order of the plain
    "scale by the max, power, sum, root" evaluation.
    """
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("lp_norm: input has non-finite entries")
    if p != math.inf and p < 1:
        raise ValueError(f"lp_norm: p must be >= 1 or inf, got {p}")
    a = np.abs(v)
    if p == math.inf:
        return a.max(axis=-1)
    if p == 1:
        return a.sum(axis=-1)
    # Scale out the max to keep a**p in range, p = 2 included: the squares of
    # 1e200 overflow and those of 1e-200 underflow.  Both steps run in place
    # in ``a``, the one full-size temporary; an all-zero slice is divided by
    # 1.  ``**=`` keeps numpy's fast path (a square) for p = 2.
    m = a.max(axis=-1, keepdims=True)
    m[m == 0] = 1.0
    a /= m
    a **= p
    return m.squeeze(-1) * a.sum(axis=-1) ** (1.0 / p)


def dual_exponent(p):
    """q with 1/p + 1/q = 1 (q = inf when p = 1, q = 1 when p = inf)."""
    if p == math.inf:
        return 1.0
    if p == 1:
        return math.inf
    return p / (p - 1.0)


@dataclass(frozen=True)
class SpaceSpec:
    """Geometry of the ambient lp^d space a mirror solver runs in, 1 < p <= 2.

    Parameters
    ----------
    p : float
        Primal norm exponent, in (1, 2].  Problems with 2 <= p <= inf run
        through the Euclidean reduction (``lipschitz_high_p``) instead.
    d : int
        Ambient dimension.

    Derived constants (properties)
    ------------------------------
    q : dual exponent p/(p-1), so 1/p + 1/q = 1.
    kappa : regularity constant of the dual space, min{1/(p-1), 2 ln d}
        (the cap is skipped at d = 1, where ln d = 0 would be degenerate).
        kappa >= 1 since p <= 2.
    r_noise : norm index of the generalized Gaussian noise, kappa + 1.
    potential_weight : coefficient c = 1/(p-1) of Phi = (c/2)||.||_p^2.

    At p = 2 these are the Euclidean q = 2, kappa = 1, r_noise = 2, c = 1.
    """

    p: float
    d: int

    def __post_init__(self):
        if not (1.0 < self.p <= 2.0):
            raise ValueError(f"SpaceSpec: p must be in (1, 2], got {self.p}")
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"SpaceSpec: d must be a positive integer, got {self.d}")

    @property
    def q(self):
        return self.p / (self.p - 1.0)

    @property
    def kappa(self):
        cap = 2.0 * math.log(self.d) if self.d >= 2 else math.inf
        return min(1.0 / (self.p - 1.0), cap)

    @property
    def r_noise(self):
        return self.kappa + 1.0  # == min{q, 2 ln(d) + 1}

    @property
    def potential_weight(self):
        return 1.0 / (self.p - 1.0)


def phi(w, spec):
    """Mirror potential Phi(w) = (c/2)||w||_p^2."""
    return 0.5 * spec.potential_weight * lp_norm(w, spec.p) ** 2


def _norm_power_gradient(v, a, weight):
    # weight * ||v||_a^(2-a) * |v_i|^(a-1) sign(v_i).  The map is
    # 1-homogeneous, so it is evaluated on u = v/max|v| and rescaled once;
    # fractional powers then stay in range even for exponents near 10.
    # max|u| is exactly 1, so ||u||_a needs no further scaling.  A zero slice
    # is divided by 1 and keeps a norm of 1.
    v = np.asarray(v, dtype=float)
    safe = np.abs(v).max(axis=-1, keepdims=True)
    if not np.isfinite(safe).all():
        raise ValueError("lp_norm: input has non-finite entries")
    zero = safe == 0
    safe[zero] = 1.0
    u = v / safe
    b = np.abs(u)
    nr = ((b**a).sum(axis=-1) ** (1.0 / a)).reshape(safe.shape)
    nr[zero] = 1.0
    b[b < _FLUSH] = 0.0
    b **= a - 1.0
    b *= np.sign(u)
    return weight * safe * nr ** (2.0 - a) * b


def grad_phi(w, spec):
    """Gradient of the mirror potential.

    grad Phi(w) = c * ||w||_p^{2-p} * (|w_i|^{p-1} sign(w_i))_i, and 0 at 0.
    """
    return _norm_power_gradient(w, spec.p, spec.potential_weight)


def inv_grad_phi(y, spec):
    """Inverse mirror map, i.e. grad Phi* with Phi*(y) = (1/(2c))||y||_q^2:

    grad Phi*(y) = (1/c) * ||y||_q^{2-q} * (|y_i|^{q-1} sign(y_i))_i.
    """
    return _norm_power_gradient(y, spec.q, 1.0 / spec.potential_weight)


def bregman(y, x, spec):
    """Bregman divergence D_Phi(y, x) = Phi(y) - Phi(x) - <grad Phi(x), y - x>.

    Nonnegative (clamped against roundoff), zero iff y == x.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    inner = (grad_phi(x, spec) * (y - x)).sum(axis=-1)
    val = phi(y, spec) - phi(x, spec) - inner
    return np.maximum(val, 0.0)
