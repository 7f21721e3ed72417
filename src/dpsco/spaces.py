"""lp geometry: norms, regularity constants, mirror potentials and Bregman divergences.

The mirror potential used throughout is

    Phi(w) = (c/2) * ||w||_s^2,

where for 1 < p < 2 the exponent is s = p and the weight is c = 1/(p-1)
(equivalently c = q - 1 with q the dual exponent).  This pair makes Phi
exactly 1-strongly convex with respect to ||.||_p, which is the property
every solver in this package leans on.  For p >= 2 the potential degrades
gracefully to the Euclidean one (s = 2, c = 1).

The regularity constant ``kappa`` of the dual space is kept separate from
the potential: it is capped logarithmically in the dimension and only
enters noise calibration.  The noise norm index is r_noise = kappa + 1.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpaceSpec",
    "lp_norm",
    "phi",
    "phi_conjugate",
    "grad_phi",
    "inv_grad_phi",
    "bregman",
]

# Magnitudes below this are flushed to zero before fractional powers are
# taken; keeps |w|^(s-1) out of the subnormal range without affecting any
# tolerance used here (roundtrips are checked at 1e-8).
_FLUSH = 1e-300


def lp_norm(v, p, axis=-1):
    """lp norm of ``v`` along ``axis``; p may be any real >= 1 or ``inf``.

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
        return a.max(axis=axis)
    if p == 1:
        return a.sum(axis=axis)
    # Scale out the max to keep a**p in range, p = 2 included: the squares of
    # 1e200 overflow and those of 1e-200 underflow.  Both steps run in place
    # in ``a``, the one full-size temporary; an all-zero slice is divided by
    # 1.  ``**=`` keeps numpy's fast path (a square) for p = 2.
    m = a.max(axis=axis, keepdims=True)
    m[m == 0] = 1.0
    a /= m
    a **= p
    return m.squeeze(axis) * a.sum(axis=axis) ** (1.0 / p)


def dual_exponent(p):
    """q with 1/p + 1/q = 1 (q = inf when p = 1, q = 1 when p = inf)."""
    if p == math.inf:
        return 1.0
    if p == 1:
        return math.inf
    return p / (p - 1.0)


@dataclass(frozen=True)
class SpaceSpec:
    """Geometry of the ambient lp^d space and its derived constants.

    Parameters
    ----------
    p : float
        Primal norm exponent, in (1, inf].
    d : int
        Ambient dimension.

    Attributes (derived)
    --------------------
    q : dual exponent, 1/p + 1/q = 1.
    kappa : regularity constant of the dual space,
        min{1/(p-1), 2 ln d} for 1 < p < 2 (the cap is skipped at d = 1
        where ln d = 0 would be degenerate).  For p >= 2 it is the
        primal-space constant min{p-1, 2 ln d}, floored at 1.
    r_noise : norm index of the generalized Gaussian noise, kappa + 1 on
        the dual side for 1 < p < 2.
    s : mirror-potential norm index (p for 1 < p < 2, else 2).
    potential_weight : coefficient c of Phi = (c/2)||.||_s^2.
    """

    p: float
    d: int
    q: float = field(init=False)
    kappa: float = field(init=False)
    r_noise: float = field(init=False)
    s: float = field(init=False)
    potential_weight: float = field(init=False)

    def __post_init__(self):
        if not (self.p > 1.0):
            raise ValueError(f"SpaceSpec: p must be in (1, inf], got {self.p}")
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"SpaceSpec: d must be a positive integer, got {self.d}")
        object.__setattr__(self, "d", int(self.d))
        q = dual_exponent(self.p)
        object.__setattr__(self, "q", q)
        cap = 2.0 * math.log(self.d) if self.d >= 2 else math.inf
        if self.p < 2:
            kappa = min(1.0 / (self.p - 1.0), cap)
            r_noise = kappa + 1.0  # == min{q, 2 ln(d) + 1}
            s = self.p
            weight = 1.0 / (self.p - 1.0)
        else:
            kappa = max(1.0, min(self.p - 1.0, cap) if self.p != math.inf else cap)
            r_noise = min(q, 2.0)  # informational: the p >= 2 solvers do not draw GG noise
            s = 2.0
            weight = 1.0
        if kappa < 1.0:
            raise ValueError("SpaceSpec: derived kappa < 1; check (p, d)")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "r_noise", r_noise)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "potential_weight", weight)

    @property
    def s_conjugate(self):
        """Dual exponent of the potential index s (the mirror map's range)."""
        return dual_exponent(self.s)


def phi(w, spec, axis=-1):
    """Mirror potential Phi(w) = (c/2)||w||_s^2."""
    return 0.5 * spec.potential_weight * lp_norm(w, spec.s, axis=axis) ** 2


def phi_conjugate(y, spec, axis=-1):
    """Convex conjugate Phi*(y) = (1/(2c))||y||_{s'}^2 with s' dual to s."""
    return (0.5 / spec.potential_weight) * lp_norm(y, spec.s_conjugate, axis=axis) ** 2


def _norm_power_gradient(v, expo_norm, expo_coord, weight, axis=-1):
    # weight * ||v||_a^(2-a) * |v_i|^(a-1) sign(v_i) with a = expo_norm and
    # expo_coord = a - 1.  The map is 1-homogeneous, so it is evaluated on
    # u = v/max|v| and rescaled once; fractional powers then stay in range
    # even for exponents near 10.  max|u| is exactly 1, so ||u||_a needs no
    # further scaling.  A zero slice is divided by 1 and keeps a norm of 1.
    v = np.asarray(v, dtype=float)
    safe = np.abs(v).max(axis=axis, keepdims=True)
    if not np.isfinite(safe).all():
        raise ValueError("lp_norm: input has non-finite entries")
    zero = safe == 0
    safe[zero] = 1.0
    u = v / safe
    a = np.abs(u)
    nr = ((a**expo_norm).sum(axis=axis) ** (1.0 / expo_norm)).reshape(safe.shape)
    nr[zero] = 1.0
    a[a < _FLUSH] = 0.0
    a **= expo_coord
    a *= np.sign(u)
    return weight * safe * nr ** (2.0 - expo_norm) * a


def grad_phi(w, spec, axis=-1):
    """Gradient of the mirror potential.

    grad Phi(w) = c * ||w||_s^{2-s} * (|w_i|^{s-1} sign(w_i))_i, and 0 at 0.
    """
    return _norm_power_gradient(
        w, spec.s, spec.s - 1.0, spec.potential_weight, axis=axis
    )


def inv_grad_phi(y, spec, axis=-1):
    """Inverse mirror map, i.e. grad Phi*.

    With s' the dual exponent of s:
    grad Phi*(y) = (1/c) * ||y||_{s'}^{2-s'} * (|y_i|^{s'-1} sign(y_i))_i.
    """
    sc = spec.s_conjugate
    return _norm_power_gradient(y, sc, sc - 1.0, 1.0 / spec.potential_weight, axis=axis)


def bregman(y, x, spec, axis=-1):
    """Bregman divergence D_Phi(y, x) = Phi(y) - Phi(x) - <grad Phi(x), y - x>.

    Nonnegative (clamped against roundoff), zero iff y == x.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    inner = (grad_phi(x, spec, axis=axis) * (y - x)).sum(axis=axis)
    val = phi(y, spec, axis=axis) - phi(x, spec, axis=axis) - inner
    return np.maximum(val, 0.0)
