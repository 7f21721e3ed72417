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

    Raises ValueError on non-finite input or p < 1.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("lp_norm: input has non-finite entries")
    if p != math.inf and p < 1:
        raise ValueError(f"lp_norm: p must be >= 1 or inf, got {p}")
    a = np.abs(v)
    if p == math.inf:
        return a.max(axis=axis)
    if p == 1:
        return a.sum(axis=axis)
    # Scale out the max to keep a**p in range, p = 2 included: the squares of
    # 1e200 overflow and those of 1e-200 underflow.
    m = a.max(axis=axis, keepdims=True)
    safe = np.where(m > 0, m, 1.0)
    s = ((a / safe) ** p).sum(axis=axis)
    return np.squeeze(safe, axis=axis) * s ** (1.0 / p)


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


def _signed_power(v, expo):
    """|v_i|^expo * sign(v_i), with tiny magnitudes flushed to zero.

    The caller scales v by its max magnitude first, so the power stays in the
    representable range even for expo around 10 (p close to 1).
    """
    a = np.abs(v)
    a = np.where(a < _FLUSH, 0.0, a)
    with np.errstate(invalid="ignore"):
        out = np.where(a > 0, a**expo, 0.0)
    return out * np.sign(v)


def phi(w, spec, axis=-1):
    """Mirror potential Phi(w) = (c/2)||w||_s^2."""
    return 0.5 * spec.potential_weight * lp_norm(w, spec.s, axis=axis) ** 2


def phi_conjugate(y, spec, axis=-1):
    """Convex conjugate Phi*(y) = (1/(2c))||y||_{s'}^2 with s' dual to s."""
    return (0.5 / spec.potential_weight) * lp_norm(y, spec.s_conjugate, axis=axis) ** 2


def _norm_power_gradient(v, expo_norm, expo_coord, weight, axis=-1):
    # weight * ||v||_a^(2-a) * |v_i|^(a-1) sign(v_i) with a = expo_norm and
    # expo_coord = a - 1.  The map is 1-homogeneous, so it is evaluated on
    # v/max|v| and rescaled once; fractional powers then stay in range even
    # for exponents near 10.
    v = np.asarray(v, dtype=float)
    m = np.abs(v).max(axis=axis, keepdims=True)
    safe = np.where(m > 0, m, 1.0)
    u = v / safe
    nr = lp_norm(u, expo_norm, axis=axis)
    nr = np.expand_dims(np.asarray(nr), axis=axis)
    # nr is 0 only where u is 0, whose signed powers are 0 already.
    scale = np.where(nr > 0, nr, 1.0) ** (2.0 - expo_norm)
    return weight * safe * scale * _signed_power(u, expo_coord)


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
