"""White-box privacy-loss estimates for the generalized Gaussian releases.

Neighbouring datasets differ in one replaced row.  A release adds noise with
density proportional to exp(-||z||_r^2 / (2 sigma^2)) to a query that moves
by Delta between neighbours, so the privacy loss at the noise draw z is

    L(z) = (||z - Delta||_r^2 - ||z||_r^2) / (2 sigma^2),

and for that shift the release is (eps, delta(eps))-DP with

    delta(eps) = E_{z ~ GG}[(1 - e^{eps - L(z)})_+].

A T-fold release sums the losses of T independent draws.  The shifts tried
here are probes of the sensitivity's dual norm (along e_1 and along the
all-ones vector), so an estimate is a lower bound on the worst case over
shifts, not a certificate of privacy: it can catch an under-noised release,
and it cannot prove one private.
"""

import math

import numpy as np
import pytest

from dpsco.mechanisms import GGNoiseSpec, PrivacyBudget, gg_calibrate, gg_sample
from dpsco.mirror import noisy_reg_md
from dpsco.problems import PseudoHuberLoss
from dpsco.spaces import SpaceSpec, lp_norm

DELTA = 1e-5
EPSILONS = (0.5, 1.0)


def _probes(d, q):
    """Unit shifts in the dual norm l_q: along e_1 and along the all-ones vector."""
    ones = np.ones(d)
    return {"e1": np.eye(d)[0], "ones": ones / lp_norm(ones, q)}


def _unit_draws(space, rng, size):
    # GG(sigma^2) is sigma times GG(1), so one set of draws serves every sigma.
    return gg_sample(GGNoiseSpec(sigma2=1.0, r=space.r_noise, d=space.d), rng, size=size)


def _delta_estimate(sigma2, r, shift, eps, unit, T=1):
    """(estimate, standard error) of delta(eps) for the T-fold release, from len(unit) / T draws."""
    z = math.sqrt(sigma2) * unit
    loss = (lp_norm(z - shift, r) ** 2 - lp_norm(z, r) ** 2) / (2.0 * sigma2)
    total = loss.reshape(-1, T).sum(axis=1)
    terms = -np.expm1(np.minimum(eps - total, 0.0))  # (1 - e^{eps - L})_+ without overflow
    return float(terms.mean()), float(terms.std(ddof=1)) / math.sqrt(len(total))


def _gg_calibrate_estimates(p, d, shift_factor):
    """delta(eps) estimates of gg_calibrate(s) for shifts of dual norm shift_factor * s."""
    space, s = SpaceSpec(p, d), 0.3
    unit = _unit_draws(space, np.random.default_rng(round(100 * p) + d), 50_000)
    for probe, direction in _probes(d, space.q).items():
        for eps in EPSILONS:
            sigma2 = gg_calibrate(s, space.kappa, PrivacyBudget(eps, DELTA))
            est, se = _delta_estimate(sigma2, space.r_noise, shift_factor * s * direction, eps, unit)
            yield (probe, eps), est, se


@pytest.mark.parametrize("p, d", [(1.5, 6), (1.5, 20), (1.8, 6), (1.8, 20)])
def test_gg_calibrate_at_its_own_sensitivity(p, d):
    for case, est, se in _gg_calibrate_estimates(p, d, 1.0):
        assert est + 3.0 * se <= DELTA, case


def test_estimator_sees_a_release_calibrated_to_half_its_shift():
    # The positive control: noise calibrated to s against a shift of 2s is the
    # replace-one mistake of a sensitivity stated for add-or-remove neighbours.
    for case, est, se in _gg_calibrate_estimates(1.8, 6, 2.0):
        assert est - 3.0 * se > DELTA, case


@pytest.mark.parametrize("p, d", [(1.5, 6), (1.8, 20)])
def test_noisy_reg_md_t_fold_release(p, d):
    # Each step releases the empirical gradient plus one GG draw; replacing a
    # row moves the gradient by at most 2 L / n in the dual norm.  The noise
    # scale and T are read from the solver's schedule.
    n, space = 256, SpaceSpec(p, d)
    loss = PseudoHuberLoss(huber_delta=3.0, feature_dual_bound=1.0, norm_p=p)
    rng = np.random.default_rng(round(100 * p) + d)
    for eps in EPSILONS:
        s = noisy_reg_md.schedule(n, d, loss, None, PrivacyBudget(eps, DELTA))
        assert s.r_noise == space.r_noise and s.T > 1
        unit = _unit_draws(space, rng, 30_000 * s.T)
        for probe, direction in _probes(d, space.q).items():
            shift = 2.0 * loss.lipschitz / n * direction
            est, se = _delta_estimate(s.sigma2, s.r_noise, shift, eps, unit, s.T)
            assert est + 3.0 * se <= DELTA, (probe, eps)
