"""Loss models, constraint sets, data distributions and risk oracles."""

from .constraints import (
    ConstraintSet,
    L1Ball,
    L2Ball,
    LpBall,
    project_l1_ball,
    project_lp_ball,
)
from .distributions import BallCloud, Dataset, HeavyTailLinear, LogisticSphere
from .losses import LogisticLoss, LossModel, MeanPointLoss, PseudoHuberLoss
from .risk import (
    chi_mean,
    empirical_grad,
    empirical_risk,
    excess_population_risk,
    gaussian_width_mc,
    max_abs_gaussian_mean,
)

__all__ = [
    "ConstraintSet",
    "L1Ball",
    "L2Ball",
    "LpBall",
    "project_l1_ball",
    "project_lp_ball",
    "Dataset",
    "BallCloud",
    "LogisticSphere",
    "HeavyTailLinear",
    "LossModel",
    "LogisticLoss",
    "MeanPointLoss",
    "PseudoHuberLoss",
    "empirical_risk",
    "empirical_grad",
    "excess_population_risk",
    "gaussian_width_mc",
    "chi_mean",
    "max_abs_gaussian_mean",
]
