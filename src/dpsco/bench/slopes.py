"""Log-log slope fitting for rate checks."""

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..errors import warn_at_caller

__all__ = ["SlopeFit", "fit_slope", "GROUP_ALIASES"]

GROUP_ALIASES = {
    "algo": "algorithm",
    "algorithm": "algorithm",
    "eps": "epsilon",
    "epsilon": "epsilon",
    "d": "d",
    "p": "p",
    "delta": "delta",
}


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r2: float
    n_cells: int


def fit_slope(records, group_keys):
    """OLS of log(mean excess risk) against log(n), per group.

    ``group_keys`` name record fields (aliases: algo, eps).  Refused records
    are skipped; cells whose mean excess risk is nonpositive are excluded
    with a warning.  Each group must span at least 3 distinct n values.
    Returns {group_tuple: SlopeFit}.
    """
    try:
        fields = [GROUP_ALIASES[k.strip()] for k in group_keys]
    except KeyError as exc:
        raise ValueError(f"unknown group key {exc.args[0]!r}") from exc

    cells = defaultdict(list)
    for r in records:
        if r.refused or r.excess_risk is None:
            continue
        key = tuple(getattr(r, f) for f in fields)
        cells[(key, r.n)].append(r.excess_risk)

    groups = defaultdict(dict)
    for (key, n), vals in cells.items():
        groups[key][n] = float(np.mean(vals))

    out = {}
    for key, by_n in groups.items():
        if len(by_n) < 3:
            raise ValueError(
                f"group {key}: need >= 3 distinct n values to fit a slope, got {len(by_n)}"
            )
        pts = []
        for n, mean_risk in sorted(by_n.items()):
            if mean_risk <= 0:
                warn_at_caller(f"group {key}: nonpositive mean excess risk at n={n}; cell excluded")
                continue
            pts.append((math.log(n), math.log(mean_risk)))
        if len(pts) < 3:
            warn_at_caller(f"group {key}: fewer than 3 usable cells after exclusion; skipped")
            continue
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        slope, intercept = np.polyfit(x, y, 1)
        pred = slope * x + intercept
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        out[key] = SlopeFit(float(slope), float(intercept), r2, len(pts))
    return out
