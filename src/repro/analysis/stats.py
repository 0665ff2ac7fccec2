"""Small statistics helpers for the "is it linear?" questions.

The headline claims are about growth rates (linear vs ``n log n`` vs
``n log log n``); :func:`linear_fit` provides least-squares slopes with a
coefficient of determination so benchmark tables can report measured
slopes next to the formulas' constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class LinearFit:
    """Result of a least-squares line fit ``y ≈ slope·x + intercept``."""

    slope: float
    intercept: float
    r_squared: float


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares fit of ``ys`` on ``xs``.

    Raises
    ------
    ValueError
        For fewer than two points or degenerate (constant) ``xs``.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be 1-D sequences of equal length")
    if len(x) < 2:
        raise ValueError("need at least two points to fit a line")
    if float(x.std()) == 0.0:
        raise ValueError("xs are constant; slope is undefined")
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=float(slope), intercept=float(intercept), r_squared=r_squared)
