"""Model-comparison metrics of the ablation harness."""

from __future__ import annotations

import numpy as np


def rmse(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def mean_abs_gradient(grid: np.ndarray) -> float:
    """Mean |difference| over all adjacent cell pairs, both axes pooled."""
    grid = np.asarray(grid, dtype=float)
    diffs = np.concatenate([np.abs(np.diff(grid, axis=axis)).ravel() for axis in (0, 1)])
    return float(diffs.mean()) if diffs.size else 0.0
