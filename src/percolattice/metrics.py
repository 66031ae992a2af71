"""Kolmogorov and Levy distances between two CDFs on one grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inversion import grid_spacing, on_grid


@dataclass(frozen=True)
class DistanceReport:
    kolmogorov: float
    levy: float


def _step_eval(grid: np.ndarray, cdf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Right-continuous step interpolation, clamped to the end values."""
    return cdf[np.maximum(np.searchsorted(grid, x, side="right") - 1, 0)]


def _levy_feasible(grid: np.ndarray, fa: np.ndarray, fb: np.ndarray, eps: float) -> bool:
    lo = _step_eval(grid, fa, grid - eps) - eps
    hi = _step_eval(grid, fa, grid + eps) + eps
    return bool(np.all(lo <= fb + 1e-15) and np.all(fb <= hi + 1e-15))


def _checked_cdf(grid, cdf) -> tuple[np.ndarray, np.ndarray]:
    grid, cdf = on_grid(grid, cdf, "cdf")
    in_range = np.all((cdf >= -1e-9) & (cdf <= 1 + 1e-9))  # False at NaN
    if not in_range or np.any(np.diff(cdf) < -1e-9):
        raise ValueError("cdf must be nondecreasing within [0, 1]")
    return grid, cdf


def compare(grid, cdf_a, cdf_b) -> DistanceReport:
    """Kolmogorov and Levy distances of two CDFs on one ascending grid.

    Kolmogorov: max over the grid of |F_a - F_b|.
    Levy: the smallest eps (to grid resolution) with
    F_a(x-eps)-eps <= F_b(x) <= F_a(x+eps)+eps, checked in both orientations
    and bisected to a quarter of the grid spacing from eps = Kolmogorov,
    which is always feasible, so Levy never exceeds Kolmogorov. ValueError
    unless the grid is finite and strictly ascending and each CDF has its
    length and is nondecreasing within [0, 1] (to 1e-9; NaN is refused).
    """
    _, fa = _checked_cdf(grid, cdf_a)
    grid, fb = _checked_cdf(grid, cdf_b)
    kol = float(np.abs(fa - fb).max())
    lo, lev = 0.0, kol
    tol = max((grid_spacing(grid) if len(grid) > 1 else kol) / 4.0, 1e-15)
    while lev > 0.0 and lev - lo > tol:
        mid = 0.5 * (lo + lev)
        if _levy_feasible(grid, fa, fb, mid) and _levy_feasible(grid, fb, fa, mid):
            lev = mid
        else:
            lo = mid
    if lev > kol + 1e-12:
        raise RuntimeError(f"levy {lev} exceeds kolmogorov {kol}")
    return DistanceReport(kolmogorov=kol, levy=lev)
