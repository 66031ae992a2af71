"""Kolmogorov and Levy distances between two CDF curves on one grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inversion import SpectralCurve, grid_spacing


@dataclass(frozen=True)
class DistanceReport:
    kolmogorov: float
    levy: float
    grid_points: int


def _step_eval(grid: np.ndarray, cdf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Right-continuous step interpolation, clamped to the end values."""
    return cdf[np.maximum(np.searchsorted(grid, x, side="right") - 1, 0)]


def _levy_feasible(a: SpectralCurve, fb: np.ndarray, eps: float) -> bool:
    lo = _step_eval(a.grid, a.cdf, a.grid - eps) - eps
    hi = _step_eval(a.grid, a.cdf, a.grid + eps) + eps
    return bool(np.all(lo <= fb + 1e-15) and np.all(fb <= hi + 1e-15))


def compare(a: SpectralCurve, b: SpectralCurve) -> DistanceReport:
    """Kolmogorov and Levy distances of two CDF curves on one grid.

    Kolmogorov: max over the grid of |F_a - F_b|.
    Levy: the smallest eps (to grid resolution) with
    F_a(x-eps)-eps <= F_b(x) <= F_a(x+eps)+eps, checked in both orientations
    and bisected to a quarter of the grid spacing from eps = Kolmogorov,
    which is always feasible, so Levy never exceeds Kolmogorov.
    """
    if a.cdf is None or b.cdf is None:
        raise ValueError("both curves must carry CDF values")
    if not np.array_equal(a.grid, b.grid):
        raise ValueError("curves must share one grid")
    grid, fa, fb = a.grid, a.cdf, b.cdf
    kol = float(np.abs(fa - fb).max())
    lo, lev = 0.0, kol
    tol = max((grid_spacing(grid) if len(grid) > 1 else kol) / 4.0, 1e-15)
    while lev > 0.0 and lev - lo > tol:
        mid = 0.5 * (lo + lev)
        if _levy_feasible(a, fb, mid) and _levy_feasible(b, fa, mid):
            lev = mid
        else:
            lo = mid
    if lev > kol + 1e-12:
        raise RuntimeError(f"levy {lev} exceeds kolmogorov {kol}")
    return DistanceReport(kolmogorov=kol, levy=lev, grid_points=len(grid))
