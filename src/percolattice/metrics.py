"""Kolmogorov and Levy distances between CDF curves on grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inversion import SpectralCurve


@dataclass(frozen=True)
class DistanceReport:
    kolmogorov: float
    levy: float
    grid_points: int


def _step_eval(grid: np.ndarray, cdf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Right-continuous step interpolation, clamped to the end values."""
    idx = np.searchsorted(grid, x, side="right") - 1
    out = np.where(idx < 0, cdf[0], cdf[np.clip(idx, 0, len(grid) - 1)])
    return out


def _shared_grid(a: SpectralCurve, b: SpectralCurve) -> np.ndarray:
    if a.cdf is None or b.cdf is None:
        raise ValueError("both curves must carry CDF values")
    lo = max(a.grid[0], b.grid[0])
    hi = min(a.grid[-1], b.grid[-1])
    if lo > hi:
        raise ValueError("curve grids have disjoint spans")
    if a.grid.shape == b.grid.shape and np.allclose(a.grid, b.grid):
        return a.grid
    pts = np.union1d(a.grid, b.grid)
    return pts[(pts >= lo) & (pts <= hi)]


def kolmogorov_distance(a: SpectralCurve, b: SpectralCurve) -> float:
    """sup over the shared grid of |F_a - F_b| (step interpolation)."""
    grid = _shared_grid(a, b)
    fa = _step_eval(a.grid, a.cdf, grid)
    fb = _step_eval(b.grid, b.cdf, grid)
    return float(np.abs(fa - fb).max())


def _levy_feasible(a: SpectralCurve, b: SpectralCurve, grid: np.ndarray, eps: float) -> bool:
    fb = _step_eval(b.grid, b.cdf, grid)
    lo = _step_eval(a.grid, a.cdf, grid - eps) - eps
    hi = _step_eval(a.grid, a.cdf, grid + eps) + eps
    return bool(np.all(lo <= fb + 1e-15) and np.all(fb <= hi + 1e-15))


def levy_distance(a: SpectralCurve, b: SpectralCurve) -> float:
    """Smallest eps (to grid resolution) with F_a(x-eps)-eps <= F_b(x) <= F_a(x+eps)+eps.

    Checked in both orientations and bisected to a quarter of the grid
    spacing; eps = Kolmogorov distance is always feasible, so the result
    never exceeds it.
    """
    grid = _shared_grid(a, b)
    hi = kolmogorov_distance(a, b)
    if hi == 0.0:
        return 0.0
    spacing = float(np.median(np.diff(grid))) if len(grid) > 1 else hi
    tol = max(spacing / 4.0, 1e-15)
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _levy_feasible(a, b, grid, mid) and _levy_feasible(b, a, grid, mid):
            hi = mid
        else:
            lo = mid
    return float(hi)


def compare(a: SpectralCurve, b: SpectralCurve) -> DistanceReport:
    grid = _shared_grid(a, b)
    kol = kolmogorov_distance(a, b)
    lev = levy_distance(a, b)
    if lev > kol + 1e-12:
        raise RuntimeError(f"levy {lev} exceeds kolmogorov {kol}")
    return DistanceReport(kolmogorov=kol, levy=lev, grid_points=len(grid))
