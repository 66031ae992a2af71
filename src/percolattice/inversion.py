"""Curves on a real grid: Stieltjes inversion to a density and a CDF, the
grid rules, and the Kolmogorov and Levy distances between two CDFs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import GRID_POINT_LIMIT, check_size

# Tiny negative densities are rounding noise; anything worse means the
# transform is off the Herglotz branch.
_NEGATIVE_DENSITY_TOL = 1e-12

# Minimum CDF mass required at the right grid edge.
MIN_RIGHT_EDGE_MASS = 0.97


def _on_grid(grid, values, name: str) -> tuple[np.ndarray, np.ndarray]:
    """grid and values as float arrays; ValueError unless the grid is finite and
    strictly ascending and the `name` values have its length."""
    grid, values = np.asarray(grid, dtype=float), np.asarray(values, dtype=float)
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
        raise ValueError("grid must be finite and strictly ascending")
    if values.shape != grid.shape:
        raise ValueError(f"{name} length must match grid")
    return grid, values


def grid_spacing(grid) -> float:
    """Median spacing of a grid; bit-equal to float(np.median(np.diff(grid)))."""
    # np.median's arithmetic, on a sorted copy (np.median itself imports
    # numpy.ma): the mean of the middle one or two values, or the NaN sorted last
    d = np.sort(np.diff(np.asarray(grid, dtype=float)))
    mid = d[-1:] if np.isnan(d[-1:]).any() else d[(d.size - 1) // 2 : d.size // 2 + 1]
    return float(mid.mean())


def default_epsilon(grid: np.ndarray) -> float:
    """Resolution-matched smoothing width: twice the grid spacing."""
    return 2.0 * grid_spacing(grid)


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless the smoothing width and its square are positive and finite."""
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    square = float(epsilon) * float(epsilon)  # inf where epsilon**2 raises OverflowError
    if not square > 0:  # else a grid point on an eigenvalue divides by zero
        raise ValueError(f"epsilon={epsilon:.3g} is too small: epsilon^2 underflows to 0")
    if square == math.inf:
        raise ValueError(f"epsilon={epsilon:.3g} is too large: epsilon^2 overflows")


def density_curve(stieltjes, grid, epsilon: float) -> np.ndarray:
    """density(x) = (1/pi) Im S(x + i*epsilon) over the grid.

    stieltjes is called once, on the whole array grid + i*epsilon.
    """
    check_epsilon(epsilon)
    grid = np.asarray(grid, dtype=float)
    dens = np.asarray(stieltjes(grid + 1j * epsilon)).imag / np.pi
    if dens.min() < -_NEGATIVE_DENSITY_TOL:
        raise ValueError(
            f"negative density {dens.min():.3e}: transform is off the Herglotz branch"
        )
    return np.clip(dens, 0.0, None, out=dens)


def cdf_from_density(grid, density) -> np.ndarray:
    """Trapezoid-integrate a density on an ascending grid into a clipped CDF."""
    x, y = _on_grid(grid, density, "density")
    if not (np.all(np.isfinite(y)) and y.min() >= -_NEGATIVE_DENSITY_TOL):
        raise ValueError("density must be finite and nonnegative")
    # the arithmetic of scipy.integrate.cumulative_trapezoid(y, x, initial=0)
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))
    cdf = np.clip(cdf, 0.0, 1.0)
    if cdf[-1] < MIN_RIGHT_EDGE_MASS:
        # mass leaks past the grid ends when epsilon is wide, and falls
        # between grid points when epsilon is far below the spacing
        raise ValueError(
            f"CDF reaches only {cdf[-1]:.4f} at the right grid edge; widen the "
            f"grid, or choose epsilon near the grid spacing {grid_spacing(x):.3g}"
        )
    return cdf


def check_grid(points: int, margin: float) -> None:
    """Raise ValueError unless `points` and `margin` make a grid; every grid rule checks here.

    A grid spans values below 1e85 in magnitude (branch values within 2,
    padded by 4 sigma < 1e82; sqrt(gamma)-scaled eigenvalues within
    N / sqrt(gamma), since gamma^2 > 0) plus a margin at each end, so its
    span is finite exactly when 2 * margin is.
    """
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be a finite number >= 0, got {margin!r}")
    if points < 16:
        raise ValueError("grid needs at least 16 points")
    check_size("grid", points, GRID_POINT_LIMIT, name="points")
    if not math.isfinite(2.0 * margin):
        raise ValueError(f"grid span overflows at margin {margin:g}; choose a smaller margin")


def auto_grid(problem, points: int, margin: float) -> np.ndarray:
    """The span grid of a CanonicalProblem's branch values, padded by margin + 4 sigma."""
    check_grid(points, margin)  # so its errors name the caller's margin
    w = margin + 4.0 * math.sqrt(problem.variance_sum)
    return span_grid(problem.atoms.min(), problem.atoms.max(), points, w)


def span_grid(lo: float, hi: float, points: int, margin: float) -> np.ndarray:
    """Uniform grid from lo - margin to hi + margin, for values observed in [lo, hi]."""
    check_grid(points, margin)
    grid = np.linspace(float(lo) - margin, float(hi) + margin, points)
    if not np.all(np.diff(grid) > 0):
        raise ValueError(f"values in [{lo:g}, {hi:g}] at margin {margin:g} give no strictly "
                         "ascending grid; choose a larger margin")
    return grid


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
    grid, cdf = _on_grid(grid, cdf, "cdf")
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
    return DistanceReport(kolmogorov=kol, levy=lev)
