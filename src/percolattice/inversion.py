"""Stieltjes inversion: density and CDF curves on a real grid."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalProblem
from .lattice import GRID_POINT_LIMIT, check_size

# Tiny negative densities are rounding noise; anything worse means the
# transform is off the Herglotz branch.
_NEGATIVE_DENSITY_TOL = 1e-12

# Minimum CDF mass required at the right grid edge.
MIN_RIGHT_EDGE_MASS = 0.97


@dataclass(frozen=True)
class SpectralCurve:
    """CDF and/or density values on an ascending real grid."""

    grid: np.ndarray
    cdf: np.ndarray | None = None
    density: np.ndarray | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly ascending")
        if self.cdf is not None:
            cdf = np.asarray(self.cdf, dtype=float)
            object.__setattr__(self, "cdf", cdf)
            if cdf.shape != grid.shape:
                raise ValueError("cdf length must match grid")
            if np.any(np.diff(cdf) < -1e-9) or cdf.min() < -1e-9 or cdf.max() > 1 + 1e-9:
                raise ValueError("cdf must be nondecreasing within [0, 1]")
        if self.density is not None:
            dens = np.asarray(self.density, dtype=float)
            object.__setattr__(self, "density", dens)
            if dens.shape != grid.shape:
                raise ValueError("density length must match grid")
            if dens.min() < -_NEGATIVE_DENSITY_TOL:
                raise ValueError("density must be nonnegative")


def default_epsilon(grid: np.ndarray) -> float:
    """Resolution-matched smoothing width: twice the grid spacing."""
    grid = np.asarray(grid, dtype=float)
    return 2.0 * float(np.median(np.diff(grid)))


def density_curve(stieltjes, grid, epsilon: float) -> SpectralCurve:
    """density(x) = (1/pi) Im S(x + i*epsilon) over the grid.

    stieltjes is called once, on the whole array grid + i*epsilon.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    grid = np.asarray(grid, dtype=float)
    dens = np.asarray(stieltjes(grid + 1j * epsilon)).imag / np.pi
    if dens.min() < -_NEGATIVE_DENSITY_TOL:
        raise ValueError(
            f"negative density {dens.min():.3e}: transform is off the Herglotz branch"
        )
    np.clip(dens, 0.0, None, out=dens)
    return SpectralCurve(grid=grid, density=dens)


def cdf_from_density(curve: SpectralCurve) -> SpectralCurve:
    """Trapezoid-integrate a density curve into a clipped CDF curve."""
    x, y = curve.grid, curve.density
    # the arithmetic of scipy.integrate.cumulative_trapezoid(y, x, initial=0)
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))
    cdf = np.clip(cdf, 0.0, 1.0)
    if cdf[-1] < MIN_RIGHT_EDGE_MASS:
        # mass leaks past the grid ends when epsilon is wide, and falls
        # between grid points when epsilon is far below the spacing
        raise ValueError(
            f"CDF reaches only {cdf[-1]:.4f} at the right grid edge; widen the "
            f"grid, or choose epsilon near the grid spacing {np.median(np.diff(x)):.3g}"
        )
    return SpectralCurve(grid=curve.grid, cdf=cdf, density=curve.density)


def auto_grid(problem: CanonicalProblem, points: int, margin: float) -> np.ndarray:
    """Uniform grid covering all branch values with variance-scaled margins."""
    if points < 16:
        raise ValueError("grid needs at least 16 points")
    check_size("grid", points, GRID_POINT_LIMIT, name="points")
    # Python floats: an overflowing span becomes inf without a numpy warning
    w = margin + 4.0 * math.sqrt(problem.variance_sum)
    lo = float(problem.atoms.min()) - w
    hi = float(problem.atoms.max()) + w
    if not math.isfinite(hi - lo):
        raise ValueError(f"grid span overflows at margin {margin:g}; choose a smaller margin")
    return np.linspace(lo, hi, points)
