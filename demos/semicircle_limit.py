"""One-dimensional sanity check: the bulk converges to a semicircle.

For a single lattice dimension of size M with probability p, dropping the
rank-one branch reduces the canonical equation to a quadratic whose
solution is the semicircle of radius 2*sqrt(sigma^2) centered at
-1/(M-1).  The full solver should land on it for large M.
"""

import numpy as np

from percolattice import LatticeSpec, build_problem, solve_alpha

spec = LatticeSpec(dims=(2000,), probs=(0.5,))
problem = build_problem(spec)
sigma2 = problem.variance_sum
radius = 2 * np.sqrt(sigma2)
center = -1.0 / (spec.dims[0] - 1)
print(f"sigma^2 = {sigma2:.3e}, semicircle radius {radius:.4f} at {center:.2e}")

xs = np.linspace(center - 0.9 * radius, center + 0.9 * radius, 181)
density = solve_alpha(problem, xs + 1e-6j).alpha_principal.imag / np.pi

semicircle = np.sqrt(np.clip(radius**2 - (xs - center) ** 2, 0, None)) / (2 * np.pi * sigma2)
print(f"sup |solver density - semicircle| = {np.abs(density - semicircle).max():.3e}")
print(f"peak density {density.max():.2f} vs semicircle peak {semicircle.max():.2f}")
