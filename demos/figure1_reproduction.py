"""Deterministic equivalent vs Monte Carlo, at the published parameters.

Reproduces the 2-D comparison (dims (30,50), probs (0.7,0.5)): solves the
canonical system on a grid, pools eigenvalues of 50 sampled percolations,
smooths both sides with the same Cauchy width, and reports the distances.
Writes the four curves to figure1a.csv, ready to plot.
"""

import numpy as np

from percolattice import LatticeSpec, build_problem, solve_alpha
from percolattice.espectrum import monte_carlo_spectrum, smoothed_density
from percolattice.inversion import (
    auto_grid, cdf_from_density, compare, default_epsilon, density_curve,
)

spec = LatticeSpec(dims=(30, 50), probs=(0.7, 0.5))
problem = build_problem(spec)
grid = auto_grid(problem, points=2000, margin=0.1)
eps = default_epsilon(grid)
print(f"grid [{grid[0]:.3f}, {grid[-1]:.3f}], epsilon = {eps:.4g}")

# every curve is an array on this one grid
# deterministic curve: the scalar canonical equation, solved on the whole grid
f_det = density_curve(lambda z: solve_alpha(problem, z).alpha_principal, grid, eps)
F_det = cdf_from_density(grid, f_det)

# empirical curve: pooled spectrum of 50 percolations
pooled = monte_carlo_spectrum(spec, seed=42, trials=50)
f_emp = smoothed_density(pooled, grid, eps)
F_emp = cdf_from_density(grid, f_emp)

report = compare(grid, F_det, F_emp)
print(f"kolmogorov = {report.kolmogorov:.4f}, levy = {report.levy:.4f}")

rows = np.column_stack([grid, f_det, F_det, f_emp, F_emp])
np.savetxt("figure1a.csv", rows, delimiter=",",
           header="x,f_det,F_det,f_emp,F_emp", comments="")
print("wrote figure1a.csv")
