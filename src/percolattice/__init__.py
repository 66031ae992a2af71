"""Deterministic-equivalent spectral distributions of percolated lattice graphs."""

from .canonical import (
    CanonicalProblem,
    CanonicalSolution,
    OracleError,
    SolverError,
    build_problem,
    matrix_k1_oracle,
    recover_all_alphas,
    solve_alpha,
)
from .espectrum import (
    EmpiricalSpectrum,
    eigenvalues,
    empirical_stieltjes,
    esd_cdf,
    monte_carlo_spectrum,
    pool,
    smoothed_density,
)
from .inversion import SpectralCurve, auto_grid, density_curve
from .lattice import (
    LatticeSpec,
    SizeLimitError,
    decode_index,
    encode_index,
    expected_degree,
    expected_matrix,
    expected_spectrum,
    node_count,
    supergraph_edges,
)
from .metrics import DistanceReport, compare
from .percolation import (
    GirkoConditionReport,
    PercolationSample,
    girko_conditions,
    sample,
)

__version__ = "0.1.0"
