"""Empirical spectral distributions of sampled adjacency matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import SizeLimitError, expected_degree, node_count
from .percolation import PercolationSample, adjacency

# Symmetry tolerance for the dense eigensolve path.
SYMMETRY_TOL = 1e-12

# Dense eigensolves are refused above this size.
EIGENSOLVE_LIMIT = 4000


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Sorted real eigenvalues, possibly pooled over Monte Carlo samples."""

    eigenvalues: np.ndarray
    source_count: int = 1


def eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric real matrix, ascending.

    Rejects matrices that are not symmetric within SYMMETRY_TOL; spectra of
    row-normalized matrices go through row_normalized_eigenvalues, which
    handles the similarity reduction.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    if n > EIGENSOLVE_LIMIT:
        raise SizeLimitError(f"dense eigensolve refused for N={n} > {EIGENSOLVE_LIMIT}")
    if np.abs(matrix - matrix.T).max(initial=0.0) > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within tolerance 1e-12")
    return np.linalg.eigvalsh(matrix)


def row_normalized_eigenvalues(sample: PercolationSample) -> np.ndarray:
    """Spectrum of Delta^{-1} A via the symmetric similarity D^{-1/2} A D^{-1/2}.

    Isolated nodes contribute exact zeros.
    """
    a = adjacency(sample)
    deg = a.sum(axis=1)
    live = deg > 0
    n = a.shape[0]
    vals = np.zeros(n)
    if live.any():
        s = 1.0 / np.sqrt(deg[live])
        sub = a[np.ix_(live, live)] * s[:, None] * s[None, :]
        vals[: live.sum()] = eigenvalues(sub)
    return np.sort(vals)


def pool(spectra) -> EmpiricalSpectrum:
    """Pool eigenvalues of several same-size spectra into one."""
    spectra = list(spectra)
    if not spectra:
        raise ValueError("cannot pool an empty collection of spectra")
    sizes = {len(s.eigenvalues) // s.source_count for s in spectra}
    if len(sizes) > 1:
        raise ValueError(f"spectra come from different matrix sizes: {sizes}")
    vals = np.sort(np.concatenate([s.eigenvalues for s in spectra]))
    return EmpiricalSpectrum(vals, source_count=sum(s.source_count for s in spectra))


def esd_cdf(spectrum: EmpiricalSpectrum, x):
    """Fraction of eigenvalues <= x (right-continuous step function)."""
    vals = spectrum.eigenvalues
    if len(vals) == 0:
        raise ValueError("empty spectrum")
    counts = np.searchsorted(vals, x, side="right")
    return counts / len(vals)


def average_esd(spectra, grid: np.ndarray):
    """Pointwise mean of the step CDFs over the grid.

    Equals the CDF of the pooled spectrum, so pooling is how it is computed.
    Returns a SpectralCurve carrying CDF values.
    """
    from .inversion import SpectralCurve

    grid = np.asarray(grid, dtype=float)
    pooled = pool(spectra)
    return SpectralCurve(
        grid=grid, cdf=np.asarray(esd_cdf(pooled, grid), dtype=float),
        epsilon=0.0, label="empirical esd",
    )


def empirical_stieltjes(spectrum: EmpiricalSpectrum, z: complex) -> complex:
    """(1/count) sum_i 1/(lambda_i - z); defined off the real axis only."""
    z = complex(z)
    if z.imag == 0:
        raise ValueError("Stieltjes transform requires Im z != 0")
    return complex(np.mean(1.0 / (spectrum.eigenvalues - z)))


def smoothed_density(spectrum: EmpiricalSpectrum, grid: np.ndarray, epsilon: float):
    """Cauchy-kernel smoothed density (1/pi) Im S(x + i*eps) on the grid."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    from .inversion import SpectralCurve

    grid = np.asarray(grid, dtype=float)
    vals = spectrum.eigenvalues
    dens = np.zeros_like(grid)
    # chunk the eigenvalue axis to bound the (grid x eigs) workspace
    step = max(1, 10_000_000 // max(1, len(grid)))
    for k in range(0, len(vals), step):
        lam = vals[k : k + step]
        dens += ((epsilon / np.pi) / ((grid[:, None] - lam[None, :]) ** 2 + epsilon**2)).sum(axis=1)
    dens /= len(vals)
    return SpectralCurve(grid=grid, density=dens, epsilon=float(epsilon),
                         label="empirical density")


def trial_seed(seed: int, trial: int) -> int:
    """Deterministic per-trial seed derived from (seed, trial index)."""
    ss = np.random.SeedSequence((int(seed), int(trial)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def monte_carlo_spectrum(spec, seed: int, trials: int, normalized: bool = False,
                         scale: float = 1.0) -> EmpiricalSpectrum:
    """Pool spectra of `trials` independent percolations.

    `normalized` switches from W = A/gamma to Delta^{-1} A; `scale`
    multiplies every eigenvalue (used for the sqrt(gamma) comparison mode).
    """
    from .percolation import sample as draw

    n = node_count(spec)
    if n > EIGENSOLVE_LIMIT:
        raise SizeLimitError(f"dense eigensolve refused for N={n} > {EIGENSOLVE_LIMIT}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    spectra = []
    for t in range(trials):
        s = draw(spec, trial_seed(seed, t))
        if normalized:
            vals = row_normalized_eigenvalues(s)
        else:
            vals = eigenvalues(adjacency(s)) / expected_degree(spec)
        spectra.append(EmpiricalSpectrum(np.sort(vals * scale), source_count=1))
    return pool(spectra)
