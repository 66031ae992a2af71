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

# Rows per strip of the symmetry check: the only workspace is one
# strip-by-N buffer (1.5 MB at N=1500) instead of two N x N temporaries.
_SYMMETRY_STRIP = 128

# Float64 elements (1 MB) in the smoothing kernel's grid-rows-by-eigenvalues
# buffer; a block holds at least one grid row of a full eigenvalue chunk.
_SMOOTH_BUFFER = 131_072


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Sorted real eigenvalues, possibly pooled over Monte Carlo samples."""

    eigenvalues: np.ndarray


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
    buf = np.empty((min(n, _SYMMETRY_STRIP), n))
    for lo in range(0, n, _SYMMETRY_STRIP):
        d = buf[: min(_SYMMETRY_STRIP, n - lo)]
        np.subtract(matrix[lo : lo + len(d)], matrix[:, lo : lo + len(d)].T, out=d)
        worst = np.abs(d, out=d).max()
        # `not <=` so that a NaN entry (NaN difference) is rejected too
        if not worst <= SYMMETRY_TOL:
            raise ValueError(
                f"matrix is not symmetric within tolerance {SYMMETRY_TOL:g} "
                f"(max |A - A^T| = {worst:.3g})"
            )
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
    """Pool the eigenvalue arrays of several same-size matrices into one spectrum."""
    spectra = list(spectra)
    if not spectra:
        raise ValueError("cannot pool an empty collection of spectra")
    sizes = {len(vals) for vals in spectra}
    if len(sizes) > 1:
        raise ValueError(f"spectra come from different matrix sizes: {sizes}")
    return EmpiricalSpectrum(np.sort(np.concatenate(spectra)))


def esd_cdf(spectrum: EmpiricalSpectrum, x):
    """Fraction of eigenvalues <= x (right-continuous step function)."""
    vals = spectrum.eigenvalues
    if len(vals) == 0:
        raise ValueError("empty spectrum")
    counts = np.searchsorted(vals, x, side="right")
    return counts / len(vals)


def empirical_stieltjes(spectrum: EmpiricalSpectrum, z: complex) -> complex:
    """(1/count) sum_i 1/(lambda_i - z); defined off the real axis only."""
    z = complex(z)
    if z.imag == 0:
        raise ValueError("Stieltjes transform requires Im z != 0")
    return complex(np.mean(1.0 / (spectrum.eigenvalues - z)))


def smoothed_density(spectrum: EmpiricalSpectrum, grid: np.ndarray, epsilon: float):
    """Cauchy-kernel smoothed density (1/pi) Im S(x + i*eps) on the grid.

    The eigenvalues are summed in chunks of max(1, 10^7 // len(grid)); each
    chunk's (eps/pi) / ((x - lambda)^2 + eps^2) terms are summed pairwise per
    grid point and the chunk sums added in order. The kernel fills one
    preallocated buffer of _SMOOTH_BUFFER elements per block of grid rows,
    so the workspace stays about 1 MB (one grid row of a chunk, if larger)
    whatever the grid and pool sizes, and the result does not depend on
    the block size.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    from .inversion import SpectralCurve

    grid = np.asarray(grid, dtype=float)
    vals = spectrum.eigenvalues
    dens = np.zeros_like(grid)
    # the chunk length fixes the pairwise-summation tree of every grid point
    step = max(1, 10_000_000 // max(1, len(grid)))
    width = min(step, len(vals))
    rows = max(1, _SMOOTH_BUFFER // max(1, width))
    flat = np.empty(min(rows, len(grid)) * width)
    scale, eps2 = epsilon / np.pi, epsilon**2
    for r0 in range(0, len(grid), rows):
        x = grid[r0 : r0 + rows, None]
        for k in range(0, len(vals), step):
            lam = vals[k : k + step]
            # a contiguous view, so every row is summed as one contiguous run
            buf = flat[: len(x) * len(lam)].reshape(len(x), len(lam))
            np.subtract(x, lam[None, :], out=buf)
            np.square(buf, out=buf)
            np.add(buf, eps2, out=buf)
            np.divide(scale, buf, out=buf)
            dens[r0 : r0 + len(x)] += buf.sum(axis=1)
    dens /= len(vals)
    return SpectralCurve(grid=grid, density=dens)


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
        spectra.append(vals * scale)
    return pool(spectra)
