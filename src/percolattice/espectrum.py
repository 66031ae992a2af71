"""Empirical spectral distributions of sampled adjacency matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import percolation
from .inversion import check_epsilon
from .lattice import EIGENSOLVE_LIMIT, check_size, expected_degree, node_count
from .percolation import adjacency

# Symmetry tolerance for the dense eigensolve path.
SYMMETRY_TOL = 1e-12

# Side of the symmetry check's tiles: the only workspace is one tile
# (128 KiB) instead of two N x N temporaries.
_SYMMETRY_TILE = 128

# Float64 elements (1 MB) in the smoothing kernel's grid-rows-by-eigenvalues
# buffer; a block holds at least one grid row of a full eigenvalue chunk.
_SMOOTH_BUFFER = 131_072


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Sorted real eigenvalues, possibly pooled over Monte Carlo samples."""

    eigenvalues: np.ndarray


def _square(matrix) -> np.ndarray:
    """The matrix as an array, refused unless it is N x N."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return a


def eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric real matrix, ascending.

    Rejects matrices that are not symmetric within SYMMETRY_TOL, checked
    tile by tile: each tile on or above the diagonal is compared with the
    transpose of its mirror tile.  The eigenvalues are those of the lower
    triangle, with the bits of np.linalg.eigvalsh.

    Where numpy bundles scipy-openblas (see _openblas), its LAPACK dsyevd
    works in one writeable C-contiguous float64 buffer instead of
    eigvalsh's private copy: a matrix that is one is consumed, its contents
    undefined afterwards, also after a rejection; any other input is left
    alone and solved in such a copy.  LAPACK reads the buffer's upper
    triangle, so each tile on or above the diagonal is overwritten with its
    checked mirror first.  Elsewhere every input goes through eigvalsh.
    Spectra of row-normalized matrices go through row_normalized_eigenvalues,
    which handles the similarity reduction.
    """
    matrix = _square(matrix)
    n = len(matrix)
    check_size("dense eigensolve", n, EIGENSOLVE_LIMIT)
    # imported here, so a process that never solves does not load it
    from . import _openblas
    solve = _openblas.in_place_eigvalsh()
    if solve is None:
        matrix = np.asarray(matrix, dtype=float)
    else:
        # the matrix itself where it can be consumed, else one copy
        matrix = np.require(matrix, dtype=float, requirements="CW")
    side = _SYMMETRY_TILE
    buf = np.empty((min(n, side), min(n, side)))
    for r in range(0, n, side):
        for c in range(r, n, side):
            upper = matrix[r : r + side, c : c + side]
            mirror = matrix[c : c + side, r : r + side].T
            d = buf[: upper.shape[0], : upper.shape[1]]
            np.subtract(upper, mirror, out=d)
            worst = np.abs(d, out=d).max()
            # `not <=` so that a NaN entry (NaN difference) is rejected too
            if not worst <= SYMMETRY_TOL:
                raise ValueError(
                    f"matrix is not symmetric within tolerance {SYMMETRY_TOL:g} "
                    f"(max |A - A^T| = {worst:.3g})"
                )
            if solve is not None:
                # on the diagonal, numpy copies the overlapping mirror first
                upper[...] = mirror
    return np.linalg.eigvalsh(matrix) if solve is None else solve(matrix)


def row_normalized_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Spectrum of Delta^{-1} A for a 0/1 adjacency A, via D^{-1/2} A D^{-1/2}.

    Isolated nodes contribute exact zeros.  A node of degree <= 0 with a
    nonzero entry in its row or column is rejected, since dropping it would
    solve a different matrix; the rest is checked by eigenvalues.
    """
    a = np.asarray(_square(matrix), dtype=float)
    deg = a.sum(axis=1)
    live = deg > 0
    if np.any(a[~live]) or np.any(a[:, ~live]):
        raise ValueError("a node of degree <= 0 has a nonzero entry in its row or column")
    s = 1.0 / np.sqrt(deg[live])
    # scaled and solved in the one copy that indexing makes
    sub = a[np.ix_(live, live)]
    sub *= s[:, None]
    sub *= s[None, :]
    vals = eigenvalues(sub)
    return np.sort(np.concatenate([vals, np.zeros(len(a) - len(sub))]))


def pool(spectra) -> EmpiricalSpectrum:
    """Pool the eigenvalue arrays of several same-size matrices into one spectrum."""
    spectra = list(spectra)
    if not spectra:
        raise ValueError("cannot pool an empty collection of spectra")
    sizes = {len(vals) for vals in spectra}
    if len(sizes) > 1:
        raise ValueError(f"spectra come from different matrix sizes: {sizes}")
    return EmpiricalSpectrum(np.sort(np.concatenate(spectra)))


def _nonempty(spectrum: EmpiricalSpectrum) -> np.ndarray:
    """The spectrum's eigenvalues, refused when there are none."""
    vals = spectrum.eigenvalues
    if len(vals) == 0:
        raise ValueError("empty spectrum")
    return vals


def esd_cdf(spectrum: EmpiricalSpectrum, x):
    """Fraction of eigenvalues <= x (right-continuous step function)."""
    vals = _nonempty(spectrum)
    counts = np.searchsorted(vals, x, side="right")
    return counts / len(vals)


def empirical_stieltjes(spectrum: EmpiricalSpectrum, z: complex) -> complex:
    """(1/count) sum_i 1/(lambda_i - z); defined off the real axis only."""
    z = complex(z)
    if z.imag == 0:
        raise ValueError("Stieltjes transform requires Im z != 0")
    return complex(np.mean(1.0 / (_nonempty(spectrum) - z)))


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
    check_epsilon(epsilon)
    vals = _nonempty(spectrum)
    grid = np.asarray(grid, dtype=float)
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
    return dens


def trial_seed(seed: int, trial: int) -> int:
    """Deterministic per-trial seed derived from (seed, trial index)."""
    ss = np.random.SeedSequence((int(seed), int(trial)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def check_trials(spec, seed: int, trials: int) -> None:
    """Refuse a dense eigensolve over its size cap, fewer than one trial or a negative seed."""
    check_size("dense eigensolve", node_count(spec), EIGENSOLVE_LIMIT)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def map_trials(spec, seed: int, trials: int, solve) -> list:
    """solve(adjacency(sample(spec, trial_seed(seed, t)))) for each trial t, in trial order.

    check_trials refuses the run before the first draw.  The supergraph is
    then listed once, and every trial draws from that int32 listing: only its
    Philox stream is its own.
    A trial's sample is dropped once its matrix is built, and the matrix once
    `solve` returns, so a run with an in-place solve holds one dense N x N matrix.
    """
    check_trials(spec, seed, trials)
    edges = percolation.supergraph_edges(spec)
    return [solve(adjacency(percolation.sample(spec, trial_seed(seed, t), edges)))
            for t in range(trials)]


def monte_carlo_spectrum(spec, seed: int, trials: int) -> EmpiricalSpectrum:
    """Pool the spectra of W = A/gamma over `trials` independent percolations."""
    gamma = expected_degree(spec)
    return pool(map_trials(spec, seed, trials, lambda a: eigenvalues(a) / gamma))


def theorem3_spectra(spec, seed: int, trials: int):
    """Theorem 3's pair, the sqrt(gamma)-scaled pools of A/gamma and Delta^{-1} A.
    A trial's two spectra come from one sample and one 0/1 adjacency, which
    the row-normalized spectrum reads before the scaled one solves it in place."""
    gamma = expected_degree(spec)
    scale = np.sqrt(gamma)
    normalized, scaled = zip(*map_trials(spec, seed, trials, lambda a: (
        row_normalized_eigenvalues(a) * scale, eigenvalues(a) / gamma * scale)))
    return pool(scaled), pool(normalized)
