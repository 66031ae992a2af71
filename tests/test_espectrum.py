import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolattice.espectrum import (
    EmpiricalSpectrum,
    eigenvalues,
    empirical_stieltjes,
    esd_cdf,
    pool,
    row_normalized_eigenvalues,
    smoothed_density,
)
from percolattice.lattice import (
    LatticeSpec,
    SizeLimitError,
    expected_degree,
    expected_matrix,
    expected_spectrum,
)
from percolattice.percolation import adjacency, sample


class TestEigenvalues:
    def test_zero_matrix(self):
        assert np.array_equal(eigenvalues(np.zeros((3, 3))), np.zeros(3))

    def test_four_cycle_scaled(self):
        spec = LatticeSpec((2, 2), (1.0, 1.0))
        w = adjacency(sample(spec, 0)) / expected_degree(spec)
        assert np.allclose(eigenvalues(w), [-1, 0, 0, 1], atol=1e-12)

    def test_expected_matrix_cross_check(self):
        spec = LatticeSpec((4, 5), (0.7, 0.5))
        flat = np.sort(np.repeat(*expected_spectrum(spec)))
        assert np.abs(eigenvalues(expected_matrix(spec)) - flat).max() < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_asymmetric_nan(self):
        # NaN > tol is False, so a plain `> tol` check let this through and
        # eigvalsh silently used the lower triangle
        with pytest.raises(ValueError, match="symmetric within tolerance 1e-12"):
            eigenvalues(np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))

    def test_rejects_asymmetry_in_last_strip(self):
        # N not a multiple of the strip height; the only asymmetric pair
        # sits in the last, short strip, just above the tolerance
        a = np.zeros((300, 300))
        a[299, 3] = 2e-12
        with pytest.raises(ValueError, match="symmetric"):
            eigenvalues(a)
        a[3, 299] = 1.5e-12
        assert np.array_equal(eigenvalues(a), np.linalg.eigvalsh(a))

    def test_workspace_is_bounded(self):
        # the whole-matrix check held two N x N temporaries (36 MB at N=1500)
        a = np.random.default_rng(3).normal(size=(1500, 1500))
        a += a.T
        tracemalloc.start()
        try:
            eigenvalues(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_rejects_oversize(self):
        with pytest.raises(SizeLimitError, match="refused"):
            eigenvalues(np.zeros((4001, 4001)))


class TestEsdCdf:
    spectrum = EmpiricalSpectrum(np.array([-1.0, 0.0, 0.0, 1.0]))

    def test_below_min(self):
        assert esd_cdf(self.spectrum, -2.0) == 0.0

    def test_above_max(self):
        assert esd_cdf(self.spectrum, 2.0) == 1.0

    def test_interior(self):
        assert esd_cdf(self.spectrum, 0.0) == 0.75

    def test_monotone(self):
        xs = np.linspace(-2, 2, 101)
        vals = esd_cdf(self.spectrum, xs)
        assert np.all(np.diff(vals) >= 0)


class TestAveraging:
    """The pooled CDF is the pointwise mean of the per-spectrum CDFs."""

    def test_single_spectrum_identity(self):
        vals = np.array([-1.0, 0.5, 2.0])
        grid = np.linspace(-2, 3, 50)
        assert np.array_equal(
            esd_cdf(pool([vals]), grid), esd_cdf(EmpiricalSpectrum(vals), grid)
        )

    def test_two_identical_spectra(self):
        vals = np.array([-1.0, 0.5, 2.0])
        grid = np.linspace(-2, 3, 50)
        assert np.array_equal(
            esd_cdf(pool([vals, vals]), grid), esd_cdf(pool([vals]), grid)
        )

    def test_pooling_equivalence(self):
        # per-trial arrays need not be sorted; the pool is
        rng = np.random.default_rng(1)
        spectra = [rng.normal(size=8) for _ in range(10)]
        grid = np.linspace(-4, 4, 200)
        mean_of_cdfs = np.mean(
            [esd_cdf(EmpiricalSpectrum(np.sort(v)), grid) for v in spectra], axis=0
        )
        pooled = pool(spectra)
        assert np.all(np.diff(pooled.eigenvalues) >= 0)
        assert np.allclose(esd_cdf(pooled, grid), mean_of_cdfs, atol=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pool([])

    def test_rejects_mixed_sizes(self):
        with pytest.raises(ValueError, match="different matrix sizes"):
            pool([np.zeros(3), np.zeros(4)])


class TestStieltjes:
    def test_single_eigenvalue(self):
        s = EmpiricalSpectrum(np.array([0.0]))
        assert empirical_stieltjes(s, 1j) == pytest.approx(1j)

    def test_hand_evaluated_pair(self):
        s = EmpiricalSpectrum(np.array([-1.0, 1.0]))
        assert empirical_stieltjes(s, 2j) == pytest.approx(0.4j)

    def test_rejects_real_z(self):
        with pytest.raises(ValueError):
            empirical_stieltjes(EmpiricalSpectrum(np.array([0.0])), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=12),
        st.floats(-3, 3),
        st.floats(0.01, 3).flatmap(lambda y: st.sampled_from([y, -y])),
    )
    def test_herglotz_sign(self, eigs, x, y):
        s = EmpiricalSpectrum(np.sort(np.array(eigs)))
        val = empirical_stieltjes(s, complex(x, y))
        assert y * val.imag > 0


def _reference_smoothed_density(vals, grid, epsilon):
    """The whole-chunk kernel smoothed_density replaced: one (grid x chunk)
    temporary per expression, the same chunks and the same arithmetic."""
    dens = np.zeros_like(grid)
    step = max(1, 10_000_000 // max(1, len(grid)))
    for k in range(0, len(vals), step):
        lam = vals[k : k + step]
        dens += ((epsilon / np.pi) / ((grid[:, None] - lam[None, :]) ** 2 + epsilon**2)).sum(axis=1)
    dens /= len(vals)
    return dens


class TestSmoothedDensity:
    @pytest.mark.parametrize("n_eigs, n_grid", [
        (75_000, 2000),  # Figure 1a: 50 trials x N=1500, 15 full chunks
        (12_345, 2000),  # short last chunk (2345 of 5000)
        (1000, 777),     # grid length not a multiple of the row block
        (130_000, 40),   # one grid row per block, short last row block
        (3210, 20_000),  # step = 500, short last chunk
        (75_000, 1),     # one-point grid, one chunk
    ])
    def test_byte_identical_to_reference(self, n_eigs, n_grid):
        rng = np.random.default_rng(n_eigs + n_grid)
        vals = np.sort(rng.normal(size=n_eigs))
        grid = np.linspace(-3.5, 3.5, n_grid)
        eps = 0.007
        curve = smoothed_density(EmpiricalSpectrum(vals), grid, eps)
        assert np.array_equal(curve.density, _reference_smoothed_density(vals, grid, eps))

    def test_workspace_is_bounded(self):
        # the reference kernel peaks at 160 MB on this Figure 1a shape
        vals = np.sort(np.random.default_rng(4).normal(size=75_000))
        grid = np.linspace(-3.5, 3.5, 2000)
        tracemalloc.start()
        try:
            smoothed_density(EmpiricalSpectrum(vals), grid, 0.007)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("eps", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_bad_epsilon(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            smoothed_density(EmpiricalSpectrum(np.array([0.0])), np.array([0.0]), eps)

    def test_cauchy_peak(self):
        s = EmpiricalSpectrum(np.array([0.0]))
        eps = 0.05
        curve = smoothed_density(s, np.array([0.0]), eps)
        assert curve.density[0] == pytest.approx(1 / (np.pi * eps))

    def test_cauchy_half_width(self):
        s = EmpiricalSpectrum(np.array([0.0]))
        eps = 0.05
        curve = smoothed_density(s, np.array([eps]), eps)
        assert curve.density[0] == pytest.approx(1 / (2 * np.pi * eps))

    def test_mass_within_widened_support(self):
        rng = np.random.default_rng(2)
        s = EmpiricalSpectrum(np.sort(rng.normal(size=40)))
        span = s.eigenvalues.max() - s.eigenvalues.min()
        eps = span / 60
        grid = np.linspace(s.eigenvalues.min() - 10 * eps,
                           s.eigenvalues.max() + 10 * eps, 3000)
        curve = smoothed_density(s, grid, eps)
        mass = np.trapezoid(curve.density, grid)
        assert 0.95 <= mass <= 1.0
        assert curve.density.min() >= 0.0


class TestSpectralRanges:
    def test_scaled_adjacency_range(self):
        spec = LatticeSpec((4, 5), (0.7, 0.5))
        for seed in range(5):
            s = sample(spec, seed)
            w = adjacency(s) / expected_degree(spec)
            maxdeg = (w * expected_degree(spec)).sum(axis=1).max()
            vals = eigenvalues(w)
            bound = maxdeg / expected_degree(spec) + 1e-12
            assert vals.min() >= -bound and vals.max() <= bound

    def test_row_normalized_range(self):
        spec = LatticeSpec((4, 5), (0.4, 0.4))
        for seed in range(5):
            vals = row_normalized_eigenvalues(sample(spec, seed))
            assert vals.min() >= -1 - 1e-12 and vals.max() <= 1 + 1e-12
