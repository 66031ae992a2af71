import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolattice.espectrum import (
    EmpiricalSpectrum,
    average_esd,
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
    expected_matrix,
    expected_spectrum,
)
from percolattice.percolation import sample, scaled_adjacency


class TestEigenvalues:
    def test_zero_matrix(self):
        assert np.array_equal(eigenvalues(np.zeros((3, 3))), np.zeros(3))

    def test_four_cycle_scaled(self):
        spec = LatticeSpec((2, 2), (1.0, 1.0))
        w = scaled_adjacency(sample(spec, 0))
        assert np.allclose(eigenvalues(w), [-1, 0, 0, 1], atol=1e-12)

    def test_expected_matrix_cross_check(self):
        spec = LatticeSpec((4, 5), (0.7, 0.5))
        es = expected_spectrum(spec)
        flat = np.sort(np.repeat(es.values, es.multiplicities))
        assert np.abs(eigenvalues(expected_matrix(spec)) - flat).max() < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))

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
    def test_single_spectrum_identity(self):
        spec = EmpiricalSpectrum(np.array([-1.0, 0.5, 2.0]))
        grid = np.linspace(-2, 3, 50)
        curve = average_esd([spec], grid)
        assert np.array_equal(curve.cdf, esd_cdf(spec, grid))

    def test_two_identical_spectra(self):
        spec = EmpiricalSpectrum(np.array([-1.0, 0.5, 2.0]))
        grid = np.linspace(-2, 3, 50)
        assert np.array_equal(
            average_esd([spec, spec], grid).cdf, average_esd([spec], grid).cdf
        )

    def test_pooling_equivalence(self):
        rng = np.random.default_rng(1)
        spectra = [
            EmpiricalSpectrum(np.sort(rng.normal(size=8))) for _ in range(10)
        ]
        grid = np.linspace(-4, 4, 200)
        mean_of_cdfs = np.mean([esd_cdf(s, grid) for s in spectra], axis=0)
        assert np.allclose(average_esd(spectra, grid).cdf, mean_of_cdfs, atol=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pool([])


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


class TestSmoothedDensity:
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
        from percolattice.lattice import expected_degree

        for seed in range(5):
            s = sample(spec, seed)
            w = scaled_adjacency(s)
            maxdeg = (w * expected_degree(spec)).sum(axis=1).max()
            vals = eigenvalues(w)
            bound = maxdeg / expected_degree(spec) + 1e-12
            assert vals.min() >= -bound and vals.max() <= bound

    def test_row_normalized_range(self):
        spec = LatticeSpec((4, 5), (0.4, 0.4))
        for seed in range(5):
            vals = row_normalized_eigenvalues(sample(spec, seed))
            assert vals.min() >= -1 - 1e-12 and vals.max() <= 1 + 1e-12
