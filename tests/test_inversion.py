import numpy as np
import pytest

from percolattice import canonical
from percolattice.canonical import SolverError, build_problem, solve_alpha
from percolattice.inversion import (
    SpectralCurve,
    auto_grid,
    cdf_from_density,
    default_epsilon,
    density_curve,
)
from percolattice.lattice import LatticeSpec, branch_table, expected_spectrum, node_count


def point_mass(location):
    return lambda z: 1.0 / (location - z)


def semicircle_transform(z):
    # branch with Im z * Im S > 0, elementwise over an array of z
    root = np.sqrt(z**2 - 4 + 0j)
    root = np.where((z.imag > 0) == (root.imag > 0), root, -root)
    return (-z + root) / 2


class TestDensityCurve:
    def test_point_mass_peak(self):
        eps = 0.01
        curve = density_curve(point_mass(0.5), np.array([0.0, 0.5, 1.0]), eps)
        assert curve.density[1] == pytest.approx(1 / (np.pi * eps))

    def test_semicircle_center(self):
        eps = 0.002
        curve = density_curve(semicircle_transform, np.array([0.0]), eps)
        assert abs(curve.density[0] - 1 / np.pi) < 2 * eps

    def test_far_field_decay(self):
        prob = build_problem(LatticeSpec((4, 5), (0.7, 0.5)))
        x = np.abs(prob.atoms).max() + 10.0
        eps = 0.01
        curve = density_curve(
            lambda z: solve_alpha(prob, z).alpha_principal, np.array([x]), eps
        )
        assert curve.density[0] <= eps * 1e-1

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            density_curve(point_mass(0.0), np.array([0.0]), 0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_non_finite_epsilon(self, eps):
        # named as epsilon, not as the non-finite z it would hand the solver
        prob = build_problem(LatticeSpec((4, 5), (0.7, 0.5)))
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            density_curve(
                lambda z: solve_alpha(prob, z).alpha_principal, np.array([0.25]), eps
            )

    def test_names_failing_point(self, monkeypatch):
        # one Newton sweep per level cannot reach tol at 0.25 + 0.01i; the
        # error keeps its type through density_curve (CLI exit 3)
        monkeypatch.setattr(canonical, "_MAX_SWEEPS", 1)
        prob = build_problem(LatticeSpec((4, 5), (0.7, 0.5)))
        with pytest.raises(SolverError, match=r"z=\(0\.25\+0\.01j\)") as info:
            density_curve(
                lambda z: solve_alpha(prob, z).alpha_principal, np.array([0.25]), 0.01
            )
        assert info.value.residual > 1e-12
        assert info.value.iterations >= 1

    def test_nonnegative_for_herglotz_input(self):
        grid = np.linspace(-3, 3, 400)
        curve = density_curve(semicircle_transform, grid, 0.01)
        assert curve.density.min() >= 0.0


class TestCdfCurve:
    def test_point_mass_arctan_bounds(self):
        grid = np.linspace(-5, 5, 4001)
        curve = cdf_from_density(density_curve(point_mass(0.0), grid, 0.01))
        assert curve.cdf[np.searchsorted(grid, -1.0)] <= 0.01
        assert curve.cdf[np.searchsorted(grid, 1.0)] >= 0.99

    def test_semicircle_median(self):
        grid = np.linspace(-3, 3, 2001)
        curve = cdf_from_density(
            density_curve(semicircle_transform, grid, 2 * default_epsilon(grid) / 2))
        assert abs(curve.cdf[np.searchsorted(grid, 0.0)] - 0.5) < 0.01

    def test_atomic_steps_at_midgaps(self):
        spec = LatticeSpec((4, 5), (1.0, 1.0))
        prob = build_problem(spec)
        grid = auto_grid(prob, 2000, 0.1)
        eps = default_epsilon(grid)
        curve = cdf_from_density(density_curve(
            lambda z: solve_alpha(prob, z).alpha_principal, grid, eps
        ))
        atoms, mults = expected_spectrum(spec)
        cum = np.cumsum(mults) / node_count(spec)
        mids = (atoms[:-1] + atoms[1:]) / 2
        got = np.interp(mids, grid, curve.cdf)
        assert np.abs(got - cum[:-1]).max() < 0.02

    def test_monotone_and_right_edge(self):
        grid = np.linspace(-3, 3, 1500)
        curve = cdf_from_density(
            density_curve(semicircle_transform, grid, default_epsilon(grid)))
        assert np.all(np.diff(curve.cdf) >= -1e-12)
        assert 0.97 <= curve.cdf[-1] <= 1.0

    def test_rejects_insufficient_right_edge_mass(self):
        grid = np.linspace(-5, -2, 500)  # support of semicircle not covered
        with pytest.raises(ValueError, match="widen"):
            cdf_from_density(density_curve(semicircle_transform, grid, 0.01))


def test_empirical_machinery_symmetry():
    # integrating the smoothed empirical transform reproduces the step CDF
    from percolattice.espectrum import esd_cdf, monte_carlo_spectrum, smoothed_density

    spec = LatticeSpec((4, 5), (0.7, 0.5))
    prob = build_problem(spec)
    pooled = monte_carlo_spectrum(spec, 21, 10)
    grid = auto_grid(prob, 2000, 0.1)
    eps = default_epsilon(grid)
    curve = cdf_from_density(smoothed_density(pooled, grid, eps))
    step = np.asarray(esd_cdf(pooled, grid), dtype=float)
    # compare away from the atom-like jumps: mid-gap via sup over a coarse probe
    assert np.abs(curve.cdf - step).mean() < 0.005
    assert np.abs(curve.cdf - step).max() < 0.05


def test_cdf_matches_scipy_cumulative_trapezoid():
    # same arithmetic as scipy, so CDF bytes do not move
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(12)
    for n in (2, 3, 17, 2000):
        grid = np.cumsum(rng.uniform(0.01, 1.0, size=n))
        dens = rng.uniform(0.0, 1.0, size=n)
        dens /= cumulative_trapezoid(dens, grid)[-1]
        curve = cdf_from_density(SpectralCurve(grid=grid, density=dens))
        expected = np.clip(cumulative_trapezoid(dens, grid, initial=0.0), 0.0, 1.0)
        assert curve.cdf.tobytes() == expected.tobytes()


class TestAutoGrid:
    def test_variance_zero_span(self):
        prob = build_problem(LatticeSpec((4, 5), (1.0, 1.0)))
        grid = auto_grid(prob, 100, margin=0.1)
        b, _ = branch_table(prob.spec)
        assert grid[0] == pytest.approx(b.min() - 0.1)
        assert grid[-1] == pytest.approx(b.max() + 0.1)

    def test_figure_1a_span(self):
        prob = build_problem(LatticeSpec((30, 50), (0.7, 0.5)))
        grid = auto_grid(prob, 2000, margin=0.1)
        assert grid[0] <= -0.50
        assert grid[-1] >= 1.48

    def test_point_count(self):
        prob = build_problem(LatticeSpec((3, 3), (0.5, 0.5)))
        grid = auto_grid(prob, 16, margin=0.1)
        assert len(grid) == 16
        assert np.allclose(np.diff(grid), grid[1] - grid[0])

    def test_rejects_too_few_points(self):
        prob = build_problem(LatticeSpec((3, 3), (0.5, 0.5)))
        with pytest.raises(ValueError):
            auto_grid(prob, 8, margin=0.1)


class TestSpectralCurve:
    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            SpectralCurve(grid=np.array([0.0, -1.0]))

    def test_rejects_decreasing_cdf(self):
        with pytest.raises(ValueError):
            SpectralCurve(grid=np.array([0.0, 1.0]), cdf=np.array([0.5, 0.2]))

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            SpectralCurve(grid=np.array([0.0, 1.0]), density=np.array([0.1, -0.1]))
