import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolattice import canonical
from percolattice.canonical import SolverError, build_problem, solve_alpha
from percolattice.inversion import (
    DistanceReport,
    auto_grid,
    cdf_from_density,
    compare,
    default_epsilon,
    density_curve,
    grid_spacing,
    span_grid,
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
        dens = density_curve(point_mass(0.5), np.array([0.0, 0.5, 1.0]), eps)
        assert dens[1] == pytest.approx(1 / (np.pi * eps))

    def test_semicircle_center(self):
        eps = 0.002
        dens = density_curve(semicircle_transform, np.array([0.0]), eps)
        assert abs(dens[0] - 1 / np.pi) < 2 * eps

    def test_far_field_decay(self):
        prob = build_problem(LatticeSpec((4, 5), (0.7, 0.5)))
        x = np.abs(prob.atoms).max() + 10.0
        eps = 0.01
        dens = density_curve(
            lambda z: solve_alpha(prob, z).alpha_principal, np.array([x]), eps
        )
        assert dens[0] <= eps * 1e-1

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
        with pytest.raises(SolverError, match=r"z=\(0\.25\+0\.01j\) after \d+ sweeps "
                           r"\(residual \S+ > tol 1\.0e-12\)") as info:
            density_curve(
                lambda z: solve_alpha(prob, z).alpha_principal, np.array([0.25]), 0.01
            )
        assert info.value.residual > 1e-12
        assert info.value.iterations >= 1

    def test_rejects_transform_off_herglotz_branch(self):
        # the conjugate of a point mass's transform has Im S < 0 above the axis
        with pytest.raises(ValueError, match=r"^negative density -3\.183e\+01: "
                           r"transform is off the Herglotz branch$"):
            density_curve(lambda z: np.conj(point_mass(0.0)(z)), np.array([0.0]), 0.01)

    def test_nonnegative_for_herglotz_input(self):
        grid = np.linspace(-3, 3, 400)
        dens = density_curve(semicircle_transform, grid, 0.01)
        assert dens.min() >= 0.0


class TestCdfCurve:
    def test_point_mass_arctan_bounds(self):
        grid = np.linspace(-5, 5, 4001)
        cdf = cdf_from_density(grid, density_curve(point_mass(0.0), grid, 0.01))
        assert cdf[np.searchsorted(grid, -1.0)] <= 0.01
        assert cdf[np.searchsorted(grid, 1.0)] >= 0.99

    def test_semicircle_median(self):
        grid = np.linspace(-3, 3, 2001)
        cdf = cdf_from_density(
            grid, density_curve(semicircle_transform, grid, 2 * default_epsilon(grid) / 2))
        assert abs(cdf[np.searchsorted(grid, 0.0)] - 0.5) < 0.01

    def test_atomic_steps_at_midgaps(self):
        spec = LatticeSpec((4, 5), (1.0, 1.0))
        prob = build_problem(spec)
        grid = auto_grid(prob, 2000, 0.1)
        eps = default_epsilon(grid)
        cdf = cdf_from_density(grid, density_curve(
            lambda z: solve_alpha(prob, z).alpha_principal, grid, eps
        ))
        atoms, mults = expected_spectrum(spec)
        cum = np.cumsum(mults) / node_count(spec)
        mids = (atoms[:-1] + atoms[1:]) / 2
        got = np.interp(mids, grid, cdf)
        assert np.abs(got - cum[:-1]).max() < 0.02

    def test_monotone_and_right_edge(self):
        grid = np.linspace(-3, 3, 1500)
        cdf = cdf_from_density(
            grid, density_curve(semicircle_transform, grid, default_epsilon(grid)))
        assert np.all(np.diff(cdf) >= -1e-12)
        assert 0.97 <= cdf[-1] <= 1.0

    def test_rejects_insufficient_right_edge_mass(self):
        grid = np.linspace(-5, -2, 500)  # support of semicircle not covered
        with pytest.raises(ValueError, match="widen"):
            cdf_from_density(grid, density_curve(semicircle_transform, grid, 0.01))


def test_empirical_machinery_symmetry():
    # integrating the smoothed empirical transform reproduces the step CDF
    from percolattice.espectrum import esd_cdf, monte_carlo_spectrum, smoothed_density

    spec = LatticeSpec((4, 5), (0.7, 0.5))
    prob = build_problem(spec)
    pooled = monte_carlo_spectrum(spec, 21, 10)
    grid = auto_grid(prob, 2000, 0.1)
    eps = default_epsilon(grid)
    cdf = cdf_from_density(grid, smoothed_density(pooled, grid, eps))
    step = np.asarray(esd_cdf(pooled, grid), dtype=float)
    # compare away from the atom-like jumps: mid-gap via sup over a coarse probe
    assert np.abs(cdf - step).mean() < 0.005
    assert np.abs(cdf - step).max() < 0.05


def test_cdf_matches_scipy_cumulative_trapezoid():
    # same arithmetic as scipy, so CDF bytes do not move
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(12)
    for n in (2, 3, 17, 2000):
        grid = np.cumsum(rng.uniform(0.01, 1.0, size=n))
        dens = rng.uniform(0.0, 1.0, size=n)
        dens /= cumulative_trapezoid(dens, grid)[-1]
        cdf = cdf_from_density(grid, dens)
        expected = np.clip(cumulative_trapezoid(dens, grid, initial=0.0), 0.0, 1.0)
        assert cdf.tobytes() == expected.tobytes()


class TestAutoGrid:
    def test_variance_zero_span(self):
        spec = LatticeSpec((4, 5), (1.0, 1.0))
        grid = auto_grid(build_problem(spec), 100, margin=0.1)
        b, _ = branch_table(spec)
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

    @pytest.mark.parametrize("margin", [-5.0, float("nan"), float("inf")])
    def test_rejects_bad_margin(self, margin):
        prob = build_problem(LatticeSpec((3, 3), (0.5, 0.5)))
        with pytest.raises(ValueError, match="margin must be a finite number >= 0"):
            auto_grid(prob, 100, margin=margin)

    @pytest.mark.parametrize("dims, probs", [
        ((30, 50), (0.7, 0.5)),
        ((10, 10, 20), (0.8, 0.7, 0.6)),
        ((3, 4, 5, 6, 7), (0.9, 0.7, 0.5, 0.3, 0.2)),
    ])
    def test_is_the_padded_linspace(self, dims, probs):
        # auto_grid is span_grid of the branch values padded by margin + 4 sigma
        prob = build_problem(LatticeSpec(dims, probs))
        w = 0.1 + 4.0 * np.sqrt(prob.variance_sum)
        expected = np.linspace(prob.atoms.min() - w, prob.atoms.max() + w, 2000)
        assert auto_grid(prob, 2000, margin=0.1).tobytes() == expected.tobytes()


class TestSpanGrid:
    @pytest.mark.parametrize("lo, hi, margin", [(0.0, 0.0, 0.0), (1e20, 1e20, 1.0)])
    def test_no_ascending_grid_names_the_margin(self, lo, hi, margin):
        # a constant grid used to pass on, to be blamed on epsilon or the grid
        with pytest.raises(ValueError, match=f"at margin {margin:g} give no strictly ascending"):
            span_grid(lo, hi, 16, margin)


class TestSpectralCurve:
    # the checks of the deleted curve type, kept under its name: a grid and a
    # density are checked by cdf_from_density, a grid and a CDF by compare
    @staticmethod
    def by_both(grid):
        return [lambda: cdf_from_density(grid, np.zeros(len(grid))),
                lambda: compare(grid, np.zeros(len(grid)), np.zeros(len(grid)))]

    def test_rejects_unsorted_grid(self):
        for check in self.by_both(np.array([0.0, -1.0])):
            with pytest.raises(ValueError, match="^grid must be finite and strictly ascending$"):
                check()

    # [0, nan, 1] used to pass the ascending check: nan <= 0 is False
    @pytest.mark.parametrize("grid", [[0.0, np.nan, 1.0], [np.nan, 0.0], [0.0, 1.0, np.inf],
                                      [-np.inf, 0.0, 1.0], [np.nan]])
    def test_rejects_non_finite_grid(self, grid):
        for check in self.by_both(grid):
            with pytest.raises(ValueError, match="finite"):
                check()

    def test_rejects_decreasing_cdf(self):
        with pytest.raises(ValueError):
            compare(np.array([0.0, 1.0]), np.array([0.5, 0.2]), np.array([0.5, 0.5]))

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            cdf_from_density(np.array([0.0, 1.0]), np.array([0.1, -0.1]))

    @pytest.mark.parametrize("side", ["cdf", "density"])
    def test_rejects_wrong_length(self, side):
        grid, short = [0.0, 1.0, 2.0], [0.0, 1.0]
        with pytest.raises(ValueError, match=f"^{side} length must match grid$"):
            if side == "cdf":
                compare(grid, [0.0, 0.5, 1.0], short)
            else:
                cdf_from_density(grid, short)

    # NaN passed every `<` / `>` check, so compare of such a curve
    # with a finite one returned NaN distances instead of raising
    @pytest.mark.parametrize("cdf", [[0.0, np.nan, 1.0], [np.nan, 0.5, 1.0],
                                     [0.0, 0.5, np.inf], [-np.inf, 0.5, 1.0]])
    def test_rejects_non_finite_cdf(self, cdf):
        with pytest.raises(ValueError, match="cdf must be nondecreasing within"):
            compare([0.0, 1.0, 2.0], cdf, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("density", [[np.nan, 0.5, 0.5], [0.5, np.nan, 0.5],
                                         [0.5, np.inf, 0.5], [0.5, 0.5, -np.inf]])
    def test_rejects_non_finite_density(self, density):
        with pytest.raises(ValueError, match="density must be finite and nonnegative"):
            cdf_from_density([0.0, 1.0, 2.0], density)


class TestGridSpacing:
    @pytest.mark.parametrize("grid", [
        np.linspace(-1.3, 2.1, 2000),                                  # linspace, odd diffs
        np.linspace(-1.3, 2.1, 2001),                                  # even diffs
        [0.0, 0.1, 0.35, 0.36, 1.0, 2.5],                              # odd, non-uniform
        [0.0, 0.1, 0.35, 0.36, 1.0, 2.5, 2.6],                         # even, non-uniform
        np.cumsum(np.random.default_rng(3).exponential(size=1000)),    # odd, random
        np.cumsum(np.random.default_rng(4).exponential(size=1001)),    # even, random
        [0.0, 1.0],                                                    # one difference
        [3.0, 1.0, 2.0, 0.5],                                          # unsorted
        [0.0, np.nan, 1.0, 2.0],                                       # NaN, sorted last
        [np.nan, 0.0, 1.0, 2.0, 3.0],
        [0.0, 1.0, 2.0, 4.0, np.nan, 5.0, 7.0],
    ])
    def test_bit_equal_to_numpy_median(self, grid):
        expected = float(np.median(np.diff(np.asarray(grid, dtype=float))))
        assert np.float64(grid_spacing(grid)).tobytes() == np.float64(expected).tobytes()


def step_cdf(location, grid):
    return (grid >= location).astype(float)


FINE = np.linspace(-1, 2, 3001)


def random_cdf(draw_values, grid):
    incs = np.array(draw_values)
    cdf = np.concatenate([[0.0], np.cumsum(incs)])
    cdf = cdf / cdf[-1]
    return np.interp(grid, np.linspace(grid[0], grid[-1], len(cdf)), cdf)


class TestKolmogorov:
    def test_identical_curves(self):
        a = step_cdf(0.0, FINE)
        assert compare(FINE, a, a).kolmogorov == 0.0

    def test_shifted_steps(self):
        a = step_cdf(0.0, FINE)
        b = step_cdf(0.3, FINE)
        assert compare(FINE, a, b).kolmogorov == 1.0

    def test_uniform_offset(self):
        a = np.linspace(0, 1, len(FINE))
        b = np.clip(a, 0.05, 0.95)
        assert compare(FINE, a, b).kolmogorov == pytest.approx(0.05)


class TestSharedGrid:
    def test_one_grid_gives_both_distances(self):
        rep = compare(np.array([0.0, 1.0, 2.0]), [0.0, 0.0, 1.0], [0.0, 1.0, 1.0])
        assert rep == DistanceReport(kolmogorov=1.0, levy=1.0)


class TestLevy:
    def test_identical_curves(self):
        a = step_cdf(0.2, FINE)
        assert compare(FINE, a, a).levy == 0.0

    def test_shifted_steps(self):
        a = step_cdf(0.0, FINE)
        b = step_cdf(0.3, FINE)
        assert compare(FINE, a, b).levy == pytest.approx(0.3, abs=2 * (FINE[1] - FINE[0]))

    def test_levy_below_kolmogorov(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_cdf(rng.uniform(0, 1, 12), FINE)
            b = random_cdf(rng.uniform(0, 1, 12), FINE)
            rep = compare(FINE, a, b)
            assert rep.levy <= rep.kolmogorov + 1e-12


class TestMetricProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(0.01, 1), min_size=4, max_size=10),
        st.lists(st.floats(0.01, 1), min_size=4, max_size=10),
    )
    def test_symmetry(self, xs, ys):
        a = random_cdf(xs, FINE)
        b = random_cdf(ys, FINE)
        spacing = FINE[1] - FINE[0]
        ab, ba = compare(FINE, a, b), compare(FINE, b, a)
        assert ab.kolmogorov == ba.kolmogorov
        assert abs(ab.levy - ba.levy) <= spacing

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.floats(0.01, 1), min_size=4, max_size=8),
        st.lists(st.floats(0.01, 1), min_size=4, max_size=8),
        st.lists(st.floats(0.01, 1), min_size=4, max_size=8),
    )
    def test_triangle_inequality(self, xs, ys, zs):
        a, b, c = (random_cdf(v, FINE) for v in (xs, ys, zs))
        spacing = FINE[1] - FINE[0]
        ac, ab, bc = compare(FINE, a, c), compare(FINE, a, b), compare(FINE, b, c)
        assert ac.kolmogorov <= ab.kolmogorov + bc.kolmogorov + 2 * spacing
        assert ac.levy <= ab.levy + bc.levy + 2 * spacing
