import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolattice.inversion import SpectralCurve
from percolattice.metrics import compare


def step_curve(location, grid):
    return SpectralCurve(grid=grid, cdf=(grid >= location).astype(float))


FINE = np.linspace(-1, 2, 3001)


def random_cdf(draw_values, grid):
    incs = np.array(draw_values)
    cdf = np.concatenate([[0.0], np.cumsum(incs)])
    cdf = cdf / cdf[-1]
    return SpectralCurve(grid=grid, cdf=np.interp(grid, np.linspace(grid[0], grid[-1], len(cdf)), cdf))


class TestKolmogorov:
    def test_identical_curves(self):
        a = step_curve(0.0, FINE)
        assert compare(a, a).kolmogorov == 0.0

    def test_shifted_steps(self):
        a = step_curve(0.0, FINE)
        b = step_curve(0.3, FINE)
        assert compare(a, b).kolmogorov == 1.0

    def test_uniform_offset(self):
        a = SpectralCurve(grid=FINE, cdf=np.linspace(0, 1, len(FINE)))
        clipped = np.clip(a.cdf, 0.05, 0.95)
        b = SpectralCurve(grid=FINE, cdf=clipped)
        assert compare(a, b).kolmogorov == pytest.approx(0.05)

    def test_rejects_curve_without_cdf(self):
        a = step_curve(0.0, FINE)
        density_only = SpectralCurve(grid=FINE, density=np.ones_like(FINE))
        with pytest.raises(ValueError, match="^both curves must carry CDF values$"):
            compare(a, density_only)


def ramp(grid):
    return SpectralCurve(grid=grid, cdf=np.clip(grid, 0, 1))


def steps(shift):
    grid = np.array([0.0, 1.0, 2.0])
    return (SpectralCurve(grid=grid, cdf=[0.0, 0.0, 1.0]),
            SpectralCurve(grid=grid + shift, cdf=[0.0, 1.0, 1.0]))


class TestSharedGrid:
    # two grids that are not one are refused, never resampled onto their union
    # nor read one on the other: at 1e-9 np.allclose once passed them, and b
    # read on a's grid put the two steps together, KS = Levy = 0 instead of 1
    @pytest.mark.parametrize("a, b", [
        steps(1e-9),
        steps(1e-3),
        (ramp(np.linspace(-1, 2, 1000)), ramp(np.linspace(-1.5, 2.5, 1379))),
        (step_curve(0.0, np.linspace(-1, 0, 100)), step_curve(5.0, np.linspace(4, 6, 100))),
    ], ids=["near-equal-1e-9", "near-equal-1e-3", "overlapping", "disjoint"])
    def test_rejects_grids_that_differ(self, a, b):
        with pytest.raises(ValueError, match="^curves must share one grid$"):
            compare(a, b)

    def test_one_grid_gives_its_length(self):
        grid = np.array([0.0, 1.0, 2.0])
        a = SpectralCurve(grid=grid, cdf=[0.0, 0.0, 1.0])
        b = SpectralCurve(grid=grid.copy(), cdf=[0.0, 1.0, 1.0])
        rep = compare(a, b)
        assert (rep.kolmogorov, rep.levy, rep.grid_points) == (1.0, 1.0, 3)


class TestLevy:
    def test_identical_curves(self):
        a = step_curve(0.2, FINE)
        assert compare(a, a).levy == 0.0

    def test_shifted_steps(self):
        a = step_curve(0.0, FINE)
        b = step_curve(0.3, FINE)
        assert compare(a, b).levy == pytest.approx(0.3, abs=2 * (FINE[1] - FINE[0]))

    def test_levy_below_kolmogorov(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_cdf(rng.uniform(0, 1, 12), FINE)
            b = random_cdf(rng.uniform(0, 1, 12), FINE)
            rep = compare(a, b)
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
        ab, ba = compare(a, b), compare(b, a)
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
        ac, ab, bc = compare(a, c), compare(a, b), compare(b, c)
        assert ac.kolmogorov <= ab.kolmogorov + bc.kolmogorov + 2 * spacing
        assert ac.levy <= ab.levy + bc.levy + 2 * spacing
