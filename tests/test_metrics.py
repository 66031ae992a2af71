import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolattice.inversion import DistanceReport, compare


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
