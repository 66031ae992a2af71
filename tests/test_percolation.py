import numpy as np
import pytest

from percolattice.canonical import build_problem, variance_matrix
from percolattice.espectrum import row_normalized_eigenvalues, trial_seed
from percolattice.lattice import (
    LatticeSpec,
    expected_degree,
    expected_matrix,
    supergraph_edges,
)
from percolattice.percolation import adjacency, girko_conditions, sample


def scaled_adjacency(s):
    """W = A / gamma; entries in {0, 1/gamma}."""
    return adjacency(s) / expected_degree(s.spec)


def row_normalized_adjacency(s):
    """Delta^{-1} A with zero rows for isolated nodes (pseudo-inverse convention)."""
    a = adjacency(s)
    deg = a.sum(axis=1)
    inv = np.zeros_like(deg)
    np.divide(1.0, deg, out=inv, where=deg > 0)
    return inv[:, None] * a


class TestSampling:
    def test_all_probabilities_one_keeps_every_link(self):
        spec = LatticeSpec((3, 4), (1.0, 1.0))
        s = sample(spec, 0)
        assert np.array_equal(s.edges, supergraph_edges(spec)[:, :2])

    def test_vanishing_probability_keeps_nothing(self):
        spec = LatticeSpec((3, 4), (1e-12, 1e-12))
        assert len(sample(spec, 5).edges) == 0

    def test_determinism(self):
        spec = LatticeSpec((4, 5), (0.7, 0.5))
        a = sample(spec, 12345)
        b = sample(spec, 12345)
        assert np.array_equal(a.edges, b.edges)
        c = sample(spec, 12346)
        assert not np.array_equal(a.edges, c.edges)

    def test_edges_are_supergraph_links(self):
        spec = LatticeSpec((3, 3), (0.6, 0.6))
        s = sample(spec, 7)
        allowed = set(map(tuple, supergraph_edges(spec)[:, :2]))
        assert all(tuple(e) in allowed for e in s.edges)

    def test_mean_edge_count(self):
        # binomial mean over dims: 1500*29/2*0.7 + 1500*49/2*0.5 = 33600
        spec = LatticeSpec((30, 50), (0.7, 0.5))
        counts = [len(sample(spec, trial_seed(123, t)).edges) for t in range(200)]
        var = 1500 * 29 / 2 * 0.7 * 0.3 + 1500 * 49 / 2 * 0.5 * 0.5
        se = np.sqrt(var / 200)
        assert abs(np.mean(counts) - 33600) <= 3 * se

    def test_per_dimension_retention_rate(self):
        spec = LatticeSpec((6, 6), (0.7, 0.5))
        edges = supergraph_edges(spec)
        per_dim_total = np.array([(edges[:, 2] == d).sum() for d in (0, 1)])
        kept = np.zeros(2)
        for t in range(1000):
            s = sample(spec, trial_seed(99, t))
            key = set(map(tuple, s.edges))
            for i, j, d in edges:
                if (i, j) in key:
                    kept[d] += 1
        for d, p in enumerate(spec.probs):
            rate = kept[d] / (per_dim_total[d] * 1000)
            se = np.sqrt(p * (1 - p) / (per_dim_total[d] * 1000))
            assert abs(rate - p) <= 3 * se


class TestMatrices:
    def test_empty_sample_gives_zero_matrix(self):
        spec = LatticeSpec((3, 4), (1e-12, 1e-12))
        assert not scaled_adjacency(sample(spec, 5)).any()

    def test_k2_scaled(self):
        spec = LatticeSpec((2,), (1.0,))
        w = scaled_adjacency(sample(spec, 0))
        assert np.array_equal(w, [[0, 1], [1, 0]])

    def test_scaled_row_sum_bound(self):
        spec = LatticeSpec((4, 5), (0.7, 0.5))
        s = sample(spec, 11)
        w = scaled_adjacency(s)
        a = w * expected_degree(spec)
        assert w.sum(axis=1).max() <= a.sum(axis=1).max() / expected_degree(spec) + 1e-12

    def test_row_normalized_rows_sum_to_one(self):
        spec = LatticeSpec((4, 5), (0.4, 0.4))
        ahat = row_normalized_adjacency(sample(spec, 3))
        sums = ahat.sum(axis=1)
        assert np.all((np.abs(sums - 1.0) < 1e-12) | (sums == 0.0))

    def test_isolated_node_row_is_zero(self):
        spec = LatticeSpec((5, 5), (0.05, 0.05))
        for seed in range(50):
            s = sample(spec, seed)
            a = scaled_adjacency(s) * expected_degree(spec)
            deg = a.sum(axis=1)
            if (deg == 0).any():
                ahat = row_normalized_adjacency(s)
                assert not ahat[deg == 0].any()
                return
        pytest.fail("no isolated node produced at p=0.05; widen the seed scan")

    @pytest.mark.parametrize("probs, seed", [((0.4, 0.4), 3), ((0.05, 0.05), 0)])
    def test_row_normalized_eigenvalues_match_dense(self, probs, seed):
        # the symmetric similarity D^{-1/2} A D^{-1/2} has the spectrum of
        # Delta^{-1} A; the two samples have 5 and 12 isolated nodes (zero rows)
        s = sample(LatticeSpec((4, 5), probs), seed)
        dense = np.linalg.eigvals(row_normalized_adjacency(s))
        assert np.abs(dense.imag).max() < 1e-10
        got = row_normalized_eigenvalues(s)
        assert np.abs(np.sort(dense.real) - got).max() < 1e-10

    def test_mean_scaled_adjacency_converges_to_expectation(self):
        spec = LatticeSpec((4, 5), (0.7, 0.5))
        b = expected_matrix(spec)
        acc = np.zeros_like(b)
        trials = 500
        for t in range(trials):
            acc += scaled_adjacency(sample(spec, trial_seed(2024, t)))
        acc /= trials
        se = np.sqrt(variance_matrix(spec) / trials)
        link = se > 0
        assert np.all(np.abs(acc - b)[link] <= 3 * se[link])
        assert np.array_equal(acc[~link], b[~link])


class TestGirkoConditions:
    def test_figure_1a_values(self):
        r = girko_conditions(LatticeSpec((30, 50), (0.7, 0.5)))
        assert r.mean_row_sum == 1.0
        assert r.variance_row_sum == pytest.approx(
            (29 * 0.21 + 49 * 0.25) / 44.8**2, abs=1e-15
        )
        assert r.max_entry_bound == pytest.approx(1 / 44.8)

    def test_no_randomness_when_probabilities_one(self):
        r = girko_conditions(LatticeSpec((3, 4), (1.0, 1.0)))
        assert r.variance_row_sum == 0.0
        assert r.min_scaled_variance == 0.0

    def test_variance_row_sum_is_the_solver_sigma2(self):
        # bitwise: conditions must print the sigma^2 that solve_alpha uses
        specs = [LatticeSpec((10, 10, 20), (0.8, 0.7, 0.6))]
        rng = np.random.default_rng(5)
        for _ in range(500):
            d = int(rng.integers(1, 5))
            dims = tuple(int(m) for m in rng.integers(2, 40, size=d))
            probs = tuple(float(p) for p in rng.uniform(0.01, 1.0, size=d))
            specs.append(LatticeSpec(dims, probs))
        for spec in specs:
            got = girko_conditions(spec).variance_row_sum
            assert got == build_problem(spec).variance_sum, spec

    def test_mean_row_sum_exactly_one_random_specs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            dims = tuple(int(m) for m in rng.integers(2, 40, size=d))
            probs = tuple(float(p) for p in rng.uniform(0.01, 1.0, size=d))
            r = girko_conditions(LatticeSpec(dims, probs))
            assert r.mean_row_sum == 1.0

