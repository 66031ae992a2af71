import tracemalloc

import numpy as np
import pytest

from percolattice.espectrum import row_normalized_eigenvalues, trial_seed
from percolattice.lattice import (
    ROW_CHUNK,
    LatticeSpec,
    expected_degree,
    expected_matrix,
    link_matrix,
    node_count,
    supergraph_edges,
)
from percolattice.percolation import adjacency, sample


def trial_draws(spec, seed, trials):
    """sample(spec, trial_seed(seed, t)) for each trial t, all from one listing."""
    edges = supergraph_edges(spec)
    return (sample(spec, trial_seed(seed, t), edges) for t in range(trials))


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
        assert np.array_equal(s.edges, supergraph_edges(spec))

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
        # each kept row is a whole (i, j, dim) row of supergraph_edges, in its order
        for spec in (LatticeSpec((3, 3), (0.6, 0.6)), LatticeSpec((4, 2, 3), (0.3, 0.9, 0.5))):
            edges = supergraph_edges(spec)
            position = {row: k for k, row in enumerate(map(tuple, edges.tolist()))}
            s = sample(spec, 7)
            assert s.edges.shape == (len(s.edges), 3) and s.edges.dtype == edges.dtype
            kept = [position[row] for row in map(tuple, s.edges.tolist())]
            assert 0 < len(kept) < len(edges) and np.all(np.diff(kept) > 0)

    def test_mean_edge_count(self):
        # binomial mean over dims: 1500*29/2*0.7 + 1500*49/2*0.5 = 33600
        spec = LatticeSpec((30, 50), (0.7, 0.5))
        counts = [len(s.edges) for s in trial_draws(spec, 123, 200)]
        var = 1500 * 29 / 2 * 0.7 * 0.3 + 1500 * 49 / 2 * 0.5 * 0.5
        se = np.sqrt(var / 200)
        assert abs(np.mean(counts) - 33600) <= 3 * se

    def test_per_dimension_retention_rate(self):
        spec = LatticeSpec((6, 6), (0.7, 0.5))
        edges = supergraph_edges(spec)
        per_dim_total = np.array([(edges[:, 2] == d).sum() for d in (0, 1)])
        kept = np.zeros(2)
        for s in trial_draws(spec, 99, 1000):
            kept += np.bincount(s.edges[:, 2], minlength=2)
        for d, p in enumerate(spec.probs):
            rate = kept[d] / (per_dim_total[d] * 1000)
            se = np.sqrt(p * (1 - p) / (per_dim_total[d] * 1000))
            assert abs(rate - p) <= 3 * se


class TestChunkedDrawAndAssembly:
    """sample and link_matrix work in chunks of ROW_CHUNK listing rows, with
    the bits of the one-shot draw and scatter kept here as references."""


    @staticmethod
    def _one_shot_draw(spec, seed, edges):
        rng = np.random.Generator(np.random.Philox(np.uint64(seed)))
        return edges[rng.random(len(edges)) < np.asarray(spec.probs)[edges[:, 2]]]

    @staticmethod
    def _one_shot_scatter(spec, edges, per_dim):
        n = node_count(spec)
        i, j = edges[:, 0] - 1, edges[:, 1] - 1
        a = np.zeros((n, n))
        a[i, j] = a[j, i] = np.asarray(per_dim, dtype=float)[edges[:, 2]]
        return a

    # (full chunks, rows left over): under one chunk, exactly two, seven and a part
    @pytest.mark.parametrize("spec, chunks", [
        (LatticeSpec((4, 5), (0.7, 0.5)), (0, 70)),
        (LatticeSpec((2, 128), (0.6, 0.4)), (2, 0)),
        (LatticeSpec((30, 50), (0.7, 0.5)), (7, 1156)),
    ], ids=["70", "16384", "58500"])
    def test_bits_match_the_one_shot_references(self, spec, chunks):
        edges = supergraph_edges(spec)
        assert divmod(len(edges), ROW_CHUNK) == chunks
        for seed in (0, trial_seed(42, 1)):
            s = sample(spec, seed, edges)
            want = self._one_shot_draw(spec, seed, edges)
            assert s.edges.dtype == want.dtype and np.array_equal(s.edges, want)
            ref = self._one_shot_scatter(spec, want, [1.0] * spec.ndim)
            assert adjacency(s).tobytes() == ref.tobytes()
        # every listing row written, so the chunks end where the listing does
        per_dim = [p / expected_degree(spec) for p in spec.probs]
        assert (link_matrix(spec, edges, per_dim).tobytes()
                == self._one_shot_scatter(spec, edges, per_dim).tobytes())

    def test_draw_and_assembly_hold_no_per_link_temporaries(self):
        # beyond the listing, the kept rows and the matrix, the one-shot draw
        # and scatter held ~16 B more per kept link (the uniforms, the
        # probability gather, the index columns, the value gather): 16.1 MiB
        # at 1.05M kept links here; chunked, the rest is one chunk's, 0.25 MiB
        spec = LatticeSpec((2048,), (0.5,))
        sample(LatticeSpec((4, 5), (0.7, 0.5)), 0)  # numpy.random loads outside the trace
        tracemalloc.start()
        try:
            edges = supergraph_edges(spec)
            tracemalloc.reset_peak()
            s = sample(spec, 3, edges)
            a = adjacency(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(edges) == 2048 * 2047 // 2
        assert peak - (edges.nbytes + s.edges.nbytes + a.nbytes) < 2 * 2**20

    def test_compaction_holds_no_per_link_index(self):
        # edges[keep] built an int64 index of every kept row beside the mask,
        # 8 B per kept link (7.6 MiB here); chunked, the kept rows are copied
        # straight into their own array
        spec = LatticeSpec((2000,), (0.5,))
        edges = supergraph_edges(spec)
        sample(LatticeSpec((4, 5), (0.7, 0.5)), 0)  # numpy.random loads outside the trace
        tracemalloc.start()
        try:
            s = sample(spec, 3, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(s.edges, self._one_shot_draw(spec, 3, edges))
        assert peak - (s.edges.nbytes + len(edges)) < 2**20


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
        got = row_normalized_eigenvalues(adjacency(s))
        assert np.abs(np.sort(dense.real) - got).max() < 1e-10

    def test_mean_scaled_adjacency_converges_to_expectation(self):
        spec = LatticeSpec((4, 5), (0.7, 0.5))
        edges = supergraph_edges(spec)
        b = expected_matrix(spec, edges)
        acc = np.zeros_like(b)
        trials = 500
        for s in trial_draws(spec, 2024, trials):
            acc += scaled_adjacency(s)
        acc /= trials
        gamma = expected_degree(spec)
        v = link_matrix(spec, edges, [p * (1 - p) / gamma**2 for p in spec.probs])
        se = np.sqrt(v / trials)
        link = se > 0
        assert np.all(np.abs(acc - b)[link] <= 3 * se[link])
        assert np.array_equal(acc[~link], b[~link])
