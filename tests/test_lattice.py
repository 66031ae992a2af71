import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolattice.lattice import (
    LatticeSpec,
    SizeLimitError,
    decode_index,
    dimension_adjacency,
    encode_index,
    expected_degree,
    expected_matrix,
    expected_spectrum,
    lattice_adjacency,
    node_count,
    supergraph_edges,
)


def _adjacent(spec, i, j):
    """True iff nodes i, j differ in exactly one mixed-radix digit."""
    return sum(a != b for a, b in zip(decode_index(spec, i), decode_index(spec, j))) == 1


def _reference_supergraph_edges(spec):
    """The original pair-loop enumeration: one block per digit pair (a, b)."""
    n = node_count(spec)
    nodes = np.arange(1, n + 1).reshape(spec.dims, order="F")
    rows_i, rows_j, rows_d = [], [], []
    for d, m in enumerate(spec.dims):
        for a in range(m):
            for b in range(a + 1, m):
                i = np.take(nodes, a, axis=d).ravel()
                j = np.take(nodes, b, axis=d).ravel()
                rows_i.append(i)
                rows_j.append(j)
                rows_d.append(np.full(i.shape, d, dtype=np.int64))
    i = np.concatenate(rows_i)
    j = np.concatenate(rows_j)
    dd = np.concatenate(rows_d)
    order = np.lexsort((j, i))
    return np.column_stack([i[order], j[order], dd[order]])


# D = 1..5; all-twos at every D and a lone M_d = 2 in every position;
# the paper's and the benchmark's sizes.
REFERENCE_EDGE_DIMS = [
    (5,), (3, 4), (2, 3, 4), (3, 2, 4, 2), (3, 2, 4, 2, 3),
    (2,), (2, 2), (2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2),
    (2, 5), (5, 2), (3, 2, 4), (3, 4, 2),
    (500,), (30, 50), (10, 10, 20), (3, 4, 5, 6, 7),
]


def small_specs():
    return st.integers(1, 4).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(2, 5), min_size=d, max_size=d),
            st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d),
        )
    ).map(lambda t: LatticeSpec(tuple(t[0]), tuple(t[1])))


class TestSpecValidation:
    def test_rejects_dim_below_two(self):
        with pytest.raises(ValueError):
            LatticeSpec((1, 3), (0.5, 0.5))

    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError):
            LatticeSpec((3, 3), (0.0, 0.5))

    def test_rejects_probability_above_one(self):
        with pytest.raises(ValueError):
            LatticeSpec((3, 3), (0.5, 1.5))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LatticeSpec((3, 3), (0.5,))

    def test_rejects_node_count_overflow(self):
        with pytest.raises(ValueError, match="overflow"):
            LatticeSpec((2**40, 2**40), (0.5, 0.5))


class TestNodeCount:
    def test_figure_1a_dims(self):
        assert node_count(LatticeSpec((30, 50), (0.7, 0.5))) == 1500

    def test_single_factor(self):
        assert node_count(LatticeSpec((2,), (1.0,))) == 2

    def test_figure_1b_dims(self):
        assert node_count(LatticeSpec((10, 10, 20), (0.8, 0.7, 0.6))) == 2000


class TestIndexing:
    spec = LatticeSpec((3, 4), (0.5, 0.5))

    def test_decode_examples(self):
        assert decode_index(self.spec, 1) == (0, 0)
        assert decode_index(self.spec, 7) == (0, 2)
        assert decode_index(self.spec, 12) == (2, 3)

    def test_encode_examples(self):
        assert encode_index(self.spec, (0, 0)) == 1
        assert encode_index(self.spec, (0, 2)) == 7
        assert encode_index(self.spec, (2, 3)) == 12

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            decode_index(self.spec, 0)
        with pytest.raises(ValueError):
            decode_index(self.spec, 13)

    def test_encode_rejects_bad_digit(self):
        with pytest.raises(ValueError):
            encode_index(self.spec, (3, 0))

    @settings(max_examples=50, deadline=None)
    @given(small_specs(), st.data())
    def test_round_trip(self, spec, data):
        x = data.draw(st.integers(1, node_count(spec)))
        assert encode_index(spec, decode_index(spec, x)) == x


class TestAdjacency:
    spec = LatticeSpec((3, 4), (0.5, 0.5))

    def test_self_not_adjacent(self):
        assert not _adjacent(self.spec, 1, 1)
        assert lattice_adjacency(self.spec)[0, 0] == 0

    def test_one_digit_difference(self):
        assert _adjacent(self.spec, 1, 2)
        assert lattice_adjacency(self.spec)[0, 1] == 1

    def test_two_digit_difference(self):
        # beta(1) = (0,0), beta(5) = (1,1)
        assert not _adjacent(self.spec, 1, 5)
        assert lattice_adjacency(self.spec)[0, 4] == 0

    def test_k2(self):
        a = lattice_adjacency(LatticeSpec((2,), (1.0,)))
        assert np.array_equal(a, [[0, 1], [1, 0]])

    def test_four_cycle(self):
        a = lattice_adjacency(LatticeSpec((2, 2), (1.0, 1.0)))
        assert np.array_equal(a.sum(axis=1), [2, 2, 2, 2])
        assert np.array_equal(a, a.T)
        assert np.array_equal(np.diag(a), np.zeros(4))

    def test_row_sums(self):
        a = lattice_adjacency(self.spec)
        assert np.array_equal(a.sum(axis=1), np.full(12, 5.0))

    def test_kronecker_matches_hamming(self):
        for spec in (self.spec, LatticeSpec((2, 3, 3), (0.5, 0.5, 0.5))):
            a = lattice_adjacency(spec)
            n = node_count(spec)
            brute = np.array(
                [[_adjacent(spec, i, j) for j in range(1, n + 1)]
                 for i in range(1, n + 1)],
                dtype=float,
            )
            assert np.array_equal(a, brute)

    def test_dense_size_limit(self):
        with pytest.raises(SizeLimitError):
            dimension_adjacency(LatticeSpec((200, 200), (0.5, 0.5)), 0)

    def test_supergraph_edges_canonical(self):
        for spec, degree in ((self.spec, 5), (LatticeSpec((2, 3, 4), (0.5,) * 3), 6)):
            e = supergraph_edges(spec)
            n = node_count(spec)
            assert e.shape == (n * degree // 2, 3)
            assert np.all(e[:, 0] < e[:, 1])
            keys = list(map(tuple, e[:, :2]))
            assert keys == sorted(keys)
            assert all(_adjacent(spec, int(i), int(j)) for i, j in keys)

    @pytest.mark.parametrize("dims", REFERENCE_EDGE_DIMS, ids=str)
    def test_supergraph_edges_match_reference(self, dims):
        spec = LatticeSpec(dims, (0.5,) * len(dims))
        got = supergraph_edges(spec)
        want = _reference_supergraph_edges(spec)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestExpectedDegree:
    def test_figure_1a(self):
        assert expected_degree(LatticeSpec((30, 50), (0.7, 0.5))) == pytest.approx(44.8)

    def test_single_link(self):
        assert expected_degree(LatticeSpec((2,), (1.0,))) == 1.0

    def test_figure_1b(self):
        # 0.8*9 + 0.7*9 + 0.6*19
        assert expected_degree(
            LatticeSpec((10, 10, 20), (0.8, 0.7, 0.6))
        ) == pytest.approx(24.9)


class TestExpectedSpectrum:
    def test_figure_1a_branches(self):
        values, mults = expected_spectrum(LatticeSpec((30, 50), (0.7, 0.5)))
        got = dict(zip(values.tolist(), mults.tolist()))
        expected = {
            1.0: 1,
            0.53125: 29,
            19.8 / 44.8: 49,
            -1.2 / 44.8: 1421,
        }
        assert set(got.values()) == set(expected.values())
        for v, m in expected.items():
            match = [gv for gv in got if abs(gv - v) < 1e-12]
            assert match and got[match[0]] == m

    def test_k2(self):
        values, mults = expected_spectrum(LatticeSpec((2,), (1.0,)))
        assert values.tolist() == [-1.0, 1.0]
        assert mults.dtype == np.int64 and mults.tolist() == [1, 1]

    @settings(max_examples=25, deadline=None)
    @given(small_specs())
    def test_multiplicities_partition_nodes(self, spec):
        _, mults = expected_spectrum(spec)
        assert int(mults.sum()) == node_count(spec)

    @pytest.mark.parametrize("dims,probs", [
        ((4, 5), (0.7, 0.5)),
        ((3, 3, 4), (0.8, 0.7, 0.6)),
        ((2, 2, 2, 3), (0.9, 0.5, 0.4, 1.0)),
    ])
    def test_matches_dense_eigensolve(self, dims, probs):
        spec = LatticeSpec(dims, probs)
        flat = np.sort(np.repeat(*expected_spectrum(spec)))
        dense = np.sort(np.linalg.eigvalsh(expected_matrix(spec)))
        assert np.abs(flat - dense).max() < 1e-10
