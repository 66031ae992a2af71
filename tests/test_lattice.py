import math
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolattice import lattice
from percolattice.canonical import variance_matrix
from percolattice.lattice import (
    BRANCH_LIMIT,
    LatticeSpec,
    SizeLimitError,
    branch_table,
    decode_index,
    encode_index,
    expected_degree,
    expected_matrix,
    expected_spectrum,
    lattice_adjacency,
    link_matrix,
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


def _kron_dimension_adjacency(spec, d):
    """Links along dimension d as a Kronecker product of I and J - I factors."""
    blocks = [np.ones((m, m)) - np.eye(m) if k == d else np.eye(m)
              for k, m in enumerate(spec.dims)]
    # np.kron varies its right factor fastest, nodes their first digit
    return reduce(np.kron, reversed(blocks))


def _kron_reference_matrices(spec):
    """The Kronecker-chain adjacency, B and V that link_matrix replaced."""
    gamma = expected_degree(spec)
    per_dim = [_kron_dimension_adjacency(spec, d) for d in range(spec.ndim)]
    a = sum(per_dim)
    b = sum(p * a_d for p, a_d in zip(spec.probs, per_dim)) / gamma
    v = sum((p * (1 - p) / gamma**2) * a_d for p, a_d in zip(spec.probs, per_dim))
    return a, b, v


def _random_specs(count, seed, max_nodes=400):
    """Specs with D = 1..5, sizes 2..30 and N <= max_nodes."""
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        d = int(rng.integers(1, 6))
        dims = tuple(int(m) for m in rng.integers(2, 31 if d == 1 else 7, size=d))
        if math.prod(dims) > max_nodes:
            continue
        probs = tuple(float(p) for p in rng.uniform(0.01, 1.0, size=d))
        specs.append(LatticeSpec(dims, probs))
    return specs


def _reference_branch_table(spec):
    """The per-branch loop branch_table replaced, kept as a reference."""
    gamma = expected_degree(spec)
    values, mults = [], []
    for j in product((0, 1), repeat=spec.ndim):
        b = sum(
            p * ((m - 1) if jd == 0 else -1)
            for p, m, jd in zip(spec.probs, spec.dims, j)
        ) / gamma
        mult = math.prod((1 if jd == 0 else m - 1) for m, jd in zip(spec.dims, j))
        values.append(b)
        mults.append(mult)
    return np.array(values), np.array(mults, dtype=np.int64)


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

    def test_dense_size_limit(self, monkeypatch):
        def no_edges(spec):
            pytest.fail("edges enumerated before the size check")

        monkeypatch.setattr(lattice, "supergraph_edges", no_edges)
        spec = LatticeSpec((200, 200), (0.5, 0.5))
        with pytest.raises(SizeLimitError, match="dense adjacency refused for N=40000"):
            link_matrix(spec, [1.0, 1.0])
        with pytest.raises(SizeLimitError):
            lattice_adjacency(spec)

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


class TestLinkMatrix:
    @staticmethod
    def _assert_bytes_match_reference(spec):
        want = _kron_reference_matrices(spec)
        got = (lattice_adjacency(spec), expected_matrix(spec), variance_matrix(spec))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_bytes_match_kronecker_reference_random_specs(self):
        for spec in _random_specs(220, seed=9):
            self._assert_bytes_match_reference(spec)

    @pytest.mark.parametrize("spec", [
        LatticeSpec((30, 20), (0.7, 0.5)),
        LatticeSpec((2, 2, 2, 2, 2, 2, 3, 3), (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2)),
    ], ids=lambda spec: str(spec.dims))
    def test_bytes_match_kronecker_reference(self, spec):
        self._assert_bytes_match_reference(spec)


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


class TestBranchTable:
    def test_bytes_match_per_branch_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            d = int(rng.integers(1, 9))
            dims = tuple(int(m) for m in rng.integers(2, 12, size=d))
            probs = tuple(float(p) for p in rng.uniform(0.01, 1.0, size=d))
            spec = LatticeSpec(dims, probs)
            values, mults = branch_table(spec)
            ref_values, ref_mults = _reference_branch_table(spec)
            assert values.tobytes() == ref_values.tobytes()
            assert mults.dtype == np.int64
            assert mults.tobytes() == ref_mults.tobytes()

    def test_branch_cap(self):
        d = BRANCH_LIMIT.bit_length()  # 2^d is the first count over the cap
        with pytest.raises(SizeLimitError, match=r"branch table refused for 2\^D="):
            branch_table(LatticeSpec((2,) * d, (0.5,) * d))
