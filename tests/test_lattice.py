import math
import tracemalloc
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _supergraph_adjacency(spec):
    """Full 0/1 supergraph adjacency."""
    return link_matrix(spec, supergraph_edges(spec), [1.0] * spec.ndim)


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

    @pytest.mark.parametrize("p", [10**400, -10**400, 2, 0], ids=["1e400", "-1e400", "2", "0"])
    def test_rejects_integer_probability_out_of_range(self, p):
        # 10**400 used to end in an OverflowError from float(p)
        with pytest.raises(ValueError, match=r"in \(0, 1\]"):
            LatticeSpec((3,), (p,))

    def test_rejects_no_dimension(self):
        with pytest.raises(ValueError, match="^lattice needs at least one dimension$"):
            LatticeSpec((), ())

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LatticeSpec((3, 3), (0.5,))

    def test_rejects_node_count_overflow(self):
        with pytest.raises(ValueError, match="overflow"):
            LatticeSpec((2**40, 2**40), (0.5, 0.5))

    @pytest.mark.parametrize("dims, probs", [
        ((2,), (1e-320,)),
        ((3,), (1e-200,)),
        ((3, 4), (1e-170, 1e-170)),
    ])
    def test_rejects_underflowing_gamma_squared(self, dims, probs):
        # gamma^2 = 0 used to end in a ZeroDivisionError in variance_sum
        with pytest.raises(ValueError, match="gamma"):
            LatticeSpec(dims, probs)

    def test_accepts_tiny_gamma_with_positive_square(self):
        spec = LatticeSpec((3, 4), (1e-150, 1e-150))
        assert expected_degree(spec) ** 2 > 0

    # each used to be coerced silently: (2.5, 3.9) to (2, 3), True to 1 or 1.0
    @pytest.mark.parametrize("dims, probs", [
        ((2.5, 3.9), (0.5, 0.5)),
        ((3, 4.5), (0.5, 0.5)),
        ((True, 3), (0.5, 0.5)),
        ((np.bool_(True), 3), (0.5, 0.5)),
        (("3", "4"), (0.5, 0.5)),
        ((3, float("inf")), (0.5, 0.5)),
        ((3, 4), (True, 0.5)),
        ((3, 4), (np.bool_(True), 0.5)),
        ((3, 4), ("0.5", 0.5)),
        ((3, 4), (0.5 + 0j, 0.5)),
    ])
    def test_rejects_coercion(self, dims, probs):
        with pytest.raises(ValueError, match="must be (an integer|a real number)"):
            LatticeSpec(dims, probs)

    def test_accepts_numpy_and_integral_float_sizes(self):
        spec = LatticeSpec((np.int64(3), 4.0, np.int32(5)), (np.float64(0.5), 1, 0.25))
        assert spec.dims == (3, 4, 5) and spec.probs == (0.5, 1.0, 0.25)
        assert all(type(m) is int for m in spec.dims)
        assert all(type(p) is float for p in spec.probs)


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

    @pytest.mark.parametrize("digits", [(0,), (0, 0, 0)])
    def test_encode_rejects_wrong_digit_count(self, digits):
        with pytest.raises(ValueError, match=f"^expected 2 digits, got {len(digits)}$"):
            encode_index(self.spec, digits)

    @settings(max_examples=50, deadline=None)
    @given(small_specs(), st.data())
    def test_round_trip(self, spec, data):
        x = data.draw(st.integers(1, node_count(spec)))
        assert encode_index(spec, decode_index(spec, x)) == x


class TestAdjacency:
    spec = LatticeSpec((3, 4), (0.5, 0.5))

    def test_self_not_adjacent(self):
        assert not _adjacent(self.spec, 1, 1)
        assert _supergraph_adjacency(self.spec)[0, 0] == 0

    def test_one_digit_difference(self):
        assert _adjacent(self.spec, 1, 2)
        assert _supergraph_adjacency(self.spec)[0, 1] == 1

    def test_two_digit_difference(self):
        # beta(1) = (0,0), beta(5) = (1,1)
        assert not _adjacent(self.spec, 1, 5)
        assert _supergraph_adjacency(self.spec)[0, 4] == 0

    def test_k2(self):
        a = _supergraph_adjacency(LatticeSpec((2,), (1.0,)))
        assert np.array_equal(a, [[0, 1], [1, 0]])

    def test_four_cycle(self):
        a = _supergraph_adjacency(LatticeSpec((2, 2), (1.0, 1.0)))
        assert np.array_equal(a.sum(axis=1), [2, 2, 2, 2])
        assert np.array_equal(a, a.T)
        assert np.array_equal(np.diag(a), np.zeros(4))

    def test_row_sums(self):
        a = _supergraph_adjacency(self.spec)
        assert np.array_equal(a.sum(axis=1), np.full(12, 5.0))

    def test_kronecker_matches_hamming(self):
        for spec in (self.spec, LatticeSpec((2, 3, 3), (0.5, 0.5, 0.5))):
            a = _supergraph_adjacency(spec)
            n = node_count(spec)
            brute = np.array(
                [[_adjacent(spec, i, j) for j in range(1, n + 1)]
                 for i in range(1, n + 1)],
                dtype=float,
            )
            assert np.array_equal(a, brute)

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
        # the listing every consumer reads is int32, with the reference's int64 values
        assert got.dtype == np.int32
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_supergraph_edges_build_memory(self):
        # the int64 build (a flat index, then divmod) peaked at 50.0 B per link
        # here; int32 columns written from np.nonzero, after the table is
        # freed, peak at 32.0
        spec = LatticeSpec((2000,), (0.5,))
        links = 2000 * 1999 // 2
        tracemalloc.start()
        try:
            edges = supergraph_edges(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert edges.shape == (links, 3)
        assert peak / links <= 40

    def test_supergraph_edges_refuse_int32_overflow(self):
        # N = 2^31: node 2^31 would wrap in an int32 row
        spec = LatticeSpec((2,) * 31, (0.5,) * 31)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError,
                               match="int32 edge listing refused for N=2147483648 > 2147483647"):
                supergraph_edges(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestLinkMatrix:
    @staticmethod
    def _assert_bytes_match_reference(spec):
        want = _kron_reference_matrices(spec)
        gamma = expected_degree(spec)
        edges = supergraph_edges(spec)
        v = link_matrix(spec, edges, [p * (1 - p) / gamma**2 for p in spec.probs])
        got = (link_matrix(spec, edges, [1.0] * spec.ndim), expected_matrix(spec, edges), v)
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
        dense = np.sort(np.linalg.eigvalsh(expected_matrix(spec, supergraph_edges(spec))))
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
