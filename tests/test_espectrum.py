import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolattice import _openblas, espectrum, percolation
from percolattice.espectrum import (
    EmpiricalSpectrum,
    eigenvalues,
    empirical_stieltjes,
    esd_cdf,
    map_trials,
    monte_carlo_spectrum,
    pool,
    row_normalized_eigenvalues,
    smoothed_density,
    theorem3_spectra,
    trial_seed,
)
from percolattice.lattice import (
    LatticeSpec,
    SizeLimitError,
    expected_degree,
    expected_matrix,
    expected_spectrum,
    link_matrix,
    node_count,
    supergraph_edges,
)
from percolattice.percolation import PercolationSample, adjacency, sample


class TestEigenvalues:
    def test_zero_matrix(self):
        assert np.array_equal(eigenvalues(np.zeros((3, 3))), np.zeros(3))

    def test_four_cycle_scaled(self):
        spec = LatticeSpec((2, 2), (1.0, 1.0))
        w = adjacency(sample(spec, 0)) / expected_degree(spec)
        assert np.allclose(eigenvalues(w), [-1, 0, 0, 1], atol=1e-12)

    def test_expected_matrix_cross_check(self):
        spec = LatticeSpec((4, 5), (0.7, 0.5))
        flat = np.sort(np.repeat(*expected_spectrum(spec)))
        b = expected_matrix(spec, supergraph_edges(spec))
        assert np.abs(eigenvalues(b) - flat).max() < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_asymmetric_nan(self):
        # NaN > tol is False, so a plain `> tol` check let this through and
        # eigvalsh silently used the lower triangle
        with pytest.raises(ValueError, match="symmetric within tolerance 1e-12"):
            eigenvalues(np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))

    # read-only input is solved in a copy, writeable input in its own buffer
    def test_rejects_asymmetry_in_last_strip(self):
        _check_asymmetry_in_last_strip(_read_only)

    def test_rejects_asymmetry_in_last_strip_in_place(self):
        _check_asymmetry_in_last_strip(np.copy)

    def test_rejects_asymmetry_in_lower_half_of_diagonal_tile(self):
        _check_asymmetry_in_lower_half_of_diagonal_tile(_read_only)

    def test_rejects_asymmetry_in_lower_half_of_diagonal_tile_in_place(self):
        _check_asymmetry_in_lower_half_of_diagonal_tile(np.copy)

    @pytest.mark.parametrize("row, col", [(299, 3), (70, 10)], ids=["off-diagonal-tile",
                                                                      "diagonal-tile"])
    def test_rejects_nan_in_lower_triangle_only(self, row, col):
        # eigvalsh reads only the lower triangle, where the NaN sits
        a = np.eye(300)
        a[row, col] = np.nan
        with pytest.raises(ValueError, match="symmetric within tolerance 1e-12"):
            eigenvalues(a)

    def test_workspace_is_bounded(self, monkeypatch):
        # the whole-matrix check held two N x N temporaries (36 MB at N=1500),
        # and a 128-row strip of it 1.5 MB; a tile is 128 KiB
        a = np.random.default_rng(3).normal(size=(1500, 1500))
        a += a.T
        # the eigvalsh route, whose copy tracemalloc does not see: the check's
        # tile is the only traced workspace (the in-place route's own bound,
        # with LAPACK's workspace, is TestInPlaceEigenvalues')
        monkeypatch.setattr(_openblas, "in_place_eigvalsh", lambda: None)
        tracemalloc.start()
        try:
            eigenvalues(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 2**10

    @pytest.mark.parametrize("matrix", [np.ones((3, 4)), np.float64(1.0)],
                             ids=["2-d", "0-d"])
    def test_rejects_non_square(self, matrix):
        # a 0-d input used to raise IndexError: tuple index out of range
        with pytest.raises(ValueError, match=r"^matrix must be square, got shape \("):
            eigenvalues(matrix)

    def test_rejects_oversize(self):
        with pytest.raises(SizeLimitError, match="refused"):
            eigenvalues(np.zeros((4001, 4001)))


_NO_LINKS = np.empty((0, 3), dtype=np.int32)


@pytest.mark.parametrize("gate, what", [
    (lambda spec: link_matrix(spec, _NO_LINKS, [1.0]), "dense adjacency"),
    (lambda spec: expected_matrix(spec, _NO_LINKS), "dense adjacency"),
    (lambda spec: adjacency(PercolationSample(spec, _NO_LINKS)), "dense adjacency"),
    (lambda spec: eigenvalues(np.broadcast_to(0.0, (4001, 4001))), "dense eigensolve"),
], ids=["link_matrix", "expected_matrix", "adjacency", "eigenvalues"])
def test_every_dense_gate_refuses_one_past_the_cap(gate, what):
    # one cap for every dense N x N matrix, checked before N^2 is allocated
    spec = LatticeSpec((4001,), (0.5,))
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=f"^{what} refused for N=4001 > 4000$"):
            gate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _check_asymmetry_in_last_strip(copy):
    # N not a multiple of the tile side; the only asymmetric pair sits
    # in the last, short row of tiles, just above the tolerance. Once
    # within it, a solve that read the upper triangle (1.5e-12) instead
    # of the lower one (2e-12) would give other bits
    a = np.zeros((300, 300))
    a[299, 3] = 2e-12
    with pytest.raises(ValueError, match="symmetric"):
        eigenvalues(copy(a))
    a[3, 299] = 1.5e-12
    _assert_same_bits(eigenvalues(copy(a)), np.linalg.eigvalsh(a))


def _check_asymmetry_in_lower_half_of_diagonal_tile(copy):
    # the pair lies inside one tile on the diagonal, so that tile's own
    # transpose is its mirror
    a = np.zeros((300, 300))
    a[200, 130] = 2e-12
    with pytest.raises(ValueError, match="symmetric"):
        eigenvalues(copy(a))
    a[130, 200] = 1.5e-12
    _assert_same_bits(eigenvalues(copy(a)), np.linalg.eigvalsh(a))


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _near_symmetric(n, seed):
    # symmetric, plus noise below the diagonal within the tolerance, and a
    # -0.0 above the diagonal where the lower triangle holds +0.0
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a += a.T
    a += np.tril(rng.uniform(-4e-13, 4e-13, size=(n, n)), -1)
    a[1, 0], a[0, 1] = 0.0, -0.0
    return a


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


def _figure_1a_adjacency():
    spec = LatticeSpec((30, 50), (0.7, 0.5))
    return adjacency(sample(spec, trial_seed(42, 0)))


class TestInPlaceEigenvalues:
    """eigenvalues(a) solves in a's own buffer where it can, with eigvalsh's bits."""

    @pytest.mark.parametrize("make", [
        _figure_1a_adjacency,
        lambda: np.zeros((0, 0)),  # a row-normalized matrix with every node isolated
        lambda: np.array([[2.5]]),
        lambda: _near_symmetric(300, 5),  # 3 x 3 tiles, short last row of tiles
    ], ids=["figure-1a", "N=0", "N=1", "near-symmetric"])
    def test_same_bits_as_eigvalsh(self, make):
        a = make()
        _assert_same_bits(eigenvalues(a.copy()), np.linalg.eigvalsh(a))

    def test_solves_in_the_callers_buffer(self):
        if _openblas.in_place_eigvalsh() is None:
            pytest.skip("numpy does not bundle scipy-openblas")
        a = _near_symmetric(200, 6)
        b = a.copy()
        eigenvalues(b)
        # dsytrd leaves its Householder vectors in the buffer
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("make", [
        np.asfortranarray,
        lambda a: np.pad(a, ((0, 0), (0, 1)))[:, :-1],  # rows not contiguous
        _read_only,
        lambda a: a.astype(np.float32),  # solved in place on its float64 copy
    ], ids=["fortran", "strided", "read-only", "float32"])
    def test_leaves_other_input_alone(self, monkeypatch, make):
        m = make(_near_symmetric(150, 7))
        before = m.copy()
        want = np.linalg.eigvalsh(np.asarray(m, dtype=float))
        # where the binding loads, it solves a copy instead of eigvalsh
        solve, calls = _openblas.in_place_eigvalsh(), []
        if solve is not None:
            def spy(matrix):
                calls.append(matrix.shape)
                return solve(matrix)

            monkeypatch.setattr(_openblas, "in_place_eigvalsh", lambda: spy)
        _assert_same_bits(eigenvalues(m), want)
        assert np.array_equal(m, before)
        assert calls == ([] if solve is None else [(150, 150)])

    @pytest.mark.parametrize("matrix", [
        np.eye(3)[:, ::-1], np.eye(3, dtype=np.float32), _read_only(np.eye(3)), np.ones((2, 3)),
    ], ids=["strided", "float32", "read-only", "non-square"])
    def test_binding_refuses_other_buffers(self, matrix):
        solve = _openblas.in_place_eigvalsh()
        if solve is None:
            pytest.skip("numpy does not bundle scipy-openblas")
        with pytest.raises(ValueError, match="writeable C-contiguous float64 square"):
            solve(matrix)

    @pytest.mark.parametrize("found", [[], ["a", "b"]], ids=["none", "two"])
    def test_no_binding_without_one_bundled_library(self, monkeypatch, found):
        monkeypatch.setattr(_openblas.glob, "glob", lambda pattern: found)
        assert _openblas._library_path() is None
        assert _openblas.in_place_eigvalsh.__wrapped__() is None

    def test_no_binding_without_the_symbol(self, monkeypatch):
        if _openblas._library_path() is None:
            pytest.skip("numpy does not bundle scipy-openblas")
        monkeypatch.setattr(_openblas, "_DSYEVD", "scipy_no_such_routine_64_")
        assert _openblas.in_place_eigvalsh.__wrapped__() is None

    def test_falls_back_without_the_bundled_lapack(self, monkeypatch):
        # numpy on MKL or Accelerate: the loader finds no scipy-openblas
        monkeypatch.setattr(_openblas, "_library_path", lambda: None)
        # the cached binding is looked up again here, and again after the test
        _openblas.in_place_eigvalsh.cache_clear()
        try:
            assert _openblas.in_place_eigvalsh() is None
            a = _near_symmetric(300, 8)
            b = a.copy()
            _assert_same_bits(eigenvalues(b), np.linalg.eigvalsh(a))
            assert np.array_equal(a, b)
        finally:
            _openblas.in_place_eigvalsh.cache_clear()

    def test_binding_is_numpys_own_library(self):
        try:
            lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        except TypeError:  # numpy < 1.26 has no mode="dicts"
            pytest.skip("numpy cannot report its LAPACK")
        if lapack.get("name") != "scipy-openblas":
            pytest.skip(f"numpy uses {lapack.get('name')}, not scipy-openblas")
        assert _openblas.in_place_eigvalsh() is not None
        maps = Path("/proc/self/maps")
        if not maps.exists():
            pytest.skip("no /proc/self/maps")
        paths = {line.split()[-1] for line in maps.read_text().splitlines()
                 if "libscipy_openblas64_" in line}
        assert len(paths) == 1, paths

    def test_workspace_is_bounded(self):
        # LAPACK's own workspace (34 N doubles) and one symmetry tile; the
        # copying path allocates a second N x N (18 MB) outside tracemalloc's view
        a = np.random.default_rng(3).normal(size=(1500, 1500))
        a += a.T
        tracemalloc.start()
        try:
            eigenvalues(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


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


@pytest.mark.parametrize("read", [
    lambda s: esd_cdf(s, 0.0),
    lambda s: empirical_stieltjes(s, 1j),
    lambda s: smoothed_density(s, np.linspace(-1.0, 1.0, 5), 0.1),
], ids=["esd_cdf", "empirical_stieltjes", "smoothed_density"])
def test_empty_spectrum_is_refused(read):
    # the last two used to warn and return NaN
    with pytest.raises(ValueError, match="empty spectrum"):
        read(EmpiricalSpectrum(np.array([])))


class TestAveraging:
    """The pooled CDF is the pointwise mean of the per-spectrum CDFs."""

    def test_single_spectrum_identity(self):
        vals = np.array([-1.0, 0.5, 2.0])
        grid = np.linspace(-2, 3, 50)
        assert np.array_equal(
            esd_cdf(pool([vals]), grid), esd_cdf(EmpiricalSpectrum(vals), grid)
        )

    def test_two_identical_spectra(self):
        vals = np.array([-1.0, 0.5, 2.0])
        grid = np.linspace(-2, 3, 50)
        assert np.array_equal(
            esd_cdf(pool([vals, vals]), grid), esd_cdf(pool([vals]), grid)
        )

    def test_pooling_equivalence(self):
        # per-trial arrays need not be sorted; the pool is
        rng = np.random.default_rng(1)
        spectra = [rng.normal(size=8) for _ in range(10)]
        grid = np.linspace(-4, 4, 200)
        mean_of_cdfs = np.mean(
            [esd_cdf(EmpiricalSpectrum(np.sort(v)), grid) for v in spectra], axis=0
        )
        pooled = pool(spectra)
        assert np.all(np.diff(pooled.eigenvalues) >= 0)
        assert np.allclose(esd_cdf(pooled, grid), mean_of_cdfs, atol=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pool([])

    def test_rejects_mixed_sizes(self):
        with pytest.raises(ValueError, match="different matrix sizes"):
            pool([np.zeros(3), np.zeros(4)])


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


def _reference_smoothed_density(vals, grid, epsilon):
    """The whole-chunk kernel smoothed_density replaced: one (grid x chunk)
    temporary per expression, the same chunks and the same arithmetic."""
    dens = np.zeros_like(grid)
    step = max(1, 10_000_000 // max(1, len(grid)))
    for k in range(0, len(vals), step):
        lam = vals[k : k + step]
        dens += ((epsilon / np.pi) / ((grid[:, None] - lam[None, :]) ** 2 + epsilon**2)).sum(axis=1)
    dens /= len(vals)
    return dens


class TestSmoothedDensity:
    @pytest.mark.parametrize("n_eigs, n_grid", [
        (75_000, 2000),  # Figure 1a: 50 trials x N=1500, 15 full chunks
        (12_345, 2000),  # short last chunk (2345 of 5000)
        (1000, 777),     # grid length not a multiple of the row block
        (130_000, 40),   # one grid row per block, short last row block
        (3210, 20_000),  # step = 500, short last chunk
        (75_000, 1),     # one-point grid, one chunk
    ])
    def test_byte_identical_to_reference(self, n_eigs, n_grid):
        rng = np.random.default_rng(n_eigs + n_grid)
        vals = np.sort(rng.normal(size=n_eigs))
        grid = np.linspace(-3.5, 3.5, n_grid)
        eps = 0.007
        dens = smoothed_density(EmpiricalSpectrum(vals), grid, eps)
        assert np.array_equal(dens, _reference_smoothed_density(vals, grid, eps))

    def test_workspace_is_bounded(self):
        # the reference kernel peaks at 160 MB on this Figure 1a shape
        vals = np.sort(np.random.default_rng(4).normal(size=75_000))
        grid = np.linspace(-3.5, 3.5, 2000)
        tracemalloc.start()
        try:
            smoothed_density(EmpiricalSpectrum(vals), grid, 0.007)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("eps", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_bad_epsilon(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            smoothed_density(EmpiricalSpectrum(np.array([0.0])), np.array([0.0]), eps)

    def test_rejects_underflowing_epsilon(self):
        # eps^2 == 0 made a grid point on an eigenvalue divide by zero: a numpy
        # warning and an inf density
        one, grid = EmpiricalSpectrum(np.array([0.0])), np.array([0.0, 1.0])
        with pytest.raises(ValueError, match=r"epsilon=1e-170 is too small: epsilon\^2 under"):
            smoothed_density(one, grid, 1e-170)
        assert np.isfinite(smoothed_density(one, grid, 1e-150)).all()

    def test_rejects_overflowing_epsilon(self):
        # eps**2 raised OverflowError for eps above sqrt(max float): a traceback
        # from the CLI; the largest accepted width still smooths
        one, grid = EmpiricalSpectrum(np.array([0.0])), np.array([0.0, 1.0])
        largest = math.sqrt(sys.float_info.max)
        for eps in (math.nextafter(largest, math.inf), 1e300, np.float64(1e300)):
            with pytest.raises(ValueError, match=r"is too large: epsilon\^2 overflows"):
                smoothed_density(one, grid, eps)
        assert np.isfinite(smoothed_density(one, grid, largest)).all()

    def test_cauchy_peak(self):
        s = EmpiricalSpectrum(np.array([0.0]))
        eps = 0.05
        dens = smoothed_density(s, np.array([0.0]), eps)
        assert dens[0] == pytest.approx(1 / (np.pi * eps))

    def test_cauchy_half_width(self):
        s = EmpiricalSpectrum(np.array([0.0]))
        eps = 0.05
        dens = smoothed_density(s, np.array([eps]), eps)
        assert dens[0] == pytest.approx(1 / (2 * np.pi * eps))

    def test_mass_within_widened_support(self):
        rng = np.random.default_rng(2)
        s = EmpiricalSpectrum(np.sort(rng.normal(size=40)))
        span = s.eigenvalues.max() - s.eigenvalues.min()
        eps = span / 60
        grid = np.linspace(s.eigenvalues.min() - 10 * eps,
                           s.eigenvalues.max() + 10 * eps, 3000)
        dens = smoothed_density(s, grid, eps)
        mass = np.trapezoid(dens, grid)
        assert 0.95 <= mass <= 1.0
        assert dens.min() >= 0.0


class TestSpectralRanges:
    def test_scaled_adjacency_range(self):
        spec = LatticeSpec((4, 5), (0.7, 0.5))
        for seed in range(5):
            s = sample(spec, seed)
            w = adjacency(s) / expected_degree(spec)
            maxdeg = (w * expected_degree(spec)).sum(axis=1).max()
            vals = eigenvalues(w)
            bound = maxdeg / expected_degree(spec) + 1e-12
            assert vals.min() >= -bound and vals.max() <= bound

    def test_row_normalized_range(self):
        spec = LatticeSpec((4, 5), (0.4, 0.4))
        for seed in range(5):
            vals = row_normalized_eigenvalues(adjacency(sample(spec, seed)))
            assert vals.min() >= -1 - 1e-12 and vals.max() <= 1 + 1e-12

    def test_row_normalized_isolated_nodes_are_zeros(self):
        assert np.array_equal(row_normalized_eigenvalues(np.zeros((3, 3))), np.zeros(3))
        path = np.zeros((3, 3))
        path[0, 1] = path[1, 0] = 1.0
        assert np.allclose(row_normalized_eigenvalues(path), [-1, 0, 1], atol=1e-15)

    @pytest.mark.parametrize("matrix", [[[0.0, -1.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])
    def test_row_normalized_rejects_entries_at_degree_zero(self, matrix):
        # the node of degree <= 0 used to be dropped and the rest solved: [0, 0] for both
        with pytest.raises(ValueError, match="degree <= 0 has a nonzero entry"):
            row_normalized_eigenvalues(np.array(matrix))

    def test_row_normalized_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"square, got shape \(3, 4\)"):
            row_normalized_eigenvalues(np.ones((3, 4)))
        # a 0-d input used to raise TypeError: len() of unsized object
        with pytest.raises(ValueError, match=r"^matrix must be square, got shape \(\)$"):
            row_normalized_eigenvalues(np.float64(1.0))


class TestTrialLoop:
    SPEC = LatticeSpec((4, 5), (0.7, 0.5))

    def test_draws_each_trial_seed_in_order(self):
        solved = map_trials(self.SPEC, 5, 3, np.copy)
        assert len(solved) == 3
        for t, a in enumerate(solved):
            assert np.array_equal(a, adjacency(sample(self.SPEC, trial_seed(5, t))))

    def test_draws_from_an_int32_listing(self, monkeypatch):
        listings, drawn = [], []

        def spy(spec, seed, edges):
            listings.append(edges)
            drawn.append(sample(spec, seed, edges))
            return drawn[-1]

        monkeypatch.setattr(percolation, "sample", spy)
        map_trials(self.SPEC, 5, 3, np.copy)
        assert [e.dtype for e in listings] == [np.int32] * 3
        assert all(e is listings[0] for e in listings)
        for t, s in enumerate(drawn):
            assert s.edges.dtype == np.int32
            assert np.array_equal(s.edges, sample(self.SPEC, trial_seed(5, t)).edges)

    @pytest.mark.parametrize("dims, probs", [((30, 50), (0.7, 0.5)), ((500,), (0.5,))])
    def test_run_holds_one_matrix_beside_the_listing(self, dims, probs):
        # beyond one N x N matrix, a run used to hold an int64 listing, a
        # float64 p per link, and each trial's sample through its eigensolve:
        # 60.1 and 56.1 B per link here; an int32 listing and nothing else
        # alive through the solve measure 30.9 and 34.1, under 40 with 17% to spare
        spec = LatticeSpec(dims, probs)
        n = node_count(spec)
        links = n * sum(m - 1 for m in dims) // 2
        _openblas.in_place_eigvalsh()  # the binding loads outside the trace
        # and so does numpy.random (hashlib, secrets, the bit generators), which
        # numpy imports on first use: ~0.77 MB, 13 B per link here when run alone
        trial_seed(0, 0)
        tracemalloc.start()
        try:
            monte_carlo_spectrum(spec, 3, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - 8 * n * n) / links < 40

    @pytest.mark.parametrize("spec, trials, error, message", [
        (SPEC, 0, ValueError, "trials must be >= 1"),
        (SPEC, -2, ValueError, "trials must be >= 1"),
        (LatticeSpec((80, 80), (0.5, 0.5)), 1, SizeLimitError,
         "dense eigensolve refused for N=6400 > 4000"),
    ])
    def test_checks_before_the_first_draw(self, monkeypatch, spec, trials, error, message):
        def no_sampling(spec, seed):
            raise AssertionError("sampled")

        monkeypatch.setattr(percolation, "sample", no_sampling)
        with pytest.raises(error, match=message):
            map_trials(spec, 0, trials, np.copy)

    @pytest.mark.parametrize("run", [monte_carlo_spectrum, theorem3_spectra])
    def test_lists_the_supergraph_once_per_run(self, monkeypatch, run):
        # every trial used to list and sort all of the supergraph's links again
        calls = {"supergraph_edges": 0, "sample": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(percolation, "supergraph_edges",
                            counted("supergraph_edges", percolation.supergraph_edges))
        monkeypatch.setattr(percolation, "sample", counted("sample", percolation.sample))
        run(self.SPEC, 8, 4)
        assert calls == {"supergraph_edges": 1, "sample": 4}

    @pytest.mark.parametrize("run, solves", [(monte_carlo_spectrum, 1), (theorem3_spectra, 2)])
    def test_solves_every_matrix_in_place(self, monkeypatch, run, solves):
        solve = _openblas.in_place_eigvalsh()
        if solve is None:
            pytest.skip("numpy does not bundle scipy-openblas")
        calls = []

        def spy(matrix):
            calls.append(matrix.shape)
            return solve(matrix)

        monkeypatch.setattr(_openblas, "in_place_eigvalsh", lambda: spy)
        run(self.SPEC, 8, 3)
        assert len(calls) == 3 * solves

    def test_monte_carlo_pool_is_the_pool_of_trials(self):
        # the per-trial eigenvalues that tests keep pool to monte_carlo_spectrum's bytes
        gamma = expected_degree(self.SPEC)
        per_trial = [eigenvalues(adjacency(sample(self.SPEC, trial_seed(8, t)))) / gamma
                     for t in range(4)]
        assert np.array_equal(pool(per_trial).eigenvalues,
                              monte_carlo_spectrum(self.SPEC, 8, 4).eigenvalues)

    def test_theorem3_pair_matches_the_separate_pools(self):
        spec = LatticeSpec((5, 6), (0.3, 0.2))  # sparse enough for isolated nodes
        scale = np.sqrt(expected_degree(spec))
        ref, normalized = theorem3_spectra(spec, 9, 4)
        assert np.array_equal(ref.eigenvalues,
                              monte_carlo_spectrum(spec, 9, 4).eigenvalues * scale)
        per_trial = [row_normalized_eigenvalues(adjacency(sample(spec, trial_seed(9, t))))
                     * scale for t in range(4)]
        assert np.array_equal(normalized.eigenvalues, pool(per_trial).eigenvalues)
        assert np.abs(normalized.eigenvalues).max() <= scale * (1 + 1e-12)

    @pytest.mark.parametrize("dims, probs, trials", [
        ((30, 50), (0.7, 0.5), 2),
        ((500,), (0.5,), 3),
        ((5, 6), (0.3, 0.2), 5),  # with isolated nodes
    ])
    def test_every_solve_keeps_the_trace_identities(self, dims, probs, trials):
        # sum(lambda) = tr A = 0 and sum(lambda^2) = tr A^2 = the sum of A's 0/1
        # entries, read before the in-place solve consumes A; measured at seed
        # 42: relative deviations at most 2.4e-17 and 1.9e-15
        spec = LatticeSpec(dims, probs)
        n = node_count(spec)
        for total, vals in map_trials(spec, 42, trials, lambda a: (a.sum(), eigenvalues(a))):
            assert abs(vals.sum()) <= 1e-12 * n * np.abs(vals).max()
            assert abs(np.square(vals).sum() - total) <= 1e-12 * total
