import tracemalloc
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolattice import canonical
from percolattice.canonical import (
    OracleError,
    SolverError,
    _solve_level,
    build_problem,
    girko_conditions,
    matrix_k1_oracle,
    oracle_z_grid,
    recover_all_alphas,
    solution_form_residual,
    solve_alpha,
)
from percolattice.inversion import auto_grid, default_epsilon
from percolattice.lattice import (
    LatticeSpec,
    SizeLimitError,
    branch_table,
    expected_degree,
    expected_matrix,
    link_matrix,
    node_count,
    supergraph_edges,
    variance_sum,
)

from k1_support import support_edges
from walk_moments import exact_moments


def _solution_form_basis(spec):
    """The 2^D Kronecker products of I or J - I, itertools.product order."""
    basis = []
    for i in product((0, 1), repeat=spec.ndim):
        blocks = [np.ones((m, m)) - np.eye(m) if i_d == 0 else np.eye(m)
                  for m, i_d in zip(spec.dims, i)]
        # np.kron varies its right factor fastest, nodes their first digit
        basis.append(reduce(np.kron, reversed(blocks)))
    return basis


def _variance_matrix(spec):
    """V, the entrywise variances of the centered scaled adjacency, dense."""
    gamma = expected_degree(spec)
    per_dim = [p * (1 - p) / gamma**2 for p in spec.probs]
    return link_matrix(spec, supergraph_edges(spec), per_dim)


def _dense_resolvent(spec, z, alpha):
    """C = F(alpha I) = (B - zI - diag(V diag(alpha I)))^{-1} by one dense inverse."""
    shift = z + alpha * _variance_matrix(spec).sum(axis=1)
    return np.linalg.inv(expected_matrix(spec, supergraph_edges(spec)) - np.diag(shift))


def _g(spec, z, a):
    """g(alpha) on the raw, unmerged branches."""
    b, mults = branch_table(spec)
    w = mults / node_count(spec)
    return complex(np.sum(w / (b - z - variance_sum(spec) * a)))


def _reference_solve_alpha(spec, z, tol=1e-12, max_iter=100_000, initial=None):
    """The per-point solver solve_alpha replaced, kept as a reference.

    Damped fixed-point iteration with the damping halved whenever the
    candidate would leave the Herglotz branch or fail to shrink the
    residual; a safeguarded Newton step takes over when the fixed point
    stalls. Returns alpha.
    """
    z = complex(z)
    s = 1.0 if z.imag > 0 else -1.0
    b, mults = branch_table(spec)
    w = mults / node_count(spec)
    sig2 = variance_sum(spec)

    def g(a):
        return _g(spec, z, a)

    alpha = complex(initial) if initial is not None else 1j * s
    if s * alpha.imag <= 0:
        alpha = 1j * s
    r = alpha - g(alpha)
    eta = 1.0
    it = 0
    while abs(r) > tol and it < max_iter:
        it += 1
        accepted = False
        if eta >= 1e-4:
            cand = alpha - eta * r
            if s * cand.imag > 0:
                rc = cand - g(cand)
                if abs(rc) < 0.9 * abs(r):
                    alpha, r = cand, rc
                    eta = min(1.0, 2.0 * eta)
                    accepted = True
            if not accepted:
                eta *= 0.5
        if not accepted:
            gp = sig2 * complex(np.sum(w / (b - z - sig2 * alpha) ** 2))
            denom = 1.0 - gp
            step = r / denom if denom != 0 else r
            t = 1.0
            while t > 1e-12:
                cand = alpha - t * step
                if s * cand.imag > 0:
                    rc = cand - g(cand)
                    if abs(rc) < abs(r):
                        alpha, r = cand, rc
                        accepted = True
                        break
                t *= 0.5
            if not accepted:
                restart = 1j * s
                rr = restart - g(restart)
                if abs(rr) < abs(r):
                    alpha, r = restart, rr
                    eta = 1.0
                else:
                    raise SolverError(f"reference stalled at z={z}", abs(r), it)
    if abs(r) > tol:
        raise SolverError(f"reference missed tol at z={z}", abs(r), it)
    return alpha


def _reference_curve(spec, zs):
    """Reference solves along a grid, each warm-started from the previous."""
    out, alpha = [], None
    for z in zs:
        alpha = _reference_solve_alpha(spec, z, initial=alpha)
        out.append(alpha)
    return np.array(out)


def _ladder4_solve(problem, zs, tol=1e-12):
    """The 4x continuation ladder solve_alpha used before, as one block.

    The module's _solve_level does every sweep, so its _g calls can be
    counted. Returns alpha and the sweep count.
    """
    atoms, weights, sig2 = problem.atoms, problem.weights, problem.variance_sum
    y = np.abs(zs.imag)
    alpha = 1j * np.sign(zs.imag)
    residual = np.empty(zs.shape)
    sweeps, im = 0, 2.0
    todo = np.ones(zs.shape, dtype=bool)
    while todo.any():
        idx = np.flatnonzero(todo)
        final = y[idx] >= im
        zk = np.where(final, zs[idx], zs.real[idx] + 1j * np.sign(zs.imag[idx]) * im)
        alpha[idx], residual[idx], n = canonical._solve_level(
            atoms, weights, sig2, zk, alpha[idx], np.where(final, tol, 1e-6))
        sweeps += n
        todo[idx[final]] = False
        im /= 4.0
    assert np.all(residual <= tol)
    return alpha, sweeps


def _certified_bound(problem, zs, alpha):
    """|r| / (1 - sqrt(kappa)) per point, after asserting kappa < 1 at each.

    With q_j = b_j - z - sigma^2 alpha at the given alpha and
    kappa = sigma^2 sum_j w_j / |q_j|^2 < 1, Cauchy-Schwarz bounds the error by
    |alpha - alpha*| <= |r| / (1 - sqrt(kappa)), r = alpha - g(alpha).
    """
    w = problem.weights[:, None]
    q = problem.atoms[:, None] - zs - problem.variance_sum * alpha
    r = alpha - np.sum(w / q, axis=0)
    kappa = problem.variance_sum * np.sum(w / np.abs(q) ** 2, axis=0)
    assert kappa.max() < 1
    return np.abs(r) / (1 - np.sqrt(kappa))


def _ladder_only(problem, zs):
    """solve_alpha's alpha with every point on the continuation ladder."""
    alpha, residual = np.empty_like(zs), np.empty(zs.shape)
    canonical._ladder_pass(problem.atoms, problem.weights, problem.variance_sum,
                           zs, np.arange(zs.size), alpha, residual)
    return alpha


def _g_unbuffered(atoms, weights, sig2, z, alpha):
    """The _g loop before its buffers, one temporary per operation."""
    shift = z + sig2 * alpha
    g = np.zeros_like(shift)
    gp = np.zeros_like(shift)
    for b, w in zip(atoms, weights):
        q = 1.0 / (b - shift)
        g += w * q
        gp += w * q * q
    return g, sig2 * gp


class TestBuildProblem:
    def test_figure_1a_scalars(self):
        prob = build_problem(LatticeSpec((30, 50), (0.7, 0.5)))
        assert prob.variance_sum == pytest.approx(0.0091378, abs=1e-6)
        expected = sorted(
            [(-1.2 / 44.8, 1421), (19.8 / 44.8, 49), (0.53125, 29), (1.0, 1)]
        )
        assert len(prob.atoms) == len(expected)
        for bv, bw, (ev, em) in zip(prob.atoms, prob.weights, expected):
            assert bv == pytest.approx(ev, abs=1e-12)
            assert bw == em / 1500

    def test_variance_zero_when_probabilities_one(self):
        assert build_problem(LatticeSpec((5, 6), (1.0, 1.0))).variance_sum == 0.0

    def test_one_dimensional_example(self):
        spec = LatticeSpec((2,), (0.5,))
        prob = build_problem(spec)
        assert expected_degree(spec) == 0.5
        assert prob.variance_sum == pytest.approx(1.0)
        assert prob.atoms.tolist() == [-1.0, 1.0]
        assert prob.weights.tolist() == [0.5, 0.5]

    def test_branches_not_merged(self):
        # parameter coincidence: both dims give identical branch values;
        # branch_table keeps all four (recover_all_alphas needs them), the
        # problem's atoms merge the equal pair
        spec = LatticeSpec((3, 3), (0.5, 0.5))
        assert len(branch_table(spec)[0]) == 4
        prob = build_problem(spec)
        assert prob.atoms.tolist() == [-0.5, 0.25, 1.0]
        assert prob.weights.tolist() == [4 / 9, 4 / 9, 1 / 9]


class TestGirkoConditions:
    def test_figure_1a_values(self):
        r = girko_conditions(LatticeSpec((30, 50), (0.7, 0.5)))
        assert r["mean_row_sum"] == 1.0
        assert r["variance_row_sum"] == pytest.approx(
            (29 * 0.21 + 49 * 0.25) / 44.8**2, abs=1e-15
        )
        assert r["max_entry_bound"] == pytest.approx(1 / 44.8)

    def test_no_randomness_when_probabilities_one(self):
        r = girko_conditions(LatticeSpec((3, 4), (1.0, 1.0)))
        assert r["variance_row_sum"] == 0.0
        assert r["min_scaled_variance"] == 0.0

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
            got = girko_conditions(spec)["variance_row_sum"]
            assert got == build_problem(spec).variance_sum, spec

    def test_mean_row_sum_exactly_one_random_specs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            dims = tuple(int(m) for m in rng.integers(2, 40, size=d))
            probs = tuple(float(p) for p in rng.uniform(0.01, 1.0, size=d))
            r = girko_conditions(LatticeSpec(dims, probs))
            assert r["mean_row_sum"] == 1.0


class TestSolveAlpha:
    def test_rejects_real_z(self):
        prob = build_problem(LatticeSpec((3, 4), (0.5, 0.5)))
        with pytest.raises(ValueError):
            solve_alpha(prob, 0.5)

    @pytest.mark.parametrize("z", [complex(0.5, np.nan), complex(np.inf, 0.1),
                                   np.array([0.1 + 0.1j, complex(0.2, np.inf)])])
    def test_rejects_non_finite_z(self, z):
        # Im z = NaN never reaches a continuation level: the solve used to spin
        prob = build_problem(LatticeSpec((3, 4), (0.5, 0.5)))
        with pytest.raises(ValueError, match="finite"):
            solve_alpha(prob, z)

    def test_rejects_two_dimensional_z(self):
        prob = build_problem(LatticeSpec((3, 4), (0.5, 0.5)))
        with pytest.raises(ValueError, match="^solve_alpha takes a scalar or a 1-D array of z$"):
            solve_alpha(prob, np.full((2, 2), 0.1 + 0.1j))

    def test_variance_zero_is_exact_transform(self):
        spec = LatticeSpec((4, 5), (1.0, 1.0))
        prob = build_problem(spec)
        z = 0.3 + 0.4j
        sol = solve_alpha(prob, z)
        b, mults = branch_table(spec)
        exact = np.sum(mults / (b - z)) / node_count(spec)
        assert sol.residual == 0.0
        assert abs(sol.alpha_principal - exact) < 1e-15

    def test_small_case_matches_oracle(self):
        spec = LatticeSpec((2,), (0.5,))
        prob = build_problem(spec)
        z = 0.1 + 1.0j
        a = solve_alpha(prob, z).alpha_principal
        # direct check of the stated scalar equation
        resid = a - (0.5 / (1 - z - a) + 0.5 / (-1 - z - a))
        assert abs(resid) < 1e-11
        s = matrix_k1_oracle(spec, z, a)
        assert abs(a - s) < 1e-8

    def test_one_dimensional_quadratic_limit(self):
        # dropping the rank-one branch leaves sig2*a^2 + (z + 1/(M-1))*a + 1 = 0
        spec = LatticeSpec((2000,), (0.5,))
        prob = build_problem(spec)
        sig2 = prob.variance_sum
        for z in (0.0 + 0.1j, -0.02 + 0.01j):
            a = solve_alpha(prob, z).alpha_principal
            disc = np.sqrt((z + 1 / 1999) ** 2 - 4 * sig2 + 0j)
            roots = [(-(z + 1 / 1999) + disc) / (2 * sig2),
                     (-(z + 1 / 1999) - disc) / (2 * sig2)]
            root = roots[0] if roots[0].imag > 0 else roots[1]
            assert abs(a - root) / abs(a) < 1e-3

    def test_herglotz_branch(self):
        prob = build_problem(LatticeSpec((4, 5), (0.7, 0.5)))
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.02, 2))
            a = solve_alpha(prob, z).alpha_principal
            assert z.imag * a.imag > 0

    def test_uniqueness_from_distinct_starts(self):
        # the averaged map (a + g(a))/2 keeps the half-plane and converges
        # from any start in it, to the one solution solve_alpha finds
        spec = LatticeSpec((4, 5), (0.7, 0.5))
        prob = build_problem(spec)
        for z in (0.1 + 0.05j, -0.5 + 1j, 0.9 + 0.2j):
            s = 1.0 if z.imag > 0 else -1.0
            expected = solve_alpha(prob, z).alpha_principal
            starts = [1j * s, 0.5 + 1j * s, -1 + 0.2j * s, 2j * s, -0.3 + 3j * s]
            for a in starts:
                for _ in range(100_000):
                    a = 0.5 * (a + _g(spec, z, a))
                    if abs(a - _g(spec, z, a)) < 1e-13:
                        break
                assert abs(a - expected) < 1e-10

    def test_scalar_and_array_contract(self):
        prob = build_problem(LatticeSpec((4, 5), (0.7, 0.5)))
        grid = auto_grid(prob, 5000, 0.1)  # more than one block
        zs = grid + 1j * default_epsilon(grid)
        sol = solve_alpha(prob, zs)
        assert sol.alpha_principal.shape == zs.shape
        assert isinstance(sol.residual, float) and sol.residual <= 1e-12
        assert isinstance(sol.iterations, int) and sol.iterations >= 1
        for k in (0, 2048, 4999):  # ladder points: every 32nd and the last
            one = solve_alpha(prob, zs[k])
            assert isinstance(one.alpha_principal, complex)
            assert abs(one.alpha_principal - sol.alpha_principal[k]) < 1e-13
        # a warm point runs other arithmetic than its scalar solve; both lie
        # within their certified bound of the one root
        one = solve_alpha(prob, zs[1234]).alpha_principal
        both = np.array([one, sol.alpha_principal[1234]])
        bound = _certified_bound(prob, np.full(2, zs[1234]), both).sum()
        assert abs(both[0] - both[1]) <= bound

    @pytest.mark.parametrize("dims, probs", [
        ((30, 50), (0.7, 0.5)),
        ((10, 10, 20), (0.8, 0.7, 0.6)),
    ])
    def test_matches_reference_on_figure_grids(self, dims, probs):
        spec = LatticeSpec(dims, probs)
        prob = build_problem(spec)
        grid = auto_grid(prob, 2000, 0.1)
        zs = grid + 1j * default_epsilon(grid)
        got = solve_alpha(prob, zs).alpha_principal
        assert np.abs(got - _reference_curve(spec, zs)).max() < 1e-10

    def test_matches_reference_on_oracle_grid(self):
        zs = np.array(oracle_z_grid())
        for dims, probs in (((4, 5), (0.7, 0.5)), ((3, 3, 4), (0.8, 0.7, 0.6))):
            spec = LatticeSpec(dims, probs)
            got = solve_alpha(build_problem(spec), zs).alpha_principal
            ref = [_reference_solve_alpha(spec, z) for z in zs]
            assert np.abs(got - ref).max() < 1e-10

    # the CLI default grid on both figures, and both det-sweep solve grids
    @pytest.mark.parametrize("dims, probs, points", [
        pytest.param((30, 50), (0.7, 0.5), 2000, id="figure-1a"),
        pytest.param((10, 10, 20), (0.8, 0.7, 0.6), 2000, id="figure-1b"),
        pytest.param((10, 10, 20), (0.8, 0.7, 0.6), 20000, id="det-sweep-d3"),
        pytest.param((3, 4, 5, 6, 7), (0.9, 0.7, 0.5, 0.3, 0.2), 20000, id="det-sweep-d5"),
    ])
    def test_error_is_certified_at_every_grid_point(self, dims, probs, points):
        # 1 - kappa is the quadratic vector equation's stability factor (Ajanki,
        # Erdos and Kruger, Mem. AMS 261, 2019). Measured: max kappa 0.9788,
        # 0.9784, 0.9978, 0.9980; worst bound 4.7e-11, 7.0e-11, 3.9e-10, 7.3e-10
        # (6.4e-11, 5.5e-11, 4.1e-10, 5.2e-10 with every point on the ladder).
        prob = build_problem(LatticeSpec(dims, probs))
        grid = auto_grid(prob, points, 0.1)
        zs = grid + 1j * default_epsilon(grid)
        alpha = solve_alpha(prob, zs).alpha_principal
        assert np.max(_certified_bound(prob, zs, alpha)) <= 1e-9

    def test_cold_start_sweep(self):
        # random specs, no warm start, down to Im z = 1e-8
        rng = np.random.default_rng(2017)
        for _ in range(80):
            d = int(rng.integers(1, 6))
            dims = tuple(int(m) for m in rng.integers(2, 80, size=d))
            probs = tuple(float(p) for p in rng.uniform(0.01, 1.0, size=d))
            prob = build_problem(LatticeSpec(dims, probs))
            grid = auto_grid(prob, 500, 0.1)
            for eps in (default_epsilon(grid), 1e-4, 1e-8):
                zs = grid + 1j * eps
                sol = solve_alpha(prob, zs)
                assert sol.residual <= 1e-12
                assert np.all(zs.imag * sol.alpha_principal.imag > 0)

    def test_level_converges_from_random_cold_starts(self):
        # random starts anywhere in the upper half-plane at fixed z: where the
        # Newton step is rejected the averaged map takes over, and it cannot
        # stall
        rng = np.random.default_rng(2007)
        n = 1000
        for dims, probs in (((4, 5), (0.7, 0.5)), ((3, 3, 4), (0.8, 0.7, 0.6)),
                            ((30, 50), (0.7, 0.5)), ((500,), (0.5,)),
                            ((3, 4, 5, 6, 7), (0.9, 0.7, 0.5, 0.3, 0.2))):
            prob = build_problem(LatticeSpec(dims, probs))
            x = rng.uniform(prob.atoms[0] - 0.5, prob.atoms[-1] + 0.5, n)
            zs = x + 1j * 10 ** rng.uniform(-4, 0, n)
            start = rng.uniform(-5, 5, n) + 1j * 10 ** rng.uniform(-6, 1, n)
            alpha, residual, _ = _solve_level(
                prob.atoms, prob.weights, prob.variance_sum, zs, start, 1e-12)
            assert np.all(residual <= 1e-12), dims
            assert np.abs(alpha - solve_alpha(prob, zs).alpha_principal).max() < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(2, 199), st.one_of(
        st.floats(0.01, 1.0),
        st.floats(-7.0, -2.0).map(lambda e: 1.0 - 10.0**e),
        st.floats(-4.0, -1.0).map(lambda e: 10.0**e),
    )), min_size=1, max_size=4))
    def test_cli_grid_converges_to_rounding(self, links):
        # random specs on a 20,000-point CLI grid: where b_j - z - sigma^2 alpha
        # cancels, |r| stalls above 1e-12 at up to 0.49 of g's rounding noise
        # (56 of 300 such specs raised SolverError before that noise was accepted)
        dims, probs = zip(*links)
        prob = build_problem(LatticeSpec(dims, probs))
        grid = auto_grid(prob, 20_000, 0.1)
        solve_alpha(prob, grid + 1j * default_epsilon(grid))

    def test_conjugate_symmetry(self):
        prob = build_problem(LatticeSpec((4, 5), (0.7, 0.5)))
        rng = np.random.default_rng(4)
        for _ in range(10):
            z = complex(rng.uniform(-1, 1), rng.uniform(0.05, 2))
            a = solve_alpha(prob, z).alpha_principal
            ac = solve_alpha(prob, z.conjugate()).alpha_principal
            assert abs(ac - a.conjugate()) < 1e-11

    def test_tail_asymptotics(self):
        prob = build_problem(LatticeSpec((4, 5), (0.7, 0.5)))
        for z in (1e3j, 700 + 700j):
            a = solve_alpha(prob, z).alpha_principal
            assert abs(a * (-z) - 1) < 1e-3


@pytest.fixture
def g_evaluations(monkeypatch):
    """A one-element list that counts canonical._g's point-evaluations."""
    evaluations = [0]
    g = canonical._g

    def counted(atoms, weights, sig2, z, alpha):
        evaluations[0] += z.size
        return g(atoms, weights, sig2, z, alpha)

    monkeypatch.setattr(canonical, "_g", counted)
    return evaluations


class TestSolverWork:
    def test_no_more_work_than_the_4x_ladder(self, g_evaluations):
        # every grid fits in one _BLOCK, so the one-block copy sees the same
        # blocks; g point-evaluations and sweeps are compared call by call
        evaluations = g_evaluations
        cases = []
        for dims, probs in (((30, 50), (0.7, 0.5)), ((10, 10, 20), (0.8, 0.7, 0.6)),
                            ((3, 4, 5, 6, 7), (0.9, 0.7, 0.5, 0.3, 0.2))):
            prob = build_problem(LatticeSpec(dims, probs))
            grid = auto_grid(prob, 2000, 0.1)
            cases.append((prob, grid + 1j * default_epsilon(grid)))
        rng = np.random.default_rng(2017)  # the specs of test_cold_start_sweep
        for _ in range(80):
            d = int(rng.integers(1, 6))
            dims = tuple(int(m) for m in rng.integers(2, 80, size=d))
            probs = tuple(float(p) for p in rng.uniform(0.01, 1.0, size=d))
            prob = build_problem(LatticeSpec(dims, probs))
            grid = auto_grid(prob, 500, 0.1)
            cases += [(prob, grid + 1j * eps) for eps in (default_epsilon(grid), 1e-4, 1e-8)]
        for prob, zs in cases:
            assert zs.size <= canonical._BLOCK
            evaluations[0] = 0
            ref, ref_sweeps = _ladder4_solve(prob, zs)
            ref_evaluations = evaluations[0]
            evaluations[0] = 0
            sol = solve_alpha(prob, zs)
            assert np.abs(sol.alpha_principal - ref).max() < 1e-10
            assert evaluations[0] <= ref_evaluations
            assert sol.iterations <= ref_sweeps

    @pytest.mark.parametrize("dims, probs, points", [
        pytest.param((30, 50), (0.7, 0.5), 2000, id="figure-1a"),
        pytest.param((10, 10, 20), (0.8, 0.7, 0.6), 20000, id="det-sweep-d3"),
        pytest.param((3, 4, 5, 6, 7), (0.9, 0.7, 0.5, 0.3, 0.2), 20000, id="det-sweep-d5"),
    ])
    def test_cli_grid_is_solved_warm(self, g_evaluations, dims, probs, points):
        # the ladder alone reads 10.84, 13.90 and 13.38 g point-evaluations per
        # point here; from their ladder neighbours the warm points take about 3
        prob = build_problem(LatticeSpec(dims, probs))
        grid = auto_grid(prob, points, 0.1)
        solve_alpha(prob, grid + 1j * default_epsilon(grid))
        assert g_evaluations[0] <= 4 * points

    @pytest.mark.parametrize("grid", ["oracle", "eps-1e-8"])
    def test_inputs_without_warm_points_keep_the_ladders_bits(self, grid):
        # the oracle's grid shares no Im z between ladder points, and at
        # eps = 1e-8 the 500-point grid's ladder points lie 32 spacings apart,
        # far beyond 32 eps: the whole input takes the ladder. (Against one
        # scalar solve per point the bits may still differ: numpy multiplies
        # a one-element complex array in place without the vector loop's FMA.)
        prob = build_problem(LatticeSpec((30, 50), (0.7, 0.5)))
        if grid == "oracle":
            zs = np.array(oracle_z_grid())
        else:
            zs = auto_grid(prob, 500, 0.1) + 1e-8j
        got = solve_alpha(prob, zs).alpha_principal
        assert np.array_equal(got, _ladder_only(prob, zs))

    def test_unconverged_warm_points_fall_back_to_the_ladder(self, monkeypatch):
        warm = []
        solve_warm = canonical._warm_block

        def unconverged(*args):
            i, alpha, residual, sweeps = solve_warm(*args)
            warm.append(i.size)
            return i, alpha, np.full(residual.shape, np.inf), sweeps

        monkeypatch.setattr(canonical, "_warm_block", unconverged)
        prob = build_problem(LatticeSpec((4, 5), (0.7, 0.5)))
        grid = auto_grid(prob, 500, 0.1)
        zs = grid + 1j * default_epsilon(grid)
        got = solve_alpha(prob, zs).alpha_principal
        assert warm == [500 - 17]  # all but every 32nd point and the last
        assert np.array_equal(got, _ladder_only(prob, zs))

    def test_a_stalled_point_stops_sweeping(self):
        # |r| stalls here at up to 1.3e-10, above 1e-12 but within g's rounding
        # noise; without stall detection such a point waits out _MAX_SWEEPS
        # (204 sweeps; 12 with it)
        prob = build_problem(LatticeSpec((400,), (0.999999,)))
        grid = auto_grid(prob, 200_000, 0.1)
        sol = solve_alpha(prob, grid + 1j * default_epsilon(grid))
        assert sol.residual > 1e-12  # accepted within the noise, not at 1e-12
        assert sol.iterations <= canonical._MAX_SWEEPS // 10

    def test_solver_error_still_fires_on_a_grid_with_warm_points(self, monkeypatch):
        monkeypatch.setattr(canonical, "_MAX_SWEEPS", 1)
        prob = build_problem(LatticeSpec((4, 5), (0.7, 0.5)))
        grid = auto_grid(prob, 500, 0.1)
        with pytest.raises(SolverError, match=r"^no convergence at z=\S+ after \d+ sweeps "
                           r"\(residual \S+ > tol 1\.0e-12\)$") as info:
            solve_alpha(prob, grid + 1j * default_epsilon(grid))
        assert info.value.residual > 1e-12

    @pytest.mark.parametrize("n_atoms", [1, 4, 32])
    def test_buffered_g_is_bitwise_equal(self, n_atoms):
        rng = np.random.default_rng(n_atoms)
        n = 2048
        atoms = np.sort(rng.uniform(-1.0, 1.0, n_atoms))
        weights = rng.dirichlet(np.ones(n_atoms))
        z = rng.uniform(-2, 2, n) + 1j * rng.choice([-1, 1], n) * 10 ** rng.uniform(-8, 0, n)
        alpha = rng.uniform(-5, 5, n) + 1j * rng.uniform(-5, 5, n)
        got = canonical._g(atoms, weights, 0.3, z, alpha)
        ref = _g_unbuffered(atoms, weights, 0.3, z, alpha)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


class TestRecoverAllAlphas:
    def test_two_by_two_system(self):
        spec = LatticeSpec((2,), (0.5,))
        prob = build_problem(spec)
        sol = solve_alpha(prob, 0.1 + 1.0j)
        vec = recover_all_alphas(spec, 0.1 + 1.0j)
        assert set(vec) == {(0,), (1,)}
        assert abs(vec[(1,)] - sol.alpha_principal) < 1e-10

    def test_variance_zero_reproduces_resolvent(self):
        spec = LatticeSpec((3, 3), (1.0, 1.0))
        z = 0.2 + 0.6j
        vec = recover_all_alphas(spec, z)
        idx = product((0, 1), repeat=2)
        c = sum(vec[i] * t for i, t in zip(idx, _solution_form_basis(spec)))
        n = node_count(spec)
        exact = np.linalg.inv(expected_matrix(spec, supergraph_edges(spec)) - z * np.eye(n))
        assert np.abs(c - exact).max() < 1e-10

    def test_principal_consistency_random_specs(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            dims = tuple(int(m) for m in rng.integers(2, 6, size=d))
            probs = tuple(float(p) for p in rng.uniform(0.2, 1.0, size=d))
            spec = LatticeSpec(dims, probs)
            z = complex(rng.uniform(-1, 1), rng.uniform(0.1, 1.5))
            sol = solve_alpha(build_problem(spec), z)
            vec = recover_all_alphas(spec, z)
            assert abs(vec[(1,) * d] - sol.alpha_principal) < 1e-10

    # a grid of z used to reach numpy's arithmetic: a shape-broadcast
    # error at 2 points on (4,5), an ambiguous truth value at 4 (2^D = 4)
    @pytest.mark.parametrize("points", [2, 4])
    def test_refuses_a_grid_solution(self, points):
        zs = np.linspace(-1.0, 1.0, points) + 0.1j
        with pytest.raises(ValueError, match=r"^recover_all_alphas takes one scalar z, "
                           rf"not z of shape \({points},\)$"):
            recover_all_alphas(LatticeSpec((4, 5), (0.7, 0.5)), zs)


class TestMatrixOracle:
    def test_probabilities_one_is_exact_resolvent_trace(self):
        spec = LatticeSpec((3, 4), (1.0, 1.0))
        z = 0.2 + 0.7j
        n = node_count(spec)
        b = expected_matrix(spec, supergraph_edges(spec))
        exact = np.trace(np.linalg.inv(b - z * np.eye(n))) / n
        a = solve_alpha(build_problem(spec), z).alpha_principal
        s = matrix_k1_oracle(spec, z, a)
        assert abs(s - exact) < 1e-11

    def test_agreement_with_scalar_solver(self):
        spec = LatticeSpec((4, 5), (0.7, 0.5))
        prob = build_problem(spec)
        z = 0.2 + 0.7j
        a = solve_alpha(prob, z).alpha_principal
        s = matrix_k1_oracle(spec, z, a)
        assert abs(a - s) < 1e-8

    @pytest.mark.parametrize("dims, probs", [((4, 5), (0.7, 0.5)),
                                             ((3, 3, 4), (0.8, 0.7, 0.6))])
    def test_detects_a_perturbed_alpha(self, dims, probs):
        # an alpha off the fixed point by delta is measured, not echoed back:
        # the disagreement is |delta (1 - g'(alpha))|, 0.81 to 1.62 |delta| here
        spec = LatticeSpec(dims, probs)
        prob = build_problem(spec)
        for z in oracle_z_grid():
            a = solve_alpha(prob, z).alpha_principal
            off = a * (1 + 1e-6)
            s = matrix_k1_oracle(spec, z, off)
            assert abs(off - s) >= 0.5e-6 * abs(a), z

    @pytest.mark.parametrize("dims, probs", [
        ((4, 5), (0.7, 0.5)),
        ((3, 3, 4), (0.8, 0.7, 0.6)),
        ((2, 3, 4, 5, 5), (0.9, 0.7, 0.5, 0.3, 0.2)),
    ])
    def test_matches_the_dense_inverse(self, dims, probs):
        # one call for the whole grid against tr F(alpha I) / N by one dense
        # inverse per z, the route the eigensolve of B replaced
        spec = LatticeSpec(dims, probs)
        zs = np.array(oracle_z_grid())
        alphas = solve_alpha(build_problem(spec), zs).alpha_principal
        got = matrix_k1_oracle(spec, zs, alphas)
        assert got.shape == zs.shape
        for z, a, s in zip(zs, alphas, got):
            ref = np.trace(_dense_resolvent(spec, z, a)) / node_count(spec)
            assert abs(s - ref) <= 1e-13, z

    def test_refuses_a_variance_row_sum_off_sigma2(self, monkeypatch):
        # V's row sums come from the edge listing, sigma^2 from the closed form
        monkeypatch.setattr(canonical, "variance_sum", lambda s: 1.01 * variance_sum(s))
        with pytest.raises(OracleError, match=r"^V's row sums miss sigma\^2 by "):
            matrix_k1_oracle(LatticeSpec((4, 5), (0.7, 0.5)), 0.2 + 0.5j, 1j)

    def test_herglotz_at_random_points(self):
        spec = LatticeSpec((3, 3), (0.6, 0.8))
        prob = build_problem(spec)
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = complex(rng.uniform(-1.5, 1.5),
                        rng.choice([-1, 1]) * rng.uniform(0.05, 2))
            s = matrix_k1_oracle(spec, z, solve_alpha(prob, z).alpha_principal)
            assert z.imag * s.imag > 0

    # Im z is the CLI's default epsilon for the spec, where its density curves
    # are drawn; Figure 1a is N=1500 and Figure 1b N=2000
    @pytest.mark.parametrize("dims, probs, eps, offset", [
        pytest.param(dims, probs, eps, offset, id=f"{name}bulk{label}")
        for name, dims, probs, eps in [
            ("", (24, 25), (0.7, 0.5), 2.18e-3),
            ("fig1a-", (30, 50), (0.7, 0.5), 1.99e-3),
            ("fig1b-", (10, 10, 20), (0.8, 0.7, 0.6), 2.19e-3),
        ]
        for offset, label in [(0.0, ""), (0.3, "+0.3")]
    ])
    def test_at_the_plots_own_z(self, dims, probs, eps, offset):
        spec = LatticeSpec(dims, probs)
        prob = build_problem(spec)
        plot_eps = default_epsilon(auto_grid(prob, points=2000, margin=0.1))
        assert plot_eps == pytest.approx(eps, abs=1e-5)
        z = complex(prob.atoms[np.argmax(prob.weights)] + offset, plot_eps)
        a = solve_alpha(prob, z).alpha_principal
        assert abs(a - matrix_k1_oracle(spec, z, a)) <= 1e-8
        c = _dense_resolvent(spec, z, a)
        assert solution_form_residual(spec, c) <= 1e-11
        # Im C is positive definite; Cholesky is several times faster than eigvalsh
        np.linalg.cholesky((c - c.conj().T) / 2j)

    def test_refuses_a_resolvent_outside_the_solution_form(self, monkeypatch):
        # nodes 0 and 6 of (4,5) differ in both digits: B gains one off-link pair
        spec = LatticeSpec((4, 5), (0.7, 0.5))
        b = expected_matrix(spec, supergraph_edges(spec))
        assert b[0, 6] == 0.0
        b[0, 6] = b[6, 0] = 1e-3
        monkeypatch.setattr(canonical, "expected_matrix", lambda s, edges: b)
        z = 0.2 + 0.5j
        a = solve_alpha(build_problem(spec), z).alpha_principal
        with pytest.raises(OracleError, match="leaves the Kronecker solution form"):
            matrix_k1_oracle(spec, z, a)

    def test_holds_one_listing_beside_b(self):
        # B and the form check's copy of it are the peak: the listing and the
        # per-link variances are gone by then
        spec = LatticeSpec((2000,), (0.5,))
        zs = np.array(oracle_z_grid())
        alphas = solve_alpha(build_problem(spec), zs).alpha_principal
        tracemalloc.start()
        try:
            matrix_k1_oracle(spec, zs, alphas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * node_count(spec) ** 2 + 2 * 2**20

    def test_rejects_large_instances(self):
        with pytest.raises(SizeLimitError, match="^oracle refused for N=6400 > 4000$"):
            matrix_k1_oracle(LatticeSpec((80, 80), (0.7, 0.5)), 1j, 1j)

    def test_rejects_real_z(self, monkeypatch):
        # and a non-finite z, before the listing: Im z = NaN used to list, write
        # and eigensolve B and return nan, z = inf + 0.1i to return 0
        def no_listing(spec):
            raise AssertionError("listed the supergraph")

        monkeypatch.setattr(canonical, "supergraph_edges", no_listing)
        for z in (1.0, complex(0.1, np.nan), complex(np.inf, 0.1)):
            with pytest.raises(ValueError):
                matrix_k1_oracle(LatticeSpec((3, 3), (0.5, 0.5)), z, 1j)

    def test_measures_a_non_finite_alpha(self):
        # alpha is the value under test: a non-finite one is reported as nan, not
        # refused; each used to raise a RuntimeWarning, an error under pytest
        spec = LatticeSpec((3, 3), (0.5, 0.5))
        for alpha in [complex(np.nan, np.nan), complex(np.nan, 1), complex(np.inf, 0),
                      complex(1, np.inf)]:
            got = matrix_k1_oracle(spec, 0.2 + 0.5j, alpha)
            assert np.isnan(got.real) and np.isnan(got.imag), alpha

    def test_variance_matrix_row_sums(self):
        spec = LatticeSpec((4, 5), (0.7, 0.5))
        prob = build_problem(spec)
        rows = _variance_matrix(spec).sum(axis=1)
        assert np.allclose(rows, prob.variance_sum, atol=1e-15)


class TestSolutionFormResidual:
    @staticmethod
    def _lstsq_residual(spec, c):
        """The least-squares distance the per-axis projection replaced."""
        a = np.column_stack([t.ravel() for t in _solution_form_basis(spec)])
        vec = c.ravel()
        coef, *_ = np.linalg.lstsq(a.astype(complex), vec, rcond=None)
        return np.linalg.norm(vec - a @ coef) / np.linalg.norm(vec)

    @staticmethod
    def _random_specs(rng, count):
        for _ in range(count):
            d = int(rng.integers(1, 5))
            dims = tuple(int(m) for m in rng.integers(2, 5, size=d))
            yield LatticeSpec(dims, (0.5,) * d)

    def test_matches_least_squares(self):
        rng = np.random.default_rng(11)
        for spec in self._random_specs(rng, 40):
            n = node_count(spec)
            real = rng.normal(size=(n, n))
            for c in (real, real + 1j * rng.normal(size=(n, n))):
                ref = self._lstsq_residual(spec, c)
                assert abs(solution_form_residual(spec, c) - ref) <= 1e-12 * ref

    def test_zero_inside_the_span(self):
        rng = np.random.default_rng(12)
        for spec in self._random_specs(rng, 40):
            basis = _solution_form_basis(spec)
            real = rng.normal(size=len(basis))
            for coef in (real, real + 1j * rng.normal(size=len(basis))):
                c = sum(a * t for a, t in zip(coef, basis))
                assert solution_form_residual(spec, c) <= 1e-14

    def test_memory_at_oracle_cap(self):
        # N=600, the oracle's cap before it shared EIGENSOLVE_LIMIT: the
        # least-squares form held a 360000 x 32 complex basis (352 MiB)
        spec = LatticeSpec((2, 3, 4, 5, 5), (0.9, 0.7, 0.5, 0.3, 0.2))
        z = 0.2 + 0.5j
        a = solve_alpha(build_problem(spec), z).alpha_principal
        c = _dense_resolvent(spec, z, a)
        tracemalloc.start()
        try:
            residual = solution_form_residual(spec, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual <= 1e-11
        assert peak <= 40 * 2**20


def _brute_force_moments(spec: LatticeSpec, kmax: int) -> np.ndarray:
    """E[(1/N) tr W^k] for k = 2 .. kmax, averaged over every percolation of the spec.

    The links are the node pairs whose digits differ in exactly one place;
    each subset of them is one percolation, weighted by its probability.
    """
    n = node_count(spec)
    digits = np.array(list(product(*(range(m) for m in spec.dims))))
    links = [(x, y, int(np.flatnonzero(digits[x] != digits[y])[0]))
             for x in range(n) for y in range(x + 1, n)
             if np.count_nonzero(digits[x] != digits[y]) == 1]
    p = np.array([spec.probs[d] for _, _, d in links])
    kept = np.array(list(product((0, 1), repeat=len(links))), dtype=bool)
    weight = np.where(kept, p, 1 - p).prod(axis=1)
    a = np.zeros((len(kept), n, n))
    for col, (x, y, _) in enumerate(links):
        a[:, x, y] = a[:, y, x] = kept[:, col]
    w = a / expected_degree(spec)
    power, moments = w, []
    for _ in range(2, kmax + 1):
        power = power @ w
        moments.append(weight @ np.trace(power, axis1=1, axis2=2) / n)
    return np.array(moments)


def _k1_moments(problem, kmax: int) -> np.ndarray:
    """K1's moments m_0..m_kmax, from the scalar equation as a power series in u = 1/z.

    With s = -alpha = sum_k m_k u^(k+1), alpha = sum_j w_j / (b_j - z - sigma^2 alpha)
    reads s = sum_j w_j sum_n u^(n+1) (b_j + sigma^2 s)^n.  Substituting s
    fixes at least one more coefficient each time.
    """
    order = kmax + 2  # coefficients of u^0 .. u^(kmax+1)
    s = np.zeros(order)
    for _ in range(order):
        new = np.zeros(order)
        for b, w in zip(problem.atoms, problem.weights):
            base = problem.variance_sum * s
            base[0] += b
            power = np.eye(1, order)[0]  # (b + sigma^2 s)^0
            for n in range(order - 1):
                new[n + 1 :] += w * power[: order - n - 1]
                power = np.convolve(power, base)[:order]
        s = new
    return s[1:]


class TestExactMoments:
    """K1 against exact expected moments: no eigensolve and no Monte Carlo noise."""

    # the last column is ROADMAP item 8's table of m4: exact - K1
    @pytest.mark.parametrize("dims, probs, printed", [
        ((12,), (0.5,), "7.51e-04"),
        ((6, 8), (0.7, 0.5), "9.91e-05"),
        ((4, 5, 6), (0.6, 0.5, 0.4), "7.13e-04"),
        pytest.param((30, 50), (0.7, 0.5), "4.730e-07", id="figure-1a"),
    ])
    def test_k1_is_exact_to_m3_and_misses_m4_by_the_closed_form(self, dims, probs, printed):
        spec = LatticeSpec(dims, probs)
        m2, m3, m4 = exact_moments(spec)
        k1 = _k1_moments(build_problem(spec), 4)
        assert abs(k1[2] - m2) <= 1e-13 * m2
        assert abs(k1[3] - m3) <= 1e-13 * m3
        gap = m4 - k1[4]
        gamma = expected_degree(spec)
        closed_form = sum((m - 1) * p * (1 - p) * (1 - p - p * p)
                          for m, p in zip(dims, probs)) / gamma**4
        assert abs(gap - closed_form) <= 1e-12 * m4
        assert f"{gap:.{len(printed.split('e')[0]) - 2}e}" == printed

    @pytest.mark.parametrize("dims, probs", [((4,), (0.3,)), ((2, 3), (0.7, 0.4))])
    def test_walk_sums_match_every_percolation(self, dims, probs):
        # 6 and 9 links: 64 and 512 percolations, each averaged exactly
        spec = LatticeSpec(dims, probs)
        exact = np.array(exact_moments(spec, 6))
        assert np.all(np.abs(exact - _brute_force_moments(spec, 6)) <= 1e-14 * exact)

    # the m5 column is ROADMAP item 8's table; the m6 gaps of the same specs
    @pytest.mark.parametrize("dims, probs, m5_gap, m6_gap", [
        ((12,), (0.5,), "3.42e-03", "6.222e-03"),
        ((6, 8), (0.7, 0.5), "5.74e-04", "6.185e-04"),
        ((4, 5, 6), (0.6, 0.5, 0.4), "7.95e-04", "1.244e-03"),
    ])
    def test_k1_misses_m5_and_m6_by_the_printed_gaps(self, dims, probs, m5_gap, m6_gap):
        spec = LatticeSpec(dims, probs)
        m5, m6 = exact_moments(spec, 6)[3:]
        k1 = _k1_moments(build_problem(spec), 6)
        assert (f"{m5 - k1[5]:.2e}", f"{m6 - k1[6]:.3e}") == (m5_gap, m6_gap)


class TestK1Support:
    # Figure 1a, Figure 1b, one ring with a far Perron lobe, a sparse Figure 1a
    # and perfbench's det-sweep D=5 solve, with their lobe counts
    SPECS = [
        pytest.param((30, 50), (0.7, 0.5), 4, id="fig1a"),
        pytest.param((10, 10, 20), (0.8, 0.7, 0.6), 7, id="fig1b"),
        pytest.param((400,), (0.1,), 2, id="ring-400"),
        pytest.param((30, 50), (0.05, 0.05), 2, id="sparse-30x50"),
        pytest.param((3, 4, 5, 6, 7), (0.9, 0.7, 0.5, 0.3, 0.2), 4, id="det-sweep-d5"),
    ]

    @staticmethod
    def _density(problem, x, eps):
        return solve_alpha(problem, np.asarray(x) + 1j * eps).alpha_principal.imag / np.pi

    @pytest.mark.parametrize("dims, probs, lobes", SPECS)
    def test_density_signs_at_every_edge(self, dims, probs, lobes):
        # 1e-4 inside an edge the density reads >= 1.8e-3 on these specs, and
        # 1e-4 outside it <= 5.2e-7, also across Figure 1b's narrowest gap
        problem = build_problem(LatticeSpec(dims, probs))
        edges = support_edges(problem)
        assert edges.shape == (lobes, 2)
        assert np.all(np.diff(edges.ravel()) > 2e-4)
        inside = np.concatenate([edges[:, 0] + 1e-4, edges[:, 1] - 1e-4])
        outside = np.concatenate([edges[:, 0] - 1e-4, edges[:, 1] + 1e-4])
        assert self._density(problem, inside, 1e-9).min() >= 1e-3
        assert self._density(problem, outside, 1e-9).max() <= 1e-6

    @pytest.mark.parametrize("dims, probs, lobes", SPECS)
    def test_lobe_count_matches_a_fine_scan(self, dims, probs, lobes):
        # the support lies within 2 sigma of the atoms, auto_grid spans 4 sigma
        problem = build_problem(LatticeSpec(dims, probs))
        on = self._density(problem, auto_grid(problem, 200_001, 0.0), 1e-7) > 1e-4
        assert not on[0] and not on[-1]
        assert np.count_nonzero(on[1:] & ~on[:-1]) == len(support_edges(problem)) == lobes


def test_oracle_grid_shape():
    zs = oracle_z_grid()
    assert len(zs) == 25
    assert all(z.imag > 0 for z in zs)
