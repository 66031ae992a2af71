import numpy as np
import pytest

from percolattice.canonical import (
    SolverError,
    _solve_level,
    build_problem,
    matrix_k1_oracle,
    oracle_z_grid,
    recover_all_alphas,
    solution_form_basis,
    solve_alpha,
    variance_matrix,
)
from percolattice.inversion import auto_grid, default_epsilon
from percolattice.lattice import (
    LatticeSpec,
    SizeLimitError,
    branch_table,
    expected_degree,
    expected_matrix,
    node_count,
)


def _g(problem, z, a):
    """g(alpha) on the raw, unmerged branches."""
    b, mults = branch_table(problem.spec)
    w = mults / node_count(problem.spec)
    return complex(np.sum(w / (b - z - problem.variance_sum * a)))


def _reference_solve_alpha(problem, z, tol=1e-12, max_iter=100_000, initial=None):
    """The per-point solver solve_alpha replaced, kept as a reference.

    Damped fixed-point iteration with the damping halved whenever the
    candidate would leave the Herglotz branch or fail to shrink the
    residual; a safeguarded Newton step takes over when the fixed point
    stalls. Returns alpha.
    """
    z = complex(z)
    s = 1.0 if z.imag > 0 else -1.0
    b, mults = branch_table(problem.spec)
    w = mults / node_count(problem.spec)
    sig2 = problem.variance_sum

    def g(a):
        return _g(problem, z, a)

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


def _reference_curve(problem, zs):
    """Reference solves along a grid, each warm-started from the previous."""
    out, alpha = [], None
    for z in zs:
        alpha = _reference_solve_alpha(problem, z, initial=alpha)
        out.append(alpha)
    return np.array(out)


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
        prob = build_problem(LatticeSpec((2,), (0.5,)))
        assert expected_degree(prob.spec) == 0.5
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
        assert abs(a - matrix_k1_oracle(spec, z, tol=1e-12)) < 1e-8

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
        prob = build_problem(LatticeSpec((4, 5), (0.7, 0.5)))
        for z in (0.1 + 0.05j, -0.5 + 1j, 0.9 + 0.2j):
            s = 1.0 if z.imag > 0 else -1.0
            expected = solve_alpha(prob, z).alpha_principal
            starts = [1j * s, 0.5 + 1j * s, -1 + 0.2j * s, 2j * s, -0.3 + 3j * s]
            for a in starts:
                for _ in range(100_000):
                    a = 0.5 * (a + _g(prob, z, a))
                    if abs(a - _g(prob, z, a)) < 1e-13:
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
        for k in (0, 1234, 2048, 4999):
            one = solve_alpha(prob, zs[k])
            assert isinstance(one.alpha_principal, complex)
            assert abs(one.alpha_principal - sol.alpha_principal[k]) < 1e-13

    @pytest.mark.parametrize("dims, probs", [
        ((30, 50), (0.7, 0.5)),
        ((10, 10, 20), (0.8, 0.7, 0.6)),
    ])
    def test_matches_reference_on_figure_grids(self, dims, probs):
        prob = build_problem(LatticeSpec(dims, probs))
        grid = auto_grid(prob, 2000, 0.1)
        zs = grid + 1j * default_epsilon(grid)
        got = solve_alpha(prob, zs).alpha_principal
        assert np.abs(got - _reference_curve(prob, zs)).max() < 1e-10

    def test_matches_reference_on_oracle_grid(self):
        zs = np.array(oracle_z_grid())
        for dims, probs in (((4, 5), (0.7, 0.5)), ((3, 3, 4), (0.8, 0.7, 0.6))):
            prob = build_problem(LatticeSpec(dims, probs))
            got = solve_alpha(prob, zs).alpha_principal
            ref = [_reference_solve_alpha(prob, z) for z in zs]
            assert np.abs(got - ref).max() < 1e-10

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


class TestRecoverAllAlphas:
    def test_two_by_two_system(self):
        spec = LatticeSpec((2,), (0.5,))
        prob = build_problem(spec)
        sol = solve_alpha(prob, 0.1 + 1.0j)
        vec = recover_all_alphas(prob, sol)
        assert set(vec) == {(0,), (1,)}
        assert abs(vec[(1,)] - sol.alpha_principal) < 1e-10

    def test_variance_zero_reproduces_resolvent(self):
        spec = LatticeSpec((3, 3), (1.0, 1.0))
        prob = build_problem(spec)
        z = 0.2 + 0.6j
        sol = solve_alpha(prob, z)
        vec = recover_all_alphas(prob, sol)
        basis = solution_form_basis(spec)
        idx = [(0, 0), (0, 1), (1, 0), (1, 1)]
        from itertools import product

        idx = list(product((0, 1), repeat=2))
        c = sum(vec[i] * t for i, t in zip(idx, basis))
        n = node_count(spec)
        exact = np.linalg.inv(expected_matrix(spec) - z * np.eye(n))
        assert np.abs(c - exact).max() < 1e-10

    def test_principal_consistency_random_specs(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            dims = tuple(int(m) for m in rng.integers(2, 6, size=d))
            probs = tuple(float(p) for p in rng.uniform(0.2, 1.0, size=d))
            prob = build_problem(LatticeSpec(dims, probs))
            z = complex(rng.uniform(-1, 1), rng.uniform(0.1, 1.5))
            sol = solve_alpha(prob, z)
            vec = recover_all_alphas(prob, sol)
            assert abs(vec[(1,) * d] - sol.alpha_principal) < 1e-10


class TestMatrixOracle:
    def test_probabilities_one_is_exact_resolvent_trace(self):
        spec = LatticeSpec((3, 4), (1.0, 1.0))
        z = 0.2 + 0.7j
        n = node_count(spec)
        exact = np.trace(np.linalg.inv(expected_matrix(spec) - z * np.eye(n))) / n
        assert abs(matrix_k1_oracle(spec, z, tol=1e-13) - exact) < 1e-11

    def test_agreement_with_scalar_solver(self):
        spec = LatticeSpec((4, 5), (0.7, 0.5))
        prob = build_problem(spec)
        z = 0.2 + 0.7j
        a = solve_alpha(prob, z).alpha_principal
        assert abs(a - matrix_k1_oracle(spec, z, tol=1e-12)) < 1e-8

    def test_herglotz_at_random_points(self):
        spec = LatticeSpec((3, 3), (0.6, 0.8))
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = complex(rng.uniform(-1.5, 1.5),
                        rng.choice([-1, 1]) * rng.uniform(0.05, 2))
            s = matrix_k1_oracle(spec, z, tol=1e-11)
            assert z.imag * s.imag > 0

    def test_rejects_large_instances(self):
        with pytest.raises(SizeLimitError):
            matrix_k1_oracle(LatticeSpec((30, 50), (0.7, 0.5)), 1j)

    def test_rejects_real_z(self):
        with pytest.raises(ValueError):
            matrix_k1_oracle(LatticeSpec((3, 3), (0.5, 0.5)), 1.0)

    def test_variance_matrix_row_sums(self):
        spec = LatticeSpec((4, 5), (0.7, 0.5))
        prob = build_problem(spec)
        rows = variance_matrix(spec).sum(axis=1)
        assert np.allclose(rows, prob.variance_sum, atol=1e-15)


def test_oracle_grid_shape():
    zs = oracle_z_grid()
    assert len(zs) == 25
    assert all(z.imag > 0 for z in zs)
