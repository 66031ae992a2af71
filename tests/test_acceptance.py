"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  The Monte Carlo criteria take a few minutes at full scale.
"""

import numpy as np
import pytest

from percolattice.canonical import (
    build_problem,
    matrix_k1_oracle,
    oracle_z_grid,
    solve_alpha,
    solution_form_residual,
)
from percolattice.espectrum import (
    EmpiricalSpectrum,
    empirical_stieltjes,
    esd_cdf,
    monte_carlo_spectrum,
    smoothed_density,
)
from percolattice.inversion import (
    SpectralCurve,
    auto_grid,
    cdf_from_density,
    default_epsilon,
    density_curve,
)
from percolattice.lattice import (
    LatticeSpec,
    decode_index,
    encode_index,
    expected_degree,
    expected_spectrum,
    node_count,
)
from percolattice.metrics import kolmogorov_distance, levy_distance
from percolattice.percolation import girko_conditions


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def deterministic_cdf(problem, grid, eps):
    return cdf_from_density(
        density_curve(lambda z: solve_alpha(problem, z).alpha_principal, grid, eps)
    )


def test_criterion_1_oracle_equivalence():
    worst = 0.0
    for dims, probs in (((4, 5), (0.7, 0.5)), ((3, 3, 4), (0.8, 0.7, 0.6))):
        spec = LatticeSpec(dims, probs)
        prob = build_problem(spec)
        for z in oracle_z_grid():
            a = solve_alpha(prob, z).alpha_principal
            s = matrix_k1_oracle(spec, z, tol=1e-12)
            worst = max(worst, abs(a - s))
    report(1, "oracle equivalence", worst <= 1e-8, f"worst |diff| = {worst:.3e}")


def test_criterion_2_solution_form_residual():
    spec = LatticeSpec((4, 5), (0.7, 0.5))
    worst = 0.0
    for z in (0.2 + 0.7j, -0.5 + 0.1j, 0.9 + 1.5j):
        _, c = matrix_k1_oracle(spec, z, tol=1e-12, return_matrix=True)
        worst = max(worst, solution_form_residual(spec, c))
    report(2, "solution-form residual", worst <= 1e-6,
           f"worst relative residual = {worst:.3e}")


def lobe_distances(problem, det, emp):
    """Kolmogorov distance on the main density lobe and on the minor lobes."""
    grid = det.grid
    mask = det.density > 1e-3 * det.density.max()
    bulk = problem.atoms[np.argmax(problem.weights)]
    k0 = int(np.argmin(np.abs(grid - bulk)))
    lo = k0
    while lo > 0 and mask[lo - 1]:
        lo -= 1
    hi = k0
    while hi < len(grid) - 1 and mask[hi + 1]:
        hi += 1
    diff = np.abs(det.cdf - emp.cdf)
    main = float(diff[lo : hi + 1].max())
    minor_mask = mask.copy()
    minor_mask[lo : hi + 1] = False
    minor = float(diff[minor_mask].max()) if minor_mask.any() else 0.0
    return main, minor


def figure_reproduction(number, name, dims, probs, seed):
    spec = LatticeSpec(dims, probs)
    prob = build_problem(spec)
    grid = auto_grid(prob, 2000, 0.1)
    eps = default_epsilon(grid)
    det = deterministic_cdf(prob, grid, eps)
    pooled = monte_carlo_spectrum(spec, seed, 50)
    emp = cdf_from_density(smoothed_density(pooled, grid, eps))
    main, minor = lobe_distances(prob, det, emp)
    report(number, name, main <= 0.05,
           f"main-lobe KS = {main:.4f}, minor-lobe KS = {minor:.4f} (reported only)")


def test_criterion_3_figure_1a():
    figure_reproduction(3, "figure 1a reproduction", (30, 50), (0.7, 0.5), seed=42)


def test_criterion_4_figure_1b():
    figure_reproduction(4, "figure 1b reproduction", (10, 10, 20), (0.8, 0.7, 0.6),
                        seed=43)


def test_criterion_5_row_normalization_trend():
    def levy_pair(dims, seed):
        spec = LatticeSpec(dims, (0.6, 0.6))
        scale = np.sqrt(expected_degree(spec))
        scaled = monte_carlo_spectrum(spec, seed, 20, normalized=False, scale=scale)
        norm = monte_carlo_spectrum(spec, seed + 1, 20, normalized=True, scale=scale)
        lo = min(scaled.eigenvalues.min(), norm.eigenvalues.min()) - 0.1
        hi = max(scaled.eigenvalues.max(), norm.eigenvalues.max()) + 0.1
        grid = np.linspace(lo, hi, 2000)
        a = SpectralCurve(grid=grid, cdf=np.asarray(esd_cdf(scaled, grid), float))
        b = SpectralCurve(grid=grid, cdf=np.asarray(esd_cdf(norm, grid), float))
        return levy_distance(a, b)

    d_small = levy_pair((10, 10), seed=7)
    d_large = levy_pair((30, 30), seed=7)
    ok = d_small > d_large and d_large <= 0.05
    report(5, "row-normalization Levy trend", ok,
           f"levy(10,10) = {d_small:.4f} > levy(30,30) = {d_large:.4f} <= 0.05")


def test_criterion_6_variance_zero_exactness():
    worst = 0.0
    for dims in ((4, 5), (30, 50)):
        spec = LatticeSpec(dims, (1.0, 1.0))
        prob = build_problem(spec)
        grid = auto_grid(prob, 2000, 0.1)
        det = deterministic_cdf(prob, grid, default_epsilon(grid))
        atoms, mults = expected_spectrum(spec)
        cum = np.cumsum(mults) / node_count(spec)
        mids = np.concatenate([
            [atoms[0] - 0.05], (atoms[:-1] + atoms[1:]) / 2, [atoms[-1] + 0.05]
        ])
        atomic = np.concatenate([[0.0], cum])
        got = np.interp(mids, grid, det.cdf)
        worst = max(worst, float(np.abs(got - atomic).max()))
    report(6, "variance-zero exactness", worst <= 0.02,
           f"worst mid-gap CDF error = {worst:.4f}")


def test_criterion_7_semicircle_limit():
    spec = LatticeSpec((2000,), (0.5,))
    prob = build_problem(spec)
    sig2 = prob.variance_sum
    radius = 2 * np.sqrt(sig2)
    center = -1.0 / 1999
    xs = np.linspace(center - 0.8 * radius, center + 0.8 * radius, 201)
    dens = solve_alpha(prob, xs + 1e-6j).alpha_principal.imag / np.pi
    semi = np.sqrt(np.clip(radius**2 - (xs - center) ** 2, 0, None)) / (2 * np.pi * sig2)
    sup = float(np.abs(dens - semi).max())

    # Monte Carlo cross-check at M=500: pooled ESD vs the semicircle CDF
    spec_mc = LatticeSpec((500,), (0.5,))
    prob_mc = build_problem(spec_mc)
    r_mc = 2 * np.sqrt(prob_mc.variance_sum)
    c_mc = -1.0 / 499
    pooled = monte_carlo_spectrum(spec_mc, 17, 20)
    grid = np.linspace(c_mc - 2 * r_mc, c_mc + 2 * r_mc, 2000)
    u = np.clip((grid - c_mc) / r_mc, -1, 1)
    semi_cdf = 0.5 + (u * np.sqrt(1 - u**2) + np.arcsin(u)) / np.pi
    # the rank-one branch parks one eigenvalue per trial near +1, outside
    # this grid; renormalize the semicircle mass accordingly
    semi_cdf *= 1 - 1 / 500
    emp_cdf = np.asarray(esd_cdf(pooled, grid), float)
    ks = float(np.abs(emp_cdf - semi_cdf).max())

    ok = sup <= 1e-2 and ks <= 0.05
    report(7, "semicircle limit", ok,
           f"density sup error = {sup:.4e}, MC cross-check KS = {ks:.4f}")


def test_criterion_8_invariant_suites():
    rng = np.random.default_rng(8)
    checks = []

    # Herglotz sign property of both transforms
    prob = build_problem(LatticeSpec((4, 5), (0.7, 0.5)))
    spec_emp = EmpiricalSpectrum(np.sort(rng.normal(size=10)))
    for _ in range(25):
        z = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.05, 2))
        checks.append(z.imag * solve_alpha(prob, z).alpha_principal.imag > 0)
        checks.append(z.imag * empirical_stieltjes(spec_emp, z).imag > 0)

    # CDF monotonicity of the deterministic curve
    grid = auto_grid(prob, 400, 0.1)
    det = deterministic_cdf(prob, grid, default_epsilon(grid))
    checks.append(bool(np.all(np.diff(det.cdf) >= -1e-12)))

    # levy <= kolmogorov on random CDF pairs
    fine = np.linspace(-1, 1, 1001)
    for _ in range(5):
        a = SpectralCurve(grid=fine, cdf=np.sort(rng.uniform(0, 1, fine.size)))
        b = SpectralCurve(grid=fine, cdf=np.sort(rng.uniform(0, 1, fine.size)))
        checks.append(levy_distance(a, b) <= kolmogorov_distance(a, b) + 1e-12)

    # encode/decode round trip
    for _ in range(50):
        d = int(rng.integers(1, 5))
        spec = LatticeSpec(tuple(int(m) for m in rng.integers(2, 5, size=d)),
                           tuple(float(p) for p in rng.uniform(0.1, 1, size=d)))
        x = int(rng.integers(1, node_count(spec) + 1))
        checks.append(encode_index(spec, decode_index(spec, x)) == x)

    # determinism under varying thread counts is exercised by
    # tests/test_cli.py::test_thread_count_does_not_change_output
    ok = all(checks)
    report(8, "invariant suites", ok, f"{len(checks)} checks")


def test_criterion_9_girko_condition_values():
    rng = np.random.default_rng(9)
    ok = True
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        dims = tuple(int(m) for m in rng.integers(2, 60, size=d))
        probs = tuple(float(p) for p in rng.uniform(0.01, 1.0, size=d))
        spec = LatticeSpec(dims, probs)
        r = girko_conditions(spec)
        ok = ok and r.mean_row_sum == 1.0
        gamma = expected_degree(spec)
        hand = sum((m - 1) * p * (1 - p) for m, p in zip(dims, probs)) / gamma**2
        worst = max(worst, abs(r.variance_row_sum - hand))
    report(9, "Girko condition values", ok and worst <= 1e-12,
           f"variance formula worst |diff| = {worst:.2e}")
