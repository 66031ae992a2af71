"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  The Monte Carlo criteria take a few minutes at full scale.
"""

import dataclasses
import functools

import numpy as np
import pytest

from percolattice.canonical import (
    build_problem,
    girko_conditions,
    matrix_k1_oracle,
    oracle_z_grid,
    solve_alpha,
    solution_form_residual,
)
from percolattice.espectrum import (
    EmpiricalSpectrum,
    eigenvalues,
    empirical_stieltjes,
    esd_cdf,
    map_trials,
    monte_carlo_spectrum,
    pool,
    smoothed_density,
    theorem3_spectra,
)
from percolattice.inversion import (
    auto_grid,
    cdf_from_density,
    compare,
    default_epsilon,
    density_curve,
    span_grid,
)
from percolattice.lattice import (
    LatticeSpec,
    decode_index,
    encode_index,
    expected_degree,
    expected_matrix,
    expected_spectrum,
    node_count,
    supergraph_edges,
)

from walk_moments import exact_moments

# (dims, probs, seed) of the paper's two figures, 50 trials each
FIGURES = {
    "1a": ((30, 50), (0.7, 0.5), 42),
    "1b": ((10, 10, 20), (0.8, 0.7, 0.6), 43),
}


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def deterministic_curves(problem, grid, eps):
    """The deterministic density on the grid and its CDF."""
    dens = density_curve(lambda z: solve_alpha(problem, z).alpha_principal, grid, eps)
    return dens, cdf_from_density(grid, dens)


def test_criterion_1_oracle_equivalence():
    worst = 0.0
    for dims, probs in (((4, 5), (0.7, 0.5)), ((3, 3, 4), (0.8, 0.7, 0.6))):
        spec = LatticeSpec(dims, probs)
        prob = build_problem(spec)
        for z in oracle_z_grid():
            a = solve_alpha(prob, z).alpha_principal
            s = matrix_k1_oracle(spec, z, a)
            worst = max(worst, abs(a - s))
    report(1, "oracle equivalence", worst <= 1e-8, f"worst |diff| = {worst:.3e}")


def test_criterion_2_solution_form_residual():
    # the solution form is an algebra closed under inversion, so the oracle's
    # C = (B - (z + sigma^2 alpha) I)^{-1} lies in it at every z when B does
    spec = LatticeSpec((4, 5), (0.7, 0.5))
    residual = solution_form_residual(spec, expected_matrix(spec, supergraph_edges(spec)))
    report(2, "solution-form residual", residual <= 1e-6,
           f"relative residual of B = {residual:.3e}")


def lobe_distances(problem, grid, f_det, F_det, F_emp):
    """Kolmogorov distance on the main density lobe and on the minor lobes."""
    mask = f_det > 1e-3 * f_det.max()
    bulk = problem.atoms[np.argmax(problem.weights)]
    k0 = int(np.argmin(np.abs(grid - bulk)))
    lo = k0
    while lo > 0 and mask[lo - 1]:
        lo -= 1
    hi = k0
    while hi < len(grid) - 1 and mask[hi + 1]:
        hi += 1
    diff = np.abs(F_det - F_emp)
    main = float(diff[lo : hi + 1].max())
    minor_mask = mask.copy()
    minor_mask[lo : hi + 1] = False
    minor = float(diff[minor_mask].max()) if minor_mask.any() else 0.0
    return main, minor


@pytest.fixture(scope="module")
def figure_trials():
    """figure -> (spec, per-trial eigenvalues of W = A/gamma, their pool).

    Each figure's 50 trials are sampled and solved once per module, on first
    use, so every criterion that reads them shares the eigensolves; the pool
    is byte-equal to monte_carlo_spectrum's.
    """
    @functools.cache
    def trials(figure):
        dims, probs, seed = FIGURES[figure]
        spec = LatticeSpec(dims, probs)
        gamma = expected_degree(spec)
        per_trial = map_trials(spec, seed, 50, lambda a: eigenvalues(a) / gamma)
        return spec, per_trial, pool(per_trial)

    return trials


# Main-lobe KS bounds of criteria 3 and 4 (0.05 before): twice the worst of
# a seed scan, rounded up. 50 trials per seed; the distance is K1's own 1/gamma
# bias, stable across seeds. Fig 1a, seeds 42 and 1-10: 0.0010-0.0013 (seed
# 42: 0.0011). Fig 1b, seeds 43 and 1-10: 0.0026-0.0030 (seed 43: 0.0030).
# Over the same seeds, K1 at sigma^2 x 0.9, sigma^2 x 1.1 and the last p x 0.9
# reads 0.0154-0.0157, 0.0145-0.0148 and 0.0168-0.0172 (fig 1a), and
# 0.0134-0.0136, 0.0138-0.0142 and 0.0184-0.0188 (fig 1b).
FIGURE_KS_BOUND = {"1a": 0.0026, "1b": 0.006}


def figure_curves(trials):
    """The figure's problem, its auto grid and width, and the pooled trials' CDF."""
    spec, _, pooled = trials
    prob = build_problem(spec)
    grid = auto_grid(prob, 2000, 0.1)
    eps = default_epsilon(grid)
    return prob, grid, eps, cdf_from_density(grid, smoothed_density(pooled, grid, eps))


def lobe_ks(problem, grid, eps, F_emp):
    """Main- and minor-lobe KS of problem's K1 against the pooled CDF."""
    return lobe_distances(problem, grid, *deterministic_curves(problem, grid, eps), F_emp)


def figure_reproduction(number, name, figure, figure_trials):
    main, minor = lobe_ks(*figure_curves(figure_trials(figure)))
    report(number, name, main <= FIGURE_KS_BOUND[figure],
           f"main-lobe KS = {main:.4f}, minor-lobe KS = {minor:.4f} (reported only)")


def test_criterion_3_figure_1a(figure_trials):
    figure_reproduction(3, "figure 1a reproduction", "1a", figure_trials)


def test_criterion_4_figure_1b(figure_trials):
    figure_reproduction(4, "figure 1b reproduction", "1b", figure_trials)


@pytest.mark.parametrize("figure", FIGURES)
def test_criteria_3_and_4_detect_a_wrong_k1(figure_trials, figure):
    # K1 at sigma^2 x 0.9, sigma^2 x 1.1 and the last p x 0.9 against the
    # criterion's own pool: one solve_alpha over the grid each, no eigensolve
    trials = figure_trials(figure)
    prob, grid, eps, F_emp = figure_curves(trials)
    dims, probs = trials[0].dims, trials[0].probs
    wrong = (dataclasses.replace(prob, variance_sum=0.9 * prob.variance_sum),
             dataclasses.replace(prob, variance_sum=1.1 * prob.variance_sum),
             build_problem(LatticeSpec(dims, probs[:-1] + (0.9 * probs[-1],))))
    mains = [lobe_ks(k1, grid, eps, F_emp)[0] for k1 in wrong]
    assert min(mains) > FIGURE_KS_BOUND[figure], mains


def theorem3_levy(scaled, normalized):
    """Levy distance between the scaled-adjacency and row-normalized spectra.

    The grid is compare --normalized's: both spectra, plus the default margin.
    """
    grid = span_grid(min(scaled.eigenvalues[0], normalized.eigenvalues[0]),
                     max(scaled.eigenvalues[-1], normalized.eigenvalues[-1]), 2000, 0.1)
    return compare(grid, esd_cdf(scaled, grid), esd_cdf(normalized, grid)).levy


# Bound of criterion 5's (30,30) Levy distance: twice the worst of a seed
# scan, rounded up; at 20 trials seeds 1-10 read 0.0081-0.0091 (seed 7:
# 0.0083), and 0.0150-0.0175 at (10,10). On seed 7's pool the row-normalized
# spectrum x 0.9 and x 1.1 read 0.042 and 0.035, x 0.95 and x 1.05 read 0.025
# and 0.019.
THEOREM3_LEVY_BOUND = 0.019


@pytest.fixture(scope="module")
def theorem3_pools():
    """Criterion 5's spectrum pairs, (n,n)/0.6 for n = 10 and 30, 20 trials at seed 7.

    Both spectra of a trial come from one percolation.
    """
    return {n: theorem3_spectra(LatticeSpec((n, n), (0.6, 0.6)), 7, 20) for n in (10, 30)}


def test_criterion_5_row_normalization_trend(theorem3_pools):
    d_small = theorem3_levy(*theorem3_pools[10])
    d_large = theorem3_levy(*theorem3_pools[30])
    ok = d_small > d_large and d_large <= THEOREM3_LEVY_BOUND
    report(5, "row-normalization Levy trend", ok,
           f"levy(10,10) = {d_small:.4f} > levy(30,30) = {d_large:.4f} "
           f"<= {THEOREM3_LEVY_BOUND}")


def test_criterion_5_detects_a_wrong_scale(theorem3_pools):
    # the row-normalized spectrum 10% too small or too large fails the bound
    scaled, normalized = theorem3_pools[30]
    wrong = [theorem3_levy(scaled, EmpiricalSpectrum(normalized.eigenvalues * f))
             for f in (0.9, 1.1)]
    assert min(wrong) > THEOREM3_LEVY_BOUND, wrong


def test_criterion_6_variance_zero_exactness():
    worst = 0.0
    for dims in ((4, 5), (30, 50)):
        spec = LatticeSpec(dims, (1.0, 1.0))
        prob = build_problem(spec)
        grid = auto_grid(prob, 2000, 0.1)
        _, det = deterministic_curves(prob, grid, default_epsilon(grid))
        atoms, mults = expected_spectrum(spec)
        cum = np.cumsum(mults) / node_count(spec)
        mids = np.concatenate([
            [atoms[0] - 0.05], (atoms[:-1] + atoms[1:]) / 2, [atoms[-1] + 0.05]
        ])
        atomic = np.concatenate([[0.0], cum])
        got = np.interp(mids, grid, det)
        worst = max(worst, float(np.abs(got - atomic).max()))
    # At variance zero the smoothed CDF misses the atomic one at mid-gap by its
    # Lorentzian tails' mass, linear in eps: 0.0040 at (4,5) and 0.0056 at
    # (30,50). 0.02 fails a width 4x the default at (30,50) (0.022), an atom
    # weight misplaced (the two largest swapped: 0.40 and 0.91) and a
    # variance that is not zero (sigma^2 = 1e-3 at (30,50): 0.051).
    report(6, "variance-zero exactness", worst <= 0.02,
           f"worst mid-gap CDF error = {worst:.4f}")


# Bound of criterion 7's Monte Carlo cross-check (0.05 before): twice the
# worst of a seed scan, rounded up; seeds 17 and 1-20 read 0.0011-0.0018
# (seed 17: 0.0014). The semicircle at sigma^2 x 0.9 and x 1.1 reads
# 0.0167-0.0177 and 0.0159-0.0167 over the same seeds.
SEMICIRCLE_KS_BOUND = 0.0035


@pytest.fixture(scope="module")
def semicircle_pool():
    """Criterion 7's Monte Carlo pool: (500,)/0.5, 20 trials at seed 17."""
    return monte_carlo_spectrum(LatticeSpec((500,), (0.5,)), 17, 20)


def semicircle_ks(pooled, scale):
    """KS of the pooled ESD against the semicircle CDF of variance scale * sigma^2."""
    sig2 = build_problem(LatticeSpec((500,), (0.5,))).variance_sum
    r_mc = 2 * np.sqrt(sig2)
    c_mc = -1.0 / 499
    grid = np.linspace(c_mc - 2 * r_mc, c_mc + 2 * r_mc, 2000)
    u = np.clip((grid - c_mc) / (2 * np.sqrt(scale * sig2)), -1, 1)
    semi_cdf = 0.5 + (u * np.sqrt(1 - u**2) + np.arcsin(u)) / np.pi
    # the rank-one branch parks one eigenvalue per trial near +1, outside
    # this grid; renormalize the semicircle mass accordingly
    semi_cdf *= 1 - 1 / 500
    emp_cdf = np.asarray(esd_cdf(pooled, grid), float)
    return float(np.abs(emp_cdf - semi_cdf).max())


def test_criterion_7_semicircle_limit(semicircle_pool):
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
    ks = semicircle_ks(semicircle_pool, 1.0)
    ok = sup <= 1e-2 and ks <= SEMICIRCLE_KS_BOUND
    report(7, "semicircle limit", ok,
           f"density sup error = {sup:.4e}, MC cross-check KS = {ks:.4f}")


def test_criterion_7_detects_a_wrong_variance(semicircle_pool):
    wrong = [semicircle_ks(semicircle_pool, scale) for scale in (0.9, 1.1)]
    assert min(wrong) > SEMICIRCLE_KS_BOUND, wrong


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
    _, det = deterministic_curves(prob, grid, default_epsilon(grid))
    checks.append(bool(np.all(np.diff(det) >= -1e-12)))

    # levy <= kolmogorov on random CDF pairs
    fine = np.linspace(-1, 1, 1001)
    for _ in range(5):
        a = np.sort(rng.uniform(0, 1, fine.size))
        b = np.sort(rng.uniform(0, 1, fine.size))
        rep = compare(fine, a, b)
        checks.append(rep.levy <= rep.kolmogorov + 1e-12)

    # encode/decode round trip
    for _ in range(50):
        d = int(rng.integers(1, 5))
        spec = LatticeSpec(tuple(int(m) for m in rng.integers(2, 5, size=d)),
                           tuple(float(p) for p in rng.uniform(0.1, 1, size=d)))
        x = int(rng.integers(1, node_count(spec) + 1))
        checks.append(encode_index(spec, decode_index(spec, x)) == x)

    # thread counts are not covered here: tests/test_cli.py's N=20 run stays on
    # one BLAS thread at any setting, and its paper-size run
    # (test_thread_count_does_not_change_paper_size_output) still fails, ROADMAP item 1
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
        ok = ok and r["mean_row_sum"] == 1.0
        gamma = expected_degree(spec)
        hand = sum((m - 1) * p * (1 - p) for m, p in zip(dims, probs)) / gamma**2
        worst = max(worst, abs(r["variance_row_sum"] - hand))
    report(9, "Girko condition values", ok and worst <= 1e-12,
           f"variance formula worst |diff| = {worst:.2e}")


def perron_location(problem):
    """The real root z* above the bulk of b - z - sigma^2 Re alpha_-(z + 1e-10i).

    b is the top atom (weight 1/N) and alpha_- the transform of the problem
    without it: the rank-one outlier equation (Benaych-Georges and
    Nadakuditi, Adv. Math. 227, 2011). The left side decreases above the
    bulk, so z* is found by bisection.
    """
    bulk = dataclasses.replace(problem, atoms=problem.atoms[:-1],
                               weights=problem.weights[:-1])
    top = float(problem.atoms[-1])

    def excess(x):
        alpha = solve_alpha(bulk, x + 1e-10j).alpha_principal
        return top - x - problem.variance_sum * alpha.real

    lo, hi = top, top + 1.0
    assert excess(lo) > 0 > excess(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_criterion_10_perron_outlier(figure_trials):
    # B's top atom, weight 1/N, is invisible to the KS criteria; each trial's
    # top eigenvalue tests its predicted location. Bound: two-sided normal
    # quantile at family alpha = 0.001, Bonferroni over the two figures.
    bound = 3.48
    ok, details = True, []
    for figure in FIGURES:
        spec, per_trial, _ = figure_trials(figure)
        top = np.array([vals[-1] for vals in per_trial])
        zstar = perron_location(build_problem(spec))
        se = top.std(ddof=1) / np.sqrt(len(top))
        z = (top.mean() - zstar) / se
        ok = ok and abs(z) <= bound
        details.append(f"fig {figure}: z* = {zstar:.6f}, observed {top.mean():.6f} "
                       f"+- {se:.1e} (z = {z:+.2f})")
    report(10, "Perron outlier", ok, f"{'; '.join(details)}; |z| <= {bound}")


def test_criterion_11_theorem3_rate():
    # Theorem 3: the row-normalized and scaled-adjacency spectra meet at rate
    # 1/sqrt(gamma).  Measured (mean Levy of seeds 7 and 8, 10 trials each):
    # Levy * sqrt(gamma) = 0.0547, 0.0523, 0.0552, 0.0466 up the ladder, and
    # the slope of log Levy on log gamma is -0.62.
    gammas, levys = [], []
    for dims in ((10, 10), (15, 15), (20, 20), (30, 30)):
        spec = LatticeSpec(dims, (0.6, 0.6))
        gammas.append(expected_degree(spec))
        levys.append(np.mean([theorem3_levy(*theorem3_spectra(spec, seed, 10))
                              for seed in (7, 8)]))
    rate = np.array(levys) * np.sqrt(gammas)
    slope = np.polyfit(np.log(gammas), np.log(levys), 1)[0]
    # the band has >= 35% headroom on the measured range, and the window 0.23
    # beyond the measured slope; a 1/gamma rate (slope -1) or none (0) is outside it
    ok = 0.03 <= rate.min() and rate.max() <= 0.08 and -0.85 <= slope <= -0.15
    report(11, "Theorem 3 rate", ok,
           f"Levy * sqrt(gamma) = {', '.join(f'{v:.4f}' for v in rate)} in "
           f"[0.03, 0.08]; slope {slope:.2f} in [-0.85, -0.15]")


# Bound: two-sided normal quantile at family alpha = 0.001, Bonferroni over
# the two figures x k = 2, 3, 4.
MOMENT_Z_BOUND = 3.765


def moment_zscores(spec, per_trial):
    """z of the trials' mean m_k = mean(lambda^k) against the exact E m_k, k = 2, 3, 4."""
    moments = np.array([[np.mean(vals**k) for k in (2, 3, 4)] for vals in per_trial])
    se = moments.std(axis=0, ddof=1) / np.sqrt(len(moments))
    return (moments.mean(axis=0) - exact_moments(spec)) / se


def test_criterion_12_exact_moments(figure_trials):
    # the sampler, the assembly and the eigensolve against the finite-N
    # model's own moments, without K1's O(1/gamma) bias; no extra eigensolve.
    # Measured: fig 1a z = -0.16, -0.35, -0.36; fig 1b z = -1.80, -1.47, -1.67
    ok, details = True, []
    for figure in FIGURES:
        spec, per_trial, _ = figure_trials(figure)
        z = moment_zscores(spec, per_trial)
        ok = ok and bool(np.all(np.abs(z) <= MOMENT_Z_BOUND))
        details.append(f"fig {figure}: z = {', '.join(f'{v:+.2f}' for v in z)}")
    report(12, "exact moments", ok, f"{'; '.join(details)}; |z| <= {MOMENT_Z_BOUND}")


def test_criterion_12_detects_a_wrong_probability():
    # (12,) drawn at p = 0.55 but tested as p = 0.5, eigenvalues divided by
    # the model's gamma: z = +36.5, +31.6, +31.4 at k = 2, 3, 4 over 2000 trials
    model = LatticeSpec((12,), (0.5,))
    gamma = expected_degree(model)
    per_trial = map_trials(LatticeSpec((12,), (0.55,)), 1, 2000,
                           lambda a: eigenvalues(a) / gamma)
    assert np.all(np.abs(moment_zscores(model, per_trial)) > MOMENT_Z_BOUND)
