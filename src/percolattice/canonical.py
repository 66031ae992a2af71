"""Deterministic-equivalent Stieltjes transform for percolated lattices.

The 2^D rational system for the resolvent coefficients reduces to one
scalar self-consistency equation for the principal coefficient,

    alpha = (1/N) sum_j m_j / (b_j - z - sigma^2 * alpha),

whose unique solution with Im z * Im alpha > 0 is the transform of the
deterministic equivalent distribution.  The reduction is not trusted on
its own: matrix_k1_oracle takes the caller's alpha through one step of the
full N x N canonical map, built from the edge listing with no closed form.
girko_conditions gives the values of the equation's applicability conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .espectrum import eigenvalues
from .lattice import (
    EIGENSOLVE_LIMIT,
    LatticeSpec,
    branch_table,
    check_size,
    expected_degree,
    expected_matrix,
    expected_spectrum,
    node_count,
    supergraph_edges,
    variance_sum,
)


class SolverError(RuntimeError):
    """Scalar fixed-point solver failed to converge."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class OracleError(RuntimeError):
    """The matrix-level canonical map left the Kronecker solution form."""


@dataclass(frozen=True)
class CanonicalProblem:
    """The scalar equation's data: sigma^2 and the merged branch atoms."""

    variance_sum: float
    atoms: np.ndarray              # distinct b_j, ascending (expected_spectrum)
    weights: np.ndarray            # their merged multiplicities / N


@dataclass(frozen=True)
class CanonicalSolution:
    alpha_principal: complex | np.ndarray
    residual: float
    iterations: int


def build_problem(spec: LatticeSpec) -> CanonicalProblem:
    atoms, mults = expected_spectrum(spec)
    return CanonicalProblem(
        variance_sum=variance_sum(spec),
        atoms=atoms,
        weights=mults / node_count(spec),
    )


def girko_conditions(spec: LatticeSpec) -> dict[str, float]:
    """Closed-form condition values for the scaled adjacency model, by name.

    The row sums of B all equal gamma/gamma = 1; the centered entry at a
    dimension-d link has variance p_d(1-p_d)/gamma^2 and magnitude at most
    1/gamma.  The scaled-variance infimum is reported over link positions
    only (off-link entries are deterministic).  No branch table is built.
    The keys come in the order `conditions` prints them.
    """
    gamma = expected_degree(spec)
    min_variance = min(p * (1 - p) for p in spec.probs)
    return {
        "mean_row_sum": gamma / gamma,
        "variance_row_sum": variance_sum(spec),
        "max_entry_bound": 1.0 / gamma,
        "min_scaled_variance": node_count(spec) * min_variance / gamma**2,
    }


# Grid points solved together. Beyond alpha and |r|, a grid costs one byte
# per point and the indices of its ladder points; every other temporary is a
# length-block vector, so memory stays flat however long the grid is.
_BLOCK = 2048

# Continuation in |Im z|: start here, divide by _LEVEL_RATIO per level.
# 64, not 4: the averaged-map fallback converges from any start, so long
# steps are safe; on the 80-spec cold-start sweep of the tests they cut the
# worst sweeps 48 -> 26 and halve the g evaluations.
_START_IM = 2.0
_LEVEL_RATIO = 64.0

# Residual that ends an intermediate continuation level, and the last one.
_LEVEL_TOL = 1e-6
_TOL = 1e-12

# Sweeps per level.
_MAX_SWEEPS = 200

# Grid continuation: the ladder solves every _STRIDE-th point and the last;
# a point between two of them on its own Im z starts from their line if they
# lie at most _NEAR * |Im z| apart (16 eps on the CLI's grids, eps = 2 spacings).
# Farther apart the line is a poor start: warm-started without this rule, a
# 500-point grid at Im z = 1e-8 took 102 sweeps against the ladder's 42.
_STRIDE = 32
_NEAR = 32.0

# Matrix oracle: the largest relative miss of B's solution form and V's row sums.
_FORM_TOL = 1e-11


def _g(atoms, weights, sig2, z, alpha):
    """g(alpha) = sum_k w_k / (b_k - z - sig2*alpha) and g'(alpha)."""
    shift = z + sig2 * alpha
    g = np.zeros_like(shift)
    gp = np.zeros_like(shift)
    # two buffers reused for every atom; t = (w*q)*q rounds as w * q * q does
    q = np.empty_like(shift)
    t = np.empty_like(shift)
    for b, w in zip(atoms, weights):
        np.subtract(b, shift, out=q)
        np.divide(1.0, q, out=q)
        np.multiply(w, q, out=t)
        g += t
        np.multiply(t, q, out=t)
        gp += t
    return g, sig2 * gp


def _noise(atoms, weights, omega):
    """eps_mach * sum_k w_k (|b_k| + |omega|) / |b_k - omega|^2: g's rounding noise."""
    with np.errstate(all="ignore"):
        return np.finfo(float).eps * sum(
            w * (abs(b) + np.abs(omega)) / np.abs(b - omega) ** 2
            for b, w in zip(atoms, weights))


def _converged(atoms, weights, sig2, z, alpha, residual):
    """Per point: |r| <= _TOL, or else |r| within g's rounding noise (NaN fails both)."""
    ok = residual <= _TOL
    miss = np.flatnonzero(~ok)
    ok[miss] = residual[miss] <= _noise(atoms, weights, z[miss] + sig2 * alpha[miss])
    return ok


def _solve_level(atoms, weights, sig2, z, alpha, tol):
    """Sweeps at fixed z until |alpha - g(alpha)| <= tol at every point.

    Each sweep, every unconverged point takes the full Newton step if it
    stays on the point's half-plane and shrinks |r|, and one step of the
    averaged map otherwise. g and g' are evaluated once at the new iterate
    and reused by the next sweep. A point whose Newton step is rejected
    while |r| is within g's rounding noise has stalled: it keeps its alpha
    and sweeps no more. Returns alpha, |residual| and the sweep count.
    """
    s = np.sign(z.imag)
    g, gp = _g(atoms, weights, sig2, z, alpha)
    r = alpha - g
    live = np.ones(z.shape, dtype=bool)
    sweeps = 0
    while sweeps < _MAX_SWEEPS:
        act = np.flatnonzero(live & (np.abs(r) > tol))
        if act.size == 0:
            break
        sweeps += 1
        za, aa, ra = z[act], alpha[act], r[act]
        new = aa - ra / (1.0 - gp[act])
        ga, gpa = np.empty_like(new), np.empty_like(new)
        ok = s[act] * new.imag > 0
        ga[ok], gpa[ok] = _g(atoms, weights, sig2, za[ok], new[ok])
        ok[ok] = np.abs(new[ok] - ga[ok]) < np.abs(ra[ok])
        # a rejected step at |r| within g's rounding noise: the point has stalled
        stall = ~ok
        stall[stall] = np.abs(ra[stall]) <= _noise(atoms, weights, za[stall] + sig2 * aa[stall])
        # averaged map (alpha + g(alpha)) / 2 = alpha - r / 2: it maps the
        # half-plane into itself, so it converges from any start
        back = ~(ok | stall)
        new[back] = aa[back] - 0.5 * ra[back]
        ga[back], gpa[back] = _g(atoms, weights, sig2, za[back], new[back])
        if stall.any():
            live[act[stall]] = False
            move = ~stall
            act, new, ga, gpa = act[move], new[move], ga[move], gpa[move]
        alpha[act], r[act], gp[act] = new, new - ga, gpa
    return alpha, np.abs(r), sweeps


def _solve_block(atoms, weights, sig2, z):
    """Continuation in |Im z| from _START_IM down to each point's own |Im z|."""
    y = np.abs(z.imag)
    alpha = 1j * np.sign(z.imag)
    residual = np.empty(z.shape)
    sweeps = 0
    im = _START_IM
    todo = np.ones(z.shape, dtype=bool)
    while todo.any():
        idx = np.flatnonzero(todo)
        final = y[idx] >= im
        zk = np.where(final, z[idx], z.real[idx] + 1j * np.sign(z.imag[idx]) * im)
        level_tol = np.where(final, _TOL, _LEVEL_TOL)
        alpha[idx], residual[idx], n = _solve_level(
            atoms, weights, sig2, zk, alpha[idx], level_tol)
        sweeps += n
        todo[idx[final]] = False
        im /= _LEVEL_RATIO
    return alpha, residual, sweeps


def _ladder_pass(atoms, weights, sig2, z, points, alpha, residual):
    """The ladder on z[points], _BLOCK points at a time, written into alpha and
    residual. Returns the most sweeps a block needed."""
    sweeps = 0
    for lo in range(0, points.size, _BLOCK):
        p = points[lo:lo + _BLOCK]
        alpha[p], residual[p], n = _solve_block(atoms, weights, sig2, z[p])
        sweeps = max(sweeps, n)
    return sweeps


def _warm_points(z, lo):
    """The warm points of z[lo:lo + _BLOCK] and their left and right ladder points."""
    i = np.arange(lo, min(lo + _BLOCK, z.size))
    left = i - i % _STRIDE
    right = np.minimum(left + _STRIDE, z.size - 1)
    x, y = z.real, z.imag
    warm = ((left < i) & (i < right) & (y[i] == y[left]) & (y[i] == y[right])
            & (np.abs(x[right] - x[left]) <= _NEAR * np.abs(y[i])))
    return i[warm], left[warm], right[warm]


def _warm_block(atoms, weights, sig2, z, alpha, lo):
    """The last level alone for the warm points of z[lo:lo + _BLOCK], each started
    on the line between its ladder points' alpha. Returns their indices, alpha,
    |residual| and the sweep count."""
    i, left, right = _warm_points(z, lo)
    x = z.real
    dx = x[right] - x[left]
    t = np.divide(x[i] - x[left], dx, out=np.zeros(dx.shape), where=dx != 0)
    np.clip(t, 0.0, 1.0, out=t)
    # a convex combination of two points of the half-plane lies on it
    start = alpha[left] + t * (alpha[right] - alpha[left])
    return (i, *_solve_level(atoms, weights, sig2, z[i], start, _TOL))


def _solve_grid(atoms, weights, sig2, z):
    """The ladder on every point that is not warm, then the warm points block by
    block, then the ladder again on each warm point that meets neither
    acceptance bound. Returns alpha, |residual| and the most sweeps of a block."""
    alpha = np.empty_like(z)
    residual = np.empty(z.shape)
    blocks = range(0, z.size, _BLOCK)
    cold = np.ones(z.shape, dtype=bool)
    for lo in blocks:
        cold[_warm_points(z, lo)[0]] = False
    sweeps = _ladder_pass(atoms, weights, sig2, z, np.flatnonzero(cold), alpha, residual)
    redo = []
    for lo in blocks:
        i, a, r, n = _warm_block(atoms, weights, sig2, z, alpha, lo)
        alpha[i], residual[i] = a, r
        sweeps = max(sweeps, n)
        redo.append(i[~_converged(atoms, weights, sig2, z[i], a, r)])
    redo = np.concatenate(redo)
    if redo.size:
        sweeps = max(sweeps, _ladder_pass(atoms, weights, sig2, z, redo, alpha, residual))
    return alpha, residual, sweeps


def _checked_z(caller: str, z) -> np.ndarray:
    """z as a complex array, refused unless a scalar or 1-D, off the real axis and finite."""
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise ValueError(f"{caller} takes a scalar or a 1-D array of z")
    if np.any(zs.imag == 0):
        raise ValueError(f"{caller} requires Im z != 0")
    if not np.all(np.isfinite(zs)):
        raise ValueError(f"{caller} requires finite z")
    return zs


def solve_alpha(problem: CanonicalProblem, z) -> CanonicalSolution:
    """Solve the scalar self-consistency equation at z (Im z != 0 everywhere).

    z is a complex scalar or a 1-D array of them, solved in two passes, each
    in blocks of _BLOCK points, on the distinct branch values (equal b_j
    merged). The ladder pass takes every 32nd point, the last point and every
    point the warm pass cannot take. Each starts at i*sign(Im z) with
    |Im z| = 2 and is continued down to its own |Im z|, dividing by 64 per
    level; the solution at one level starts the next. The warm pass takes
    every other point whose two ladder neighbours share its exact Im z and
    lie at most 32 |Im z| apart in Re z, as on the CLI's grids: it starts
    from their linear interpolation at its Re z, a convex combination that
    stays on the half-plane, and runs the last level only. At each level
    every unconverged point takes the Newton step
    alpha <- alpha - r/(1 - g'(alpha)) on the residual r = alpha - g(alpha)
    if the iterate stays on its half-plane (Im z * Im alpha > 0) and |r|
    shrinks. Otherwise the point takes one step of the averaged map
    alpha <- (alpha + g(alpha))/2, which maps the half-plane strictly into
    itself and so, by the Earle-Hamilton theorem, converges from any start
    (Helton, Rashidi Far and Speicher, "Operator-valued semicircular
    elements: solving a quadratic matrix equation with positivity
    constraints", IMRN 2007). Intermediate levels stop at |r| <= 1e-6, the
    last at |r| <= 1e-12. A point that ends above 1e-12 is accepted if |r| is
    within the rounding noise of g's terms where b_j - omega cancels,
    omega = z + sigma^2 alpha:
    |r| <= eps_mach * sum_j w_j (|b_j| + |omega|) / |b_j - omega|^2.
    A point whose Newton step is rejected within that noise stops sweeping.
    A warm point that meets neither bound is solved again by the ladder.

    A warm point's alpha depends on its ladder neighbours, so it can differ
    from the point's scalar solve, but only within the solver's accuracy:
    both meet the same residual rule, so each lies within |r| / (1 - sqrt(kappa))
    of the one root, kappa = sigma^2 sum_j w_j / |b_j - omega|^2 (Ajanki,
    Erdos and Kruger, Mem. AMS 261, 2019). An input with no warm point, such
    as oracle_z_grid() or a grid whose ladder points differ in Im z or lie
    farther apart, takes the ladder only and gets its bits. A scalar z can
    still differ from the same z inside an array by rounding, 1.8e-14 at most
    on Fig 1a's 500-point grid at Im z = 1e-8: numpy rounds _g's in-place
    complex multiply into a one-element array without the vector loop's FMA.

    Returns alpha_principal with z's shape (a complex for scalar z), the
    worst |r| over the points and, as iterations, the largest number of
    vectorized sweeps any block of either pass needed. Raises SolverError
    naming the worst point if any point meets neither bound, and ValueError
    if any z is real or not finite.
    """
    scalar = np.ndim(z) == 0
    zs = np.atleast_1d(_checked_z("solve_alpha", z))
    atoms, weights = problem.atoms, problem.weights
    sig2 = problem.variance_sum

    if sig2 == 0.0:
        alpha, _ = _g(atoms, weights, 0.0, zs, np.zeros_like(zs))
        residual = np.zeros(zs.shape)
        sweeps = 1
    else:
        alpha, residual, sweeps = _solve_grid(atoms, weights, sig2, zs)
        failed = np.flatnonzero(~_converged(atoms, weights, sig2, zs, alpha, residual))
        if failed.size:
            worst = int(failed[np.argmax(residual[failed])])
            raise SolverError(
                f"no convergence at z={complex(zs[worst])} after {sweeps} sweeps "
                f"(residual {residual[worst]:.3e} > tol {_TOL:.1e})",
                residual=float(residual[worst]), iterations=sweeps,
            )
    return CanonicalSolution(
        alpha_principal=complex(alpha[0]) if scalar else alpha,
        residual=float(residual.max(initial=0.0)),
        iterations=max(sweeps, 1),
    )


def recover_all_alphas(spec: LatticeSpec, z) -> dict:
    """Solve the full 2^D linear system for every resolvent coefficient at z.

    z is one scalar (ValueError for an array of z or a z solve_alpha refuses), at
    which the scalar equation is solved first; returns the 2^D coefficients keyed
    by the index tuple i. The system matrix is the Kronecker product over
    dimensions of the 2x2 factors [[M_d - 1, 1], [-1, 1]] (rows j_d, columns i_d),
    each with determinant M_d >= 2, so it is solved one axis at a time in
    O(D 2^D) with the factor inverses [[1, -1], [1, M_d - 1]] / M_d.
    """
    if np.ndim(z) != 0:
        raise ValueError(f"recover_all_alphas takes one scalar z, not z of shape {np.shape(z)}")
    problem = build_problem(spec)
    alpha = solve_alpha(problem, z).alpha_principal
    d = spec.ndim
    values, _ = branch_table(spec)
    rhs = 1.0 / (values - complex(z) - problem.variance_sum * alpha)
    coeff = rhs.reshape((2,) * d)
    for axis, m in enumerate(spec.dims):
        inverse = np.array([[1.0, -1.0], [1.0, m - 1.0]]) / m
        coeff = np.moveaxis(np.tensordot(inverse, coeff, axes=(1, axis)), 0, axis)
    principal = coeff[(1,) * d]
    if abs(principal - alpha) > 1e-10 * max(1.0, abs(alpha)):
        raise ValueError(
            f"recovered principal coefficient {principal} disagrees with "
            f"solver value {alpha}"
        )
    return {i: complex(a) for i, a in zip(np.ndindex(coeff.shape), coeff.ravel())}


def solution_form_residual(spec: LatticeSpec, c: np.ndarray) -> float:
    """Relative Frobenius distance of C from the Kronecker solution-form span.

    The span is the tensor product over dimensions of the planes span{I, J - I}
    of M_d x M_d matrices. I and J - I are Frobenius-orthogonal, so a block's
    orthogonal projection onto its plane is (diagonal mean) I + (off-diagonal
    mean) (J - I). These per-axis projections commute, and their product,
    applied one dimension at a time, is the least-squares projection onto
    the span: O(D N^2) work in one N x N buffer.
    """
    rev = spec.dims[::-1]  # node index varies the first dimension fastest
    proj = np.array(c, dtype=np.result_type(c, float)).reshape(rev + rev)
    for axis, m in enumerate(rev):
        # the (row, column) axis pair of one dimension, moved last: a view
        block = np.moveaxis(proj, (axis, spec.ndim + axis), (-2, -1))
        diag = np.arange(m)
        on = block[..., diag, diag].sum(axis=-1)
        off = (block.sum(axis=(-2, -1)) - on) / (m * (m - 1))
        block[...] = off[..., None, None]
        block[..., diag, diag] += (on / m - off)[..., None]
    proj -= np.reshape(c, proj.shape)
    return float(np.linalg.norm(proj) / max(np.linalg.norm(c), 1e-300))


def matrix_k1_oracle(spec: LatticeSpec, z, alpha):
    """tr C / N for C = F(alpha I), one step of the matrix-level canonical map.

    K1 is C = F(C) = (B - zI - diag(V diag C))^{-1}, B and V from one edge
    listing. F reads only diag C, so at solve_alpha's alpha, C = F(alpha I)
    solves K1 exactly when diag C = alpha. V's rows sum to sigma^2, so
    C = (B - wI)^{-1}, w = z + sigma^2 alpha, and tr C = sum 1/(lambda_i(B) - w).
    The Kronecker solution form is an algebra closed under inversion, so C
    has a constant diagonal when B lies in it. Im C = Im(w) C C^* is definite,
    and K1 has one such solution (Helton, Rashidi Far and Speicher, IMRN 2007).
    z is a finite scalar or 1-D array off the real axis, checked before the
    listing; alpha is one value or one per z, taken as it is. V's row sums and
    B's form are checked (else OracleError) and B eigensolved once per call.
    """
    n = node_count(spec)
    check_size("oracle", n, EIGENSOLVE_LIMIT)
    zs = _checked_z("matrix_k1_oracle", z)
    sig2 = variance_sum(spec)
    alphas = np.broadcast_to(alpha, zs.shape)
    edges = supergraph_edges(spec)
    gamma = expected_degree(spec)
    var = (np.array([p * (1 - p) for p in spec.probs]) / gamma**2)[edges[:, 2]]  # per link
    gap = np.abs(sum(np.bincount(end - 1, var, n) for end in edges[:, :2].T) - sig2).max()
    del var
    if gap > _FORM_TOL * sig2:
        raise OracleError(f"V's row sums miss sigma^2 by {gap:.3e} > {_FORM_TOL:.1e} sigma^2")
    b = expected_matrix(spec, edges)
    del edges  # before the form check's N x N copy of B
    residual = solution_form_residual(spec, b)
    if residual > _FORM_TOL:
        raise OracleError(f"expected matrix B leaves the Kronecker solution form: "
                          f"relative residual {residual:.3e} > {_FORM_TOL:.1e}")
    lam = eigenvalues(b)  # B is exactly symmetric and read no more: solved in place
    with np.errstate(invalid="ignore"):  # a non-finite alpha gives nan, not a warning
        shifts = zs + sig2 * alphas
        traces = np.array([np.mean(1.0 / (lam - w)) for w in shifts.ravel()])
    return complex(traces[0]) if zs.ndim == 0 else traces


def oracle_z_grid() -> list[complex]:
    """The standard 25-point validation grid: 5 real x 5 imaginary parts."""
    return [
        complex(x, y)
        for x in np.linspace(-1.0, 1.0, 5)
        for y in (0.05, 0.2, 0.5, 1.0, 2.0)
    ]
