"""K1's support edges, from the subordination form of the scalar equation.

With omega = z + sigma^2 alpha, the scalar equation reads alpha = G(omega) =
sum_j w_j / (b_j - omega) and z = omega - sigma^2 G(omega): the free additive
convolution of B's atom measure with a semicircle of variance sigma^2 (Biane,
Indiana Univ. Math. J. 46, 1997).  On the real line dz/domega = -h(omega) with

    h(omega) = sigma^2 sum_j w_j / (b_j - omega)^2 - 1,

which is convex between atoms.  The support's edges are z at the real roots
of h: one below the lowest atom, one above the highest, and 0 or 2 in each gap
between atoms, around the gap's minimum of h.

Used by tests/test_canonical.py (the edges against solve_alpha's density).
"""

import numpy as np


def _bisect(f, lo, hi):
    """The sign change of f on each [lo, hi], f(lo) <= 0 < f(hi), to the last bit."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            return mid
        up = f(mid[live]) > 0
        idx = np.flatnonzero(live)
        hi[idx[up]] = mid[live][up]
        lo[idx[~up]] = mid[live][~up]


def support_edges(problem) -> np.ndarray:
    """K1's support as an (L, 2) array of lobes [lower edge, upper edge], ascending.

    problem is a CanonicalProblem with sigma^2 > 0.
    """
    b, w, sig2 = problem.atoms, problem.weights, problem.variance_sum
    if not sig2 > 0:
        raise ValueError("the support is a union of lobes only for sigma^2 > 0")

    def power_sum(omega, k):
        """sum_j w_j / (b_j - omega)^k at each omega."""
        return (w / (b - omega[:, None]) ** k).sum(axis=1)

    def h(omega):
        return sig2 * power_sum(omega, 2) - 1.0

    sigma = np.sqrt(sig2)
    # h <= sigma^2 / (b_1 - omega)^2 - 1 below b_1, so the root lies within sigma of it
    roots = [_bisect(h, [b[0] - sigma], [b[0]]),
             _bisect(lambda omega: -h(omega), [b[-1]], [b[-1] + sigma])]
    # h' = 2 sigma^2 sum w / (b - omega)^3 rises from -inf to +inf across a gap
    low = _bisect(lambda omega: power_sum(omega, 3), b[:-1], b[1:])
    dip = h(low) < 0
    left, right, low = b[:-1][dip], b[1:][dip], low[dip]
    roots += [_bisect(lambda omega: -h(omega), left, low), _bisect(h, low, right)]
    omega = np.sort(np.concatenate(roots))
    edges = omega - sig2 * power_sum(omega, 1)
    return edges.reshape(-1, 2)
