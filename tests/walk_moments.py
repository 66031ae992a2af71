"""Exact expected moments of the percolated lattice model, by enumerating closed walks.

Shared by tests/test_canonical.py (K1 against the exact moments) and
tests/test_acceptance.py (Monte Carlo against them, criterion 12).
"""

import numpy as np

from percolattice.lattice import LatticeSpec, expected_degree, node_count


def _strides(spec: LatticeSpec) -> list[int]:
    """Place values of the node digits, first digit fastest (0-based nodes)."""
    return [int(np.prod(spec.dims[:d])) for d in range(spec.ndim)]


def _neighbours(spec: LatticeSpec, nodes: np.ndarray):
    """Every supergraph neighbour of each node, (W, degree), and the dimension of each."""
    cols, dims = [], []
    for d, (m, stride) in enumerate(zip(spec.dims, _strides(spec))):
        digit = nodes // stride % m
        for shift in range(1, m):
            cols.append(nodes + ((digit + shift) % m - digit) * stride)
            dims.append(d)
    return np.stack(cols, axis=-1), np.array(dims)


def _distinct_link_weight(spec: LatticeSpec, nodes: np.ndarray, dims: np.ndarray) -> float:
    """Sum over walks (rows of nodes) of the product of p_d over each walk's distinct links."""
    n = node_count(spec)
    u, v = nodes[:, :-1], nodes[:, 1:]
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    p = np.array(spec.probs)[dims]
    for j in range(1, keys.shape[1]):
        # A is 0/1, so a link walked again costs its p only once
        p[(keys[:, :j] == keys[:, j : j + 1]).any(axis=1), j] = 1.0
    return float(p.prod(axis=1).sum())


def exact_moments(spec: LatticeSpec, kmax: int = 4) -> list[float]:
    """E[(1/N) tr W^k] for k = 2 .. kmax, W = A / gamma, by enumerating closed walks.

    Permuting each dimension's digits maps the model onto itself and any
    node onto any other, so the mean diagonal entry of W^k is node 0's: the
    walks of length k - 1 from node 0, each closed by its link back to 0
    when it ends one digit away, weighted by _distinct_link_weight / gamma^k.
    """
    gamma = expected_degree(spec)
    nodes = np.zeros((1, 1), dtype=np.int64)
    dims = np.zeros((1, 0), dtype=np.int64)
    moments = []
    for k in range(2, kmax + 1):
        nbrs, nbr_dims = _neighbours(spec, nodes[:, -1])
        walks, degree = nbrs.shape
        nodes = np.column_stack([np.repeat(nodes, degree, axis=0), nbrs.ravel()])
        dims = np.column_stack([np.repeat(dims, degree, axis=0), np.tile(nbr_dims, walks)])
        last = nodes[:, -1:]
        digits = last // np.array(_strides(spec)) % np.array(spec.dims)
        home = np.count_nonzero(digits, axis=1) == 1
        closed = np.column_stack([nodes[home], np.zeros(home.sum(), dtype=np.int64)])
        closed_dims = np.column_stack([dims[home], np.argmax(digits[home] != 0, axis=1)])
        moments.append(_distinct_link_weight(spec, closed, closed_dims) / gamma**k)
    return moments
