"""Deterministic structure of D-dimensional lattice supergraphs.

Nodes are identified with D-tuples (mixed-radix digits); two nodes are
linked when their tuples differ in exactly one position.  The expected
scaled adjacency matrix of the percolated model has at most 2^D distinct
eigenvalues, computed here in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Size caps, each enforced through check_size.
DENSE_NODE_LIMIT = 10_000     # dense adjacency; beyond it only the edge stream
EIGENSOLVE_LIMIT = 4000       # dense eigensolve
ORACLE_NODE_LIMIT = 600       # matrix-level canonical oracle
BRANCH_LIMIT = 2**23          # branches 2^D held at once, ~65 B each downstream
GRID_POINT_LIMIT = 2**22      # real grid points, ~120 B each through solve/simulate

# Node counts must stay addressable as signed 64-bit.
_NODE_COUNT_LIMIT = 2**63 - 1


class SizeLimitError(ValueError):
    """A requested computation exceeds its size limit (raised by check_size only)."""


def check_size(what: str, size: int, limit: int, name: str = "N") -> None:
    """Raise SizeLimitError if size exceeds limit."""
    if size > limit:
        raise SizeLimitError(f"{what} refused for {name}={size} > {limit}")


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice model parameters: per-dimension sizes and link probabilities."""

    dims: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(m) for m in self.dims))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.dims) < 1:
            raise ValueError("lattice needs at least one dimension")
        if len(self.dims) != len(self.probs):
            raise ValueError(
                f"dims/probs length mismatch: {len(self.dims)} vs {len(self.probs)}"
            )
        if any(m < 2 for m in self.dims):
            raise ValueError(f"every dimension size must be >= 2, got {self.dims}")
        if any(not (0.0 < p <= 1.0) for p in self.probs):
            raise ValueError(f"every link probability must be in (0, 1], got {self.probs}")
        n = 1
        for m in self.dims:
            n *= m
            if n > _NODE_COUNT_LIMIT:
                raise ValueError(
                    f"node count {'x'.join(map(str, self.dims))} overflows 64-bit range"
                )

    @property
    def ndim(self) -> int:
        return len(self.dims)


def node_count(spec: LatticeSpec) -> int:
    """Total number of lattice nodes, prod of the dimension sizes."""
    return math.prod(spec.dims)


def decode_index(spec: LatticeSpec, x: int) -> tuple[int, ...]:
    """Mixed-radix digits of node x (1-based), first dimension fastest."""
    n = node_count(spec)
    if not 1 <= x <= n:
        raise ValueError(f"node index {x} outside 1..{n}")
    rem = x - 1
    digits = []
    for m in spec.dims:
        rem, d = divmod(rem, m)
        digits.append(d)
    return tuple(digits)


def encode_index(spec: LatticeSpec, digits) -> int:
    """Node index (1-based) from mixed-radix digits; inverse of decode_index."""
    digits = tuple(digits)
    if len(digits) != spec.ndim:
        raise ValueError(f"expected {spec.ndim} digits, got {len(digits)}")
    x = 0
    stride = 1
    for d, m in zip(digits, spec.dims):
        if not 0 <= d <= m - 1:
            raise ValueError(f"digit {d} outside 0..{m - 1}")
        x += d * stride
        stride *= m
    return x + 1


def supergraph_edges(spec: LatticeSpec) -> np.ndarray:
    """All supergraph links as an (E, 3) int64 array of (i, j, dim), i < j, 1-based.

    Rows are sorted lexicographically by (i, j), and a row's position is
    its index into the Philox stream that decides whether the link is kept
    (see percolation.sample).  This order is therefore part of the output
    contract: changing it changes every sample at a given (spec, seed).

    Built per (dimension d, offset k): with stride s_d = M_0 ... M_{d-1},
    every node whose d-th digit is below M_d - k links to node i + k s_d.
    """
    n = node_count(spec)
    nodes = np.arange(1, n + 1, dtype=np.int64)
    rows_i, rows_j = [], []
    stride = 1
    for m in spec.dims:
        # C-order view as (higher digits, digit d, lower digits)
        by_digit = nodes.reshape(-1, m, stride)
        for k in range(1, m):
            i = by_digit[:, : m - k, :].ravel()
            rows_i.append(i)
            rows_j.append(i + k * stride)
        stride *= m
    i = np.concatenate(rows_i)
    j = np.concatenate(rows_j)
    # dimension d contributes N (M_d - 1) / 2 links, one block after another
    per_dim = [n * (m - 1) // 2 for m in spec.dims]
    dd = np.repeat(np.arange(spec.ndim, dtype=np.int64), per_dim)
    order = np.lexsort((j, i))
    return np.column_stack([i[order], j[order], dd[order]])


def link_matrix(spec: LatticeSpec, per_dim) -> np.ndarray:
    """Dense N x N matrix holding per_dim[d] at both entries of every dimension-d link."""
    n = node_count(spec)
    check_size("dense adjacency", n, DENSE_NODE_LIMIT)  # before any edge is listed
    edges = supergraph_edges(spec)
    i, j = edges[:, 0] - 1, edges[:, 1] - 1
    a = np.zeros((n, n))
    a[i, j] = a[j, i] = np.asarray(per_dim, dtype=float)[edges[:, 2]]
    return a


def lattice_adjacency(spec: LatticeSpec) -> np.ndarray:
    """Full 0/1 supergraph adjacency."""
    return link_matrix(spec, [1.0] * spec.ndim)


def expected_degree(spec: LatticeSpec) -> float:
    """Expected node degree gamma = sum_d p_d (M_d - 1)."""
    return float(sum(p * (m - 1) for p, m in zip(spec.probs, spec.dims)))


def variance_sum(spec: LatticeSpec) -> float:
    """Row sum of entry variances sigma^2 = sum_d p_d (1 - p_d) (M_d - 1) / gamma^2."""
    return float(
        sum(p * (1 - p) * (m - 1) for p, m in zip(spec.probs, spec.dims))
        / expected_degree(spec) ** 2
    )


def branch_table(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Unmerged branch values b_j and multiplicities m_j over j in {0,1}^D.

    b_j = (1/gamma) sum_d p_d * (M_d - 1 if j_d = 0 else -1),
    m_j = prod_d (1 if j_d = 0 else M_d - 1).
    Built by broadcasting over (2,)*D arrays, axis d holding j_d, adding the
    dimensions in order; the C-order ravel is itertools.product order.
    """
    d = spec.ndim
    check_size("branch table", 2**d, BRANCH_LIMIT, name="2^D")
    values = np.zeros((2,) * d)
    mults = np.ones((2,) * d, dtype=np.int64)
    for axis, (p, m) in enumerate(zip(spec.probs, spec.dims)):
        shape = (1,) * axis + (2,) + (1,) * (d - axis - 1)
        values += np.array([p * (m - 1), -p]).reshape(shape)
        mults *= np.array([1, m - 1], dtype=np.int64).reshape(shape)
    values /= expected_degree(spec)
    return values.ravel(), mults.ravel()


def expected_spectrum(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Exact spectrum of the expected scaled adjacency, equal branch values merged.

    Returns the distinct eigenvalues, ascending, and their int64 multiplicities.
    """
    values, mults = branch_table(spec)
    atoms, where = np.unique(values, return_inverse=True)
    # np.add.at keeps the int64 sums exact; np.bincount would sum in float64
    merged = np.zeros(atoms.size, dtype=np.int64)
    np.add.at(merged, where, mults)
    total = int(merged.sum())
    if total != node_count(spec):
        raise RuntimeError(f"multiplicities sum to {total}, not N={node_count(spec)}")
    return atoms, merged


def expected_matrix(spec: LatticeSpec) -> np.ndarray:
    """Expected scaled adjacency B = (1/gamma) sum_d p_d A_d, dense."""
    gamma = expected_degree(spec)
    return link_matrix(spec, [p / gamma for p in spec.probs])
