"""Deterministic structure of D-dimensional lattice supergraphs.

Nodes are identified with D-tuples (mixed-radix digits); two nodes are
linked when their tuples differ in exactly one position.  The expected
scaled adjacency matrix of the percolated model has at most 2^D distinct
eigenvalues, computed here in closed form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Size caps, each enforced through check_size.
EIGENSOLVE_LIMIT = 4000       # each dense N x N matrix: adjacency, B, V, eigensolve, inverse
BRANCH_LIMIT = 2**23          # branches 2^D held at once, ~65 B each downstream
GRID_POINT_LIMIT = 2**22      # real grid points, ~120 B each through solve/simulate

# Node counts must stay addressable as signed 64-bit.
_NODE_COUNT_LIMIT = 2**63 - 1

# Listing rows drawn (percolation.sample) or written (_write_links) per
# step, so a trial's per-link temporaries (uniforms, probabilities, index
# and value gathers) are one chunk's, not the whole listing's.  On an
# 8-trial Figure 1a compare (2-vCPU Xeon), 2048 to 8192 gave the lowest
# peak RSS, 16384 and 65536 0.15 and 0.4 MB more; 8192 takes the fewest steps.
_ROW_CHUNK = 8192


class SizeLimitError(ValueError):
    """A requested computation exceeds its size limit (raised by check_size only)."""


def check_size(what: str, size: int, limit: int, name: str = "N") -> None:
    """Raise SizeLimitError if size exceeds limit."""
    if size > limit:
        raise SizeLimitError(f"{what} refused for {name}={size} > {limit}")


def is_integral(m) -> bool:
    """An integer, numpy's included, or an integral float such as 4.0; not a bool."""
    if isinstance(m, bool) or not isinstance(m, numbers.Real):
        return False
    return isinstance(m, numbers.Integral) or float(m).is_integer()


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice model parameters: per-dimension sizes and link probabilities."""

    dims: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        dims, probs = tuple(self.dims), tuple(self.probs)
        if not all(is_integral(m) for m in dims):
            raise ValueError(f"every dimension size must be an integer, got {dims}")
        if not all(isinstance(p, numbers.Real) and not isinstance(p, bool) for p in probs):
            raise ValueError(f"every link probability must be a real number, got {probs}")
        object.__setattr__(self, "dims", tuple(int(m) for m in dims))
        if len(self.dims) < 1:
            raise ValueError("lattice needs at least one dimension")
        if len(self.dims) != len(probs):
            raise ValueError(f"dims/probs length mismatch: {len(self.dims)} vs {len(probs)}")
        if any(m < 2 for m in self.dims):
            raise ValueError(f"every dimension size must be >= 2, got {self.dims}")
        # on the raw values: float() of an integer beyond the float range overflows
        if any(not (0 < p <= 1) for p in probs):
            raise ValueError(f"every link probability must be in (0, 1], got {probs}")
        object.__setattr__(self, "probs", tuple(float(p) for p in probs))
        n = 1
        for m in self.dims:
            n *= m
            if n > _NODE_COUNT_LIMIT:
                raise ValueError(
                    f"node count {'x'.join(map(str, self.dims))} overflows 64-bit range"
                )
        # every quotient by gamma or gamma^2 downstream is finite once gamma^2 > 0
        gamma = expected_degree(self)
        if not gamma**2 > 0:
            raise ValueError(
                f"expected degree gamma={gamma:.3g} is too small: gamma^2 underflows to 0"
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
    """All supergraph links as an (E, 3) int32 array of (i, j, dim), i < j, 1-based.

    N > 2^31 - 1 is refused before any allocation.  Rows are sorted by (i, j),
    and a row's position is its index into the Philox stream that decides
    whether the link is kept (see percolation.sample), so this order is part
    of the output contract: changing it changes every sample at a (spec, seed).

    Built without a sort from a per-node table of candidate partners, one
    column block per dimension d: with stride s_d = M_0 ... M_{d-1}, column
    k of block d is node i + k s_d, kept where i's d-th digit is below
    M_d - k.  Within a row the partners ascend, because a dimension-d
    partner lies below i + M_d s_d = i + s_{d+1}, the first dimension-(d+1)
    partner; so the kept cells, read in C order, are already in (i, j) order.
    """
    n = node_count(spec)
    check_size("int32 edge listing", n, np.iinfo(np.int32).max)
    width = sum(m - 1 for m in spec.dims)
    offset = np.empty(width, dtype=np.int32)
    dim = np.repeat(np.arange(spec.ndim, dtype=np.int32), [m - 1 for m in spec.dims])
    keep = np.empty((n, width), dtype=bool)
    nodes = np.arange(n, dtype=np.int64)
    col, stride = 0, 1
    for m in spec.dims:
        k = np.arange(1, m, dtype=np.int64)
        block = slice(col, col + m - 1)
        offset[block] = k * stride
        np.less((nodes // stride % m)[:, None], m - k, out=keep[:, block])
        col += m - 1
        stride *= m
    i, cell = np.nonzero(keep)
    del keep, nodes
    edges = np.empty((len(i), 3), dtype=np.int32)
    np.add(i, 1, out=edges[:, 0])
    np.add(edges[:, 0], offset[cell], out=edges[:, 1])
    edges[:, 2] = dim[cell]
    return edges


def _write_links(spec: LatticeSpec, edges: np.ndarray, per_dim) -> np.ndarray:
    """Dense N x N matrix holding per_dim[d] at both entries of every (i, j, d) row.

    The rows are written one chunk at a time; no two rows share an entry,
    so the matrix does not depend on the chunk size.
    """
    n = node_count(spec)
    weights = np.asarray(per_dim, dtype=float)
    a = np.zeros((n, n))
    for k in range(0, len(edges), _ROW_CHUNK):
        rows = edges[k : k + _ROW_CHUNK]
        i, j = rows[:, 0] - 1, rows[:, 1] - 1
        a[i, j] = a[j, i] = weights[rows[:, 2]]
    return a


def link_matrix(spec: LatticeSpec, per_dim) -> np.ndarray:
    """Dense N x N matrix holding per_dim[d] at both entries of every dimension-d link."""
    # before any edge is listed
    check_size("dense adjacency", node_count(spec), EIGENSOLVE_LIMIT)
    return _write_links(spec, supergraph_edges(spec), per_dim)


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
