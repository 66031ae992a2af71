"""Bernoulli link percolation of lattice supergraphs.

Each supergraph link along dimension d is kept independently with
probability p_d.  Sampling is counter-based: the trial for an edge is the
Philox stream value at that edge's position in the canonical edge order,
so results depend only on (spec, seed), never on iteration schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    DENSE_NODE_LIMIT,
    LatticeSpec,
    check_size,
    expected_degree,
    node_count,
    supergraph_edges,
    variance_sum,
)


@dataclass(frozen=True)
class PercolationSample:
    """One sampled percolated graph: retained edges of the supergraph."""

    spec: LatticeSpec
    edges: np.ndarray  # (E, 2) int64, i < j, 1-based, lexicographically sorted


@dataclass(frozen=True)
class GirkoConditionReport:
    """Numeric values of the canonical-equation applicability conditions."""

    mean_row_sum: float
    variance_row_sum: float
    max_entry_bound: float
    min_scaled_variance: float


def sample(spec: LatticeSpec, seed: int) -> PercolationSample:
    """Draw one percolation: independent Bernoulli trial per supergraph link."""
    edges = supergraph_edges(spec)
    rng = np.random.Generator(np.random.Philox(np.uint64(seed)))
    u = rng.random(edges.shape[0])
    p = np.array(spec.probs)[edges[:, 2]]
    kept = edges[u < p, :2]
    return PercolationSample(spec=spec, edges=kept)


def adjacency(sample: PercolationSample) -> np.ndarray:
    """Dense 0/1 adjacency of the sampled graph."""
    n = node_count(sample.spec)
    check_size("dense adjacency", n, DENSE_NODE_LIMIT)
    a = np.zeros((n, n))
    i = sample.edges[:, 0] - 1
    j = sample.edges[:, 1] - 1
    a[i, j] = 1.0
    a[j, i] = 1.0
    return a


def girko_conditions(spec: LatticeSpec) -> GirkoConditionReport:
    """Closed-form condition values for the scaled adjacency model.

    The row sums of B all equal gamma/gamma = 1; the centered entry at a
    dimension-d link has variance p_d(1-p_d)/gamma^2 and magnitude at most
    1/gamma.  The scaled-variance infimum is reported over link positions
    only (off-link entries are deterministic).
    """
    gamma = expected_degree(spec)
    n = node_count(spec)
    mean_row_sum = sum(p * (m - 1) for p, m in zip(spec.probs, spec.dims)) / gamma
    min_scaled_variance = n * min(p * (1 - p) for p in spec.probs) / gamma**2
    return GirkoConditionReport(
        mean_row_sum=float(mean_row_sum),
        variance_row_sum=variance_sum(spec),
        max_entry_bound=1.0 / gamma,
        min_scaled_variance=float(min_scaled_variance),
    )
