"""Bernoulli link percolation of lattice supergraphs.

Each supergraph link along dimension d is kept independently with
probability p_d.  Sampling is counter-based: the trial for an edge is the
Philox stream value at that edge's position in the canonical edge order,
so results depend only on (spec, seed), never on iteration schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import ROW_CHUNK, LatticeSpec, link_matrix, supergraph_edges


@dataclass(frozen=True)
class PercolationSample:
    """One sampled percolated graph: retained edges of the supergraph."""

    spec: LatticeSpec
    edges: np.ndarray  # kept rows (i, j, dim) of the listing drawn from, in its order


def sample(spec: LatticeSpec, seed: int, edges=None) -> PercolationSample:
    """Draw one percolation: independent Bernoulli trial per supergraph link.

    `edges` is supergraph_edges(spec), passed in when many samples of one
    spec are drawn; left out, the links are listed for this draw alone.
    The uniforms are drawn one chunk of listing rows at a time; successive
    `random` calls continue one Philox stream, so row k still meets the
    stream's k-th value and the kept rows do not depend on the chunk size.
    """
    edges = supergraph_edges(spec) if edges is None else edges
    rng = np.random.Generator(np.random.Philox(np.uint64(seed)))
    probs = np.asarray(spec.probs)
    keep = np.empty(len(edges), dtype=bool)
    for k in range(0, len(edges), ROW_CHUNK):
        rows = edges[k : k + ROW_CHUNK]
        np.less(rng.random(len(rows)), probs[rows[:, 2]], out=keep[k : k + len(rows)])
    # copied a chunk at a time: edges[keep] builds an int64 index of every kept row
    kept = np.empty((np.count_nonzero(keep), edges.shape[1]), dtype=edges.dtype)
    n = 0
    for k in range(0, len(edges), ROW_CHUNK):
        rows = edges[k : k + ROW_CHUNK][keep[k : k + ROW_CHUNK]]
        kept[n : n + len(rows)] = rows
        n += len(rows)
    return PercolationSample(spec=spec, edges=kept)


def adjacency(sample: PercolationSample) -> np.ndarray:
    """Dense 0/1 adjacency of the sampled graph."""
    return link_matrix(sample.spec, sample.edges, [1.0] * sample.spec.ndim)
