"""Walk through the deterministic side of the model.

Builds a small 2-D lattice, shows the mixed-radix indexing and the node
degrees of its supergraph, and checks the closed-form spectrum of the
expected scaled adjacency against a dense eigensolve.
"""

import numpy as np

from percolattice import (
    LatticeSpec,
    decode_index,
    expected_degree,
    expected_matrix,
    expected_spectrum,
    node_count,
)
from percolattice.lattice import supergraph_edges

spec = LatticeSpec(dims=(4, 5), probs=(0.7, 0.5))
n = node_count(spec)
print(f"lattice {spec.dims}, N = {n}, expected degree = {expected_degree(spec):.3f}")

# node 7 sits at digits (beta_1, beta_2); neighbors differ in one digit
print("node 7 digits:", decode_index(spec, 7))

# one listing of the supergraph's links (i, j, dim) feeds the degrees and B
edges = supergraph_edges(spec)
degrees = sum(np.bincount(end - 1, minlength=n) for end in edges[:, :2].T)
print("supergraph degrees (all equal sum of M_d - 1):", set(degrees.tolist()))

# closed-form branch spectrum vs a dense eigensolve of E[W]
values, mults = expected_spectrum(spec)
print("branch eigenvalues (value, multiplicity):")
for value, mult in zip(values, mults):
    print(f"  {value:+.6f}  x{mult}")

dense = np.linalg.eigvalsh(expected_matrix(spec, edges))
closed = np.sort(np.repeat(values, mults))
print("max |closed form - eigensolve| =", np.abs(dense - closed).max())
