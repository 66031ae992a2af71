"""Single-thread eigensolve baseline for a workload's Monte Carlo pool.

Usage: OPENBLAS_NUM_THREADS=1 python3 eig1t.py DIMS PROBS SEED TRIALS

Rebuilds the adjacency matrix of every trial exactly as
`monte_carlo_spectrum` does and prints the summed time of
`percolattice.espectrum.eigenvalues` on them. Sampling and assembly are
not timed. Run it with one BLAS thread to get the plain single-threaded
time of the same eigensolves the workload makes.
"""

import sys
import time

from percolattice.espectrum import eigenvalues, trial_seed
from percolattice.lattice import LatticeSpec
from percolattice.percolation import adjacency, sample


def main() -> int:
    dims, probs, seed, trials = sys.argv[1:5]
    spec = LatticeSpec(dims=tuple(int(v) for v in dims.split(",")),
                       probs=tuple(float(v) for v in probs.split(",")))
    total = 0.0
    for t in range(int(trials)):
        matrix = adjacency(sample(spec, trial_seed(int(seed), t)))
        start = time.perf_counter()
        eigenvalues(matrix)
        total += time.perf_counter() - start
    print(repr(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
