"""Traced in-process run of one workload, and the per-layer metrics it yields.

Usage: python3 traced.py OUT_JSON WORKLOAD SEED (full|smoke)

Run from the directory the CSVs should land in, with `src` on PYTHONPATH.
It wraps the public functions of each layer where their callers look
them up, calls `percolattice.cli.main(argv)` once per invocation of the
workload, and writes the spans and the counters taken from return values
to OUT_JSON. Nothing inside the package is changed.

A span is [name, start, end, parent index, invocation index], times from
`time.perf_counter()`; the parent of an invocation's `cli.main` span is -1.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import redirect_stdout

# (module, attribute looked up by the caller, span name). `sample` is
# looked up in percolattice.percolation because monte_carlo_spectrum
# imports it there at call time.
WRAPPED = (
    ("percolattice.percolation", "supergraph_edges", "lattice.supergraph_edges"),
    ("percolattice.percolation", "sample", "percolation.sample"),
    ("percolattice.espectrum", "adjacency", "percolation.adjacency"),
    ("percolattice.espectrum", "eigenvalues", "espectrum.eigenvalues"),
    ("percolattice.espectrum", "pool", "espectrum.pool"),
    ("percolattice.cli", "monte_carlo_spectrum", "espectrum.monte_carlo_spectrum"),
    ("percolattice.cli", "smoothed_density", "espectrum.smoothed_density"),
    ("percolattice.cli", "build_problem", "canonical.build_problem"),
    ("percolattice.cli", "solve_alpha", "canonical.solve_alpha"),
    ("percolattice.cli", "matrix_k1_oracle", "canonical.matrix_k1_oracle"),
    ("percolattice.cli", "auto_grid", "inversion.auto_grid"),
    ("percolattice.cli", "density_curve", "inversion.density_curve"),
    ("percolattice.cli", "cdf_from_density", "inversion.cdf_from_density"),
    ("percolattice.cli", "compare_curves", "metrics.compare"),
)

# Per-layer time metric -> the span whose summed self time it is.
SELF_TIME_METRICS = {
    "lattice.edges_s": "lattice.supergraph_edges",
    "percolation.sample_self_s": "percolation.sample",
    "percolation.adjacency_s": "percolation.adjacency",
    "espectrum.eigensolve_s": "espectrum.eigenvalues",
    "espectrum.pool_s": "espectrum.pool",
    "espectrum.mc_self_s": "espectrum.monte_carlo_spectrum",
    "espectrum.smooth_s": "espectrum.smoothed_density",
    "canonical.build_s": "canonical.build_problem",
    "canonical.solve_s": "canonical.solve_alpha",
    "canonical.oracle_s": "canonical.matrix_k1_oracle",
    "inversion.grid_s": "inversion.auto_grid",
    "inversion.density_self_s": "inversion.density_curve",
    "inversion.cdf_s": "inversion.cdf_from_density",
    "metrics.compare_s": "metrics.compare",
    "cli.self_s": "cli.main",
}


class Tracer:
    """Spans kept in memory, plus counters read from return values.

    A wrapped function `f` has its counters read by `_after_f`, if defined.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.invocation = 0
        self._open: list[int] = []
        self.edge_rows = 0
        self.adjacency_bytes = 0
        self.eigensolve_sizes: list[int] = []
        self.smooth_pairs = 0
        self.iterations: list[int] = []
        self.solve_failures = 0
        self.samples: list = []

    def call(self, name, fn, args, kwargs):
        parent = self._open[-1] if self._open else -1
        span = [name, 0.0, 0.0, parent, self.invocation]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        observe = getattr(self, "_after_" + name.split(".")[1], None)

        def traced(*args, **kwargs):
            try:
                result = self.call(name, fn, args, kwargs)
            except Exception as exc:
                self._failed(name, exc)
                raise
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _failed(self, name, exc):
        from percolattice.canonical import SolverError

        if name == "canonical.solve_alpha" and isinstance(exc, SolverError):
            self.solve_failures += 1

    def _after_supergraph_edges(self, args, edges):
        self.edge_rows += int(edges.shape[0])

    def _after_sample(self, args, sample):
        self.samples.append(sample)

    def _after_adjacency(self, args, matrix):
        self.adjacency_bytes += int(matrix.nbytes)

    def _after_eigenvalues(self, args, values):
        self.eigensolve_sizes.append(int(values.shape[0]))

    def _after_smoothed_density(self, args, curve):
        spectrum, grid = args[0], args[1]
        self.smooth_pairs += len(grid) * len(spectrum.eigenvalues)

    def _after_solve_alpha(self, args, solution):
        self.iterations.append(int(solution.iterations))

    def kept_edges(self) -> dict:
        """Kept links per dimension over all samples, beside p_d x links x samples."""
        import numpy as np

        if not self.samples:
            return {"kept": [], "expected": []}
        spec = self.samples[0].spec
        kept = np.zeros(spec.ndim, dtype=np.int64)
        stride = 1
        for d, m in enumerate(spec.dims):
            for s in self.samples:
                i = (s.edges[:, 0] - 1) // stride % m
                j = (s.edges[:, 1] - 1) // stride % m
                kept[d] += int(np.count_nonzero(i != j))
            stride *= m
        n = math.prod(spec.dims)
        expected = [len(self.samples) * p * n * (m - 1) / 2
                    for m, p in zip(spec.dims, spec.probs)]
        return {"kept": kept.tolist(), "expected": expected}


def install(tracer: Tracer) -> None:
    import importlib

    for module_name, attr, span_name in WRAPPED:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(span_name, getattr(module, attr)))


def run(workload_name: str, seed: int, smoke: bool) -> dict:
    from percolattice import cli
    from workloads import WORKLOADS, argv_for

    tracer = Tracer()
    install(tracer)
    exit_codes = []
    for k, inv in enumerate(WORKLOADS[workload_name].invocations):
        tracer.invocation = k
        with open(f"{inv.name}.stdout", "w", encoding="utf-8") as out, redirect_stdout(out):
            exit_codes.append(tracer.call("cli.main", cli.main,
                                          (argv_for(inv, seed, smoke),), {}))
    return {
        "spans": tracer.spans,
        "exit_codes": exit_codes,
        "edge_rows": tracer.edge_rows,
        "adjacency_bytes": tracer.adjacency_bytes,
        "eigensolve_sizes": tracer.eigensolve_sizes,
        "smooth_pairs": tracer.smooth_pairs,
        "iterations": tracer.iterations,
        "solve_failures": tracer.solve_failures,
        "kept_edges": tracer.kept_edges(),
    }


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def nesting_errors(spans) -> list[str]:
    """Spans not inside their parent's interval, or overlapping a sibling."""
    errors = []
    last_end: dict[int, float] = {}
    for k, (name, start, end, parent, inv) in enumerate(spans):
        if end < start:
            errors.append(f"span {k} {name} ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if not (p[1] <= start and end <= p[2]) or p[4] != inv:
                errors.append(f"span {k} {name} lies outside its parent {p[0]}")
        if start < last_end.get(parent, -math.inf):
            errors.append(f"span {k} {name} overlaps an earlier sibling")
        last_end[parent] = end
    return errors


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list (the layer is idle)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)])


def layer_metrics(trace: dict, eigensolve_1t_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one traced run."""
    spans = trace["spans"]
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    counts: dict[str, int] = {}
    for (name, *_), own in zip(spans, selfs):
        by_name[name] = by_name.get(name, 0.0) + own
        counts[name] = counts.get(name, 0) + 1
    metrics = {key: (by_name.get(span, 0.0), "s") for key, span in SELF_TIME_METRICS.items()}
    sizes = trace["eigensolve_sizes"]
    iters = trace["iterations"]
    kept = trace["kept_edges"]
    metrics.update({
        "lattice.edges_calls": (counts.get("lattice.supergraph_edges", 0), "count"),
        "lattice.edges_rows": (trace["edge_rows"], "count"),
        "percolation.adjacency_bytes": (trace["adjacency_bytes"], "B"),
        "percolation.kept_edges": (sum(kept["kept"]), "count"),
        "espectrum.eigensolve_calls": (len(sizes), "count"),
        "espectrum.eigensolve_gflop": (sum(4 * n**3 / 3 for n in sizes) / 1e9, "GFLOP"),
        "espectrum.eigensolve_1t_s": (eigensolve_1t_s, "s"),
        "espectrum.smooth_pairs": (trace["smooth_pairs"], "count"),
        "canonical.solve_calls": (len(iters), "count"),
        "canonical.iters_p50": (_percentile(iters, 50), "iter"),
        "canonical.iters_p99": (_percentile(iters, 99), "iter"),
        "canonical.iters_max": (max(iters, default=0), "iter"),
        "canonical.solve_failures": (trace["solve_failures"], "count"),
    })
    return metrics


def main() -> int:
    out_json, workload_name, seed, mode = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    result = run(workload_name, seed, smoke=(mode == "smoke"))
    with open(out_json, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
