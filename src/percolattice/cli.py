"""Command-line workflows: solve, simulate, compare, oracle, conditions.

Emits plot-ready CSV curves (no plotting here).  Exit codes: 0 success,
1 config error, 2 size limit, 3 solver failure, 4 oracle failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .canonical import (
    OracleError,
    SolverError,
    build_problem,
    matrix_k1_oracle,
    oracle_z_grid,
    solve_alpha,
)
from .espectrum import check_trials, monte_carlo_spectrum, smoothed_density
from .espectrum import theorem3_spectra
from .inversion import auto_grid, cdf_from_density, check_epsilon, check_grid
from .inversion import default_epsilon, density_curve, span_grid
from .lattice import EIGENSOLVE_LIMIT, LatticeSpec, SizeLimitError, check_size, node_count
from .metrics import compare as compare_curves
from .percolation import girko_conditions

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SIZE = 2
EXIT_SOLVER = 3
EXIT_ORACLE = 4


def _split(name: str, text: str, convert) -> tuple:
    try:
        return tuple(convert(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad {name} {text!r}: {exc}") from exc


def _parse_epsilon(text: str) -> float | None:
    """'auto' or a width."""
    try:
        return None if text == "auto" else float(text)
    except ValueError as exc:
        raise ValueError(f"bad epsilon {text!r}") from exc


def _parse_z_list(text: str) -> tuple[complex, ...]:
    out = []
    for token in text.split(","):
        typed = token.strip()
        try:
            out.append(complex(typed.replace("i", "j")))
        except ValueError as exc:
            raise ValueError(f"bad complex value {typed!r}") from exc
    return tuple(out)


# The parsers of the string flags. They check types only; a range is checked
# where the setting is used, so a command does not reject a setting it ignores.
_PARSE = {
    "dims": lambda text: _split("dims", text, int),
    "probs": lambda text: _split("probs", text, float),
    "epsilon": _parse_epsilon,
    "z": _parse_z_list,
}


@dataclass
class RunConfig:
    """One run's settings, filled from the flags."""

    dims: tuple[int, ...]
    probs: tuple[float, ...]
    trials: int = 50
    seed: int = 0
    grid_points: int = 2000
    margin: float = 0.1
    epsilon: float | None = None  # None: 2x grid spacing
    normalized: bool = False
    output_path: str = "curves.csv"
    z: tuple[complex, ...] | None = None  # None: oracle_z_grid()

    def spec(self) -> LatticeSpec:
        return LatticeSpec(dims=self.dims, probs=self.probs)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        if message.endswith("expected one argument"):  # -1e-3 or -0.3+1i read as a flag
            flag = message.split()[1].rstrip(":")
            message += f" (write a value that starts with '-' as {flag}=VALUE)"
        raise ValueError(message)


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The run's settings; a flag that is not given keeps its default."""
    # parsed in field order, so the first bad flag is the one named
    given = {f.name: v for f in fields(RunConfig) if (v := getattr(args, f.name)) is not None}
    values = {name: _PARSE[name](v) if name in _PARSE else v for name, v in given.items()}
    if "dims" not in values or "probs" not in values:
        raise ValueError("dims and probs are required (--dims, --probs)")
    cfg = RunConfig(**values)
    cfg.spec()
    return cfg


def _cannot_write(path: str, exc: OSError) -> ValueError:
    return ValueError(f"cannot write {path}: {exc.strerror or exc}")


def _check_output(path: str) -> None:
    """Refuse, before any solve or draw, a path that _write_csv cannot open."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()  # truncates nothing; a file it creates is removed
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    if not existed:
        os.remove(path)


def _write_csv(path: str, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    table = np.column_stack([np.asarray(columns[n]) for n in names])
    # one % operation per block of rows, on Python floats: "%.17g" % v has
    # the bytes of f"{v:.17g}"
    line = ",".join(["%.17g"] * len(names)) + "\n"
    block = 4096
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(names) + "\n")
            for r in range(0, len(table), block):
                rows = table[r : r + block]
                fh.write((line * len(rows)) % tuple(rows.ravel().tolist()))
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


def _epsilon(cfg: RunConfig, grid) -> float:
    """The run's one smoothing width, --epsilon or twice the grid spacing, checked."""
    eps = cfg.epsilon if cfg.epsilon is not None else default_epsilon(grid)
    check_epsilon(eps)
    return eps


def _prepare(cfg: RunConfig):
    """The problem, its auto grid and the run's epsilon, with --output checked.

    The one pre-work of solve, simulate and plain compare: it refuses their
    grid, epsilon and output settings before any solve or draw.
    """
    problem = build_problem(cfg.spec())
    grid = auto_grid(problem, points=cfg.grid_points, margin=cfg.margin)
    eps = _epsilon(cfg, grid)
    _check_output(cfg.output_path)
    return problem, grid, eps


def _cdf(label: str, density):
    """cdf_from_density, naming the failing curve in a too-little-mass error."""
    # every CDF is integrated from a density smoothed with the run's one eps,
    # so the two sides are compared like for like
    try:
        return cdf_from_density(density)
    except ValueError as exc:
        raise ValueError(f"{label} curve: {exc}") from exc


def _deterministic_curves(problem, grid, eps):
    dens = density_curve(lambda z: solve_alpha(problem, z).alpha_principal, grid, eps)
    return _cdf("deterministic", dens)


def cmd_solve(cfg: RunConfig) -> int:
    problem, grid, eps = _prepare(cfg)
    curve = _deterministic_curves(problem, grid, eps)
    _write_csv(cfg.output_path, {"x": grid, "f_det": curve.density, "F_det": curve.cdf})
    print(f"wrote deterministic curves to {cfg.output_path} (epsilon={eps:.6g})")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.normalized:
        raise ValueError("normalized is a compare mode: its grid spans the "
                         "scaled-adjacency reference; use compare --normalized")
    problem, grid, eps = _prepare(cfg)
    pooled = monte_carlo_spectrum(problem.spec, cfg.seed, cfg.trials)
    curve = _cdf("empirical", smoothed_density(pooled, grid, eps))
    _write_csv(cfg.output_path, {"x": grid, "f_emp": curve.density, "F_emp": curve.cdf})
    print(
        f"wrote empirical curves ({cfg.trials} trials, seed {cfg.seed}) "
        f"to {cfg.output_path} (epsilon={eps:.6g})"
    )
    return EXIT_OK


def cmd_compare(cfg: RunConfig) -> int:
    if cfg.normalized:
        # Theorem-3 mode, both curves empirical, on a grid spanning both
        # spectra; the scaled-adjacency reference takes the det columns so
        # the CSV schema stays fixed
        check_grid(cfg.grid_points, cfg.margin)  # before sampling
        if cfg.epsilon is not None:
            check_epsilon(cfg.epsilon)
        _check_output(cfg.output_path)
        ref, pooled = theorem3_spectra(cfg.spec(), cfg.seed, cfg.trials)
        lo = min(ref.eigenvalues[0], pooled.eigenvalues[0])
        hi = max(ref.eigenvalues[-1], pooled.eigenvalues[-1])
        grid = span_grid(lo, hi, cfg.grid_points, cfg.margin)
        eps = _epsilon(cfg, grid)
        det = _cdf("reference (scaled adjacency)", smoothed_density(ref, grid, eps))
    else:
        problem, grid, eps = _prepare(cfg)
        check_trials(problem.spec, cfg.seed, cfg.trials)  # before the deterministic solve
        det = _deterministic_curves(problem, grid, eps)
        pooled = monte_carlo_spectrum(problem.spec, cfg.seed, cfg.trials)
    emp = _cdf("empirical", smoothed_density(pooled, grid, eps))
    report = compare_curves(det, emp)
    _write_csv(cfg.output_path, {
        "x": grid, "f_det": det.density, "F_det": det.cdf,
        "f_emp": emp.density, "F_emp": emp.cdf,
    })
    print(
        f"kolmogorov={report.kolmogorov:.6g} levy={report.levy:.6g} "
        f"grid_points={report.grid_points}"
    )
    return EXIT_OK


def cmd_oracle(cfg: RunConfig) -> int:
    spec = cfg.spec()
    check_size("oracle", node_count(spec), EIGENSOLVE_LIMIT)  # before the 2^D branches
    zs = np.array(cfg.z if cfg.z is not None else oracle_z_grid())
    alphas = solve_alpha(build_problem(spec), zs).alpha_principal
    diffs = np.abs(alphas - matrix_k1_oracle(spec, zs, alphas))
    for z, diff in zip(zs, diffs):
        print(f"z={z:.6g} |solve_alpha - matrix_k1_oracle| = {diff:.3e}")
    worst = diffs.max()
    if not worst <= 1e-8:  # a NaN fails too
        raise OracleError(f"worst disagreement {worst:.3e} exceeds 1e-08")
    print(f"OK: worst disagreement {worst:.3e}")
    return EXIT_OK


def cmd_conditions(cfg: RunConfig) -> int:
    report = girko_conditions(cfg.spec())
    for f in fields(report):
        print(f"{f.name}={getattr(report, f.name):.17g}")
    return EXIT_OK


_COMMANDS = {
    "solve": "deterministic CDF/density curves via the canonical system",
    "simulate": "Monte Carlo empirical CDF/density curves",
    "compare": "both pipelines on a shared grid, plus distances",
    "oracle": "scalar solver vs one step of the matrix-level canonical map",
    "conditions": "applicability condition values",
}


def build_parser() -> _Parser:
    """One parser: every command takes every flag, before or after its name."""
    parser = _Parser(
        prog="percolattice",
        description="Deterministic-equivalent spectra of percolated lattice graphs",
        epilog="commands:\n" + "".join(f"  {name:<12}{text}\n"
                                       for name, text in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="one of the commands below")
    parser.add_argument("--dims", help="comma-separated lattice sizes, e.g. 30,50")
    parser.add_argument("--probs", help="comma-separated link probabilities, e.g. 0.7,0.5")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--grid-points", type=int, dest="grid_points")
    parser.add_argument("--margin", type=float)
    parser.add_argument("--epsilon", help="smoothing width or 'auto' (2x grid spacing)")
    parser.add_argument("--normalized", action="store_true", default=None)
    parser.add_argument("--output", dest="output_path")
    parser.add_argument("--z", help="oracle's comma-separated complex points, e.g. "
                        "0.2+0.7i (default: its 25-point grid)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args)
        # looked up when called, so a rebound cmd_* global is the one that runs
        return globals()[f"cmd_{args.command}"](cfg)
    # SizeLimitError and LinAlgError are ValueErrors, so they are caught
    # before ValueError
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except np.linalg.LinAlgError as exc:
        print(f"solver failure: eigensolve: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
