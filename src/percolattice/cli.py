"""Command-line workflows: solve, simulate, compare, oracle, conditions.

Emits plot-ready CSV curves (no plotting here).  Exit codes: 0 success,
1 config error, 2 size limit, 3 solver failure, 4 oracle failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import partial

import numpy as np

from .canonical import (
    ORACLE_NODE_LIMIT,
    OracleError,
    SolverError,
    build_problem,
    matrix_k1_oracle,
    oracle_z_grid,
    solve_alpha,
)
from .espectrum import monte_carlo_spectrum, smoothed_density
from .inversion import auto_grid, cdf_from_density, default_epsilon, density_curve
from .lattice import LatticeSpec, SizeLimitError, expected_degree, node_count
from .metrics import compare as compare_curves
from .percolation import girko_conditions

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SIZE = 2
EXIT_SOLVER = 3
EXIT_ORACLE = 4


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    """An int or an integral float such as 1e2, but not a bool."""
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A float, or an int that a float can hold; not a bool."""
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float)


def _split(name: str, text: str, convert) -> tuple:
    try:
        return tuple(convert(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {name} {text!r}: {exc}") from exc


def _parse_dims(value) -> tuple[int, ...]:
    """A comma-separated string such as "30,50", or a JSON list of integers."""
    if isinstance(value, str):
        return _split("dims", value, int)
    if isinstance(value, list) and all(_is_int(v) for v in value):
        return tuple(int(v) for v in value)
    raise ConfigError(f"dims must be a list of integers, got {value!r}")


def _parse_probs(value) -> tuple[float, ...]:
    """A comma-separated string such as "0.7,0.5", or a JSON list of numbers."""
    if isinstance(value, str):
        return _split("probs", value, float)
    if isinstance(value, list) and all(_is_number(v) for v in value):
        return tuple(float(v) for v in value)
    raise ConfigError(f"probs must be a list of numbers, got {value!r}")


def _parse_int(name: str, value) -> int:
    if not _is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _parse_margin(value) -> float:
    if not (_is_number(value) and math.isfinite(value) and value >= 0):
        raise ConfigError(f"margin must be a finite number >= 0, got {value!r}")
    return float(value)


def _parse_epsilon(value):
    """'auto' (or null) or a positive finite width."""
    if value is None or value == "auto":
        return None
    try:
        eps = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad epsilon {value!r}") from exc
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError(f"epsilon must be positive and finite, got {value!r}")
    return eps


def _parse_normalized(value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"normalized must be true or false, got {value!r}")
    return value


def _parse_output_path(value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"output_path must be a string, got {value!r}")
    return value


def _parsed(default=MISSING, *, parse):
    return field(default=default, metadata={"parse": parse})


@dataclass
class RunConfig:
    """One run's settings; each field's parser checks a flag or a JSON value."""

    dims: tuple[int, ...] = _parsed(parse=_parse_dims)
    probs: tuple[float, ...] = _parsed(parse=_parse_probs)
    trials: int = _parsed(50, parse=partial(_parse_int, "trials"))
    seed: int = _parsed(0, parse=partial(_parse_int, "seed"))
    grid_points: int = _parsed(2000, parse=partial(_parse_int, "grid_points"))
    margin: float = _parsed(0.1, parse=_parse_margin)
    epsilon: float | None = _parsed(None, parse=_parse_epsilon)  # None: 2x grid spacing
    normalized: bool = _parsed(False, parse=_parse_normalized)
    output_path: str = _parsed("curves.csv", parse=_parse_output_path)

    def spec(self) -> LatticeSpec:
        try:
            return LatticeSpec(dims=self.dims, probs=self.probs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _parse_z_list(text: str) -> list[complex]:
    out = []
    for token in text.split(","):
        token = token.strip().replace("i", "j")
        try:
            out.append(complex(token))
        except ValueError as exc:
            raise ConfigError(f"bad complex value {token!r}") from exc
    return out


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON file with RunConfig keys; flags override")
    parser.add_argument("--dims", help="comma-separated lattice sizes, e.g. 30,50")
    parser.add_argument("--probs", help="comma-separated link probabilities, e.g. 0.7,0.5")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--grid-points", type=int, dest="grid_points")
    parser.add_argument("--margin", type=float)
    parser.add_argument("--epsilon", help="smoothing width or 'auto' (2x grid spacing)")
    parser.add_argument("--normalized", action="store_true", default=None)
    parser.add_argument("--output", dest="output_path")


def _load_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object, "
                              f"got {type(values).__name__}")
        unknown = set(values) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
        if f.name in values:
            values[f.name] = f.metadata["parse"](values[f.name])
    if "dims" not in values or "probs" not in values:
        raise ConfigError("dims and probs are required (flags or config file)")
    cfg = RunConfig(**values)
    if cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    if cfg.grid_points < 16:
        raise ConfigError("grid_points must be >= 16")
    cfg.spec()
    return cfg


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_csv(path: str, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(names) + "\n")
            for row in zip(*arrays):
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _grid_and_eps(cfg: RunConfig, problem):
    grid = auto_grid(problem, points=cfg.grid_points, margin=cfg.margin)
    eps = cfg.epsilon if cfg.epsilon is not None else default_epsilon(grid)
    return grid, eps


def _deterministic_curves(problem, grid, eps):
    dens = density_curve(lambda z: solve_alpha(problem, z).alpha_principal, grid, eps)
    return cdf_from_density(dens)


def _empirical_curves(cfg: RunConfig, spec, grid, eps):
    # the CDF is integrated from the smoothed density, with the same eps as
    # the deterministic curve, so the two sides are compared like for like
    scale = np.sqrt(expected_degree(spec)) if cfg.normalized else 1.0
    pooled = monte_carlo_spectrum(
        spec, cfg.seed, cfg.trials, normalized=cfg.normalized, scale=scale
    )
    return cdf_from_density(smoothed_density(pooled, grid, eps))


def cmd_solve(cfg: RunConfig) -> int:
    problem = build_problem(cfg.spec())
    grid, eps = _grid_and_eps(cfg, problem)
    curve = _deterministic_curves(problem, grid, eps)
    _write_csv(cfg.output_path, {"x": grid, "f_det": curve.density, "F_det": curve.cdf})
    print(f"wrote deterministic curves to {cfg.output_path} (epsilon={eps:.6g})")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    spec = cfg.spec()
    problem = build_problem(spec)
    grid, eps = _grid_and_eps(cfg, problem)
    curve = _empirical_curves(cfg, spec, grid, eps)
    _write_csv(cfg.output_path, {"x": grid, "f_emp": curve.density, "F_emp": curve.cdf})
    print(
        f"wrote empirical curves ({cfg.trials} trials, seed {cfg.seed}) "
        f"to {cfg.output_path} (epsilon={eps:.6g})"
    )
    return EXIT_OK


def cmd_compare(cfg: RunConfig) -> int:
    spec = cfg.spec()
    problem = build_problem(spec)
    grid, eps = _grid_and_eps(cfg, problem)
    if cfg.normalized:
        # Theorem-3 mode: sqrt(gamma)-scaled row-normalized vs scaled
        # adjacency, both empirical.  The reference (scaled) curve occupies
        # the det columns so the CSV schema stays fixed.
        scale = np.sqrt(expected_degree(spec))
        ref = monte_carlo_spectrum(spec, cfg.seed, cfg.trials, normalized=False,
                                   scale=scale)
        lo = min(ref.eigenvalues.min(), -scale) - 10 * eps
        hi = max(ref.eigenvalues.max(), scale) + 10 * eps
        grid = np.linspace(lo, hi, cfg.grid_points)
        eps = cfg.epsilon if cfg.epsilon is not None else default_epsilon(grid)
        det = cdf_from_density(smoothed_density(ref, grid, eps))
    else:
        det = _deterministic_curves(problem, grid, eps)
    emp = _empirical_curves(cfg, spec, grid, eps)
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


def cmd_oracle(cfg: RunConfig, z_list: list[complex] | None) -> int:
    spec = cfg.spec()
    if node_count(spec) > ORACLE_NODE_LIMIT:
        raise SizeLimitError(
            f"oracle requires N <= {ORACLE_NODE_LIMIT}, got {node_count(spec)}"
        )
    problem = build_problem(spec)
    zs = z_list if z_list else oracle_z_grid()
    alphas = solve_alpha(problem, np.array(zs)).alpha_principal
    worst = 0.0
    for z, s_scalar in zip(zs, alphas):
        s_matrix = matrix_k1_oracle(spec, z, tol=1e-12)
        diff = abs(s_scalar - s_matrix)
        worst = max(worst, diff)
        print(f"z={z:.6g} |solve_alpha - matrix_k1_oracle| = {diff:.3e}")
    if worst > 1e-8:
        print(f"FAIL: worst disagreement {worst:.3e} exceeds 1e-08")
        return EXIT_ORACLE
    print(f"OK: worst disagreement {worst:.3e}")
    return EXIT_OK


def cmd_conditions(cfg: RunConfig) -> int:
    report = girko_conditions(cfg.spec())
    print(f"mean_row_sum={report.mean_row_sum:.17g}")
    print(f"variance_row_sum={report.variance_row_sum:.17g}")
    print(f"max_entry_bound={report.max_entry_bound:.17g}")
    print(f"min_scaled_variance={report.min_scaled_variance:.17g}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="percolattice",
        description="Deterministic-equivalent spectra of percolated lattice graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("solve", "deterministic CDF/density curves via the canonical system"),
        ("simulate", "Monte Carlo empirical CDF/density curves"),
        ("compare", "both pipelines on a shared grid, plus distances"),
        ("oracle", "scalar solver vs matrix-level canonical iteration"),
        ("conditions", "applicability condition values"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        if name == "oracle":
            p.add_argument("--z", help="comma-separated complex points, e.g. 0.2+0.7i")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        if args.command == "oracle":
            zs = _parse_z_list(args.z) if args.z else None
            return cmd_oracle(cfg, zs)
        if args.command == "conditions":
            return cmd_conditions(cfg)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
