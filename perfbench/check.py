"""Checks of one CLI invocation's outputs against the captured references.

References live in `reference/<workload>.json` (stdout, CSV header and
hashes) and `reference/<workload>.npz` (CSV columns as float64), captured
at workloads.REFERENCE_SEED by `run.py --capture`.

- Deterministic columns (`x`, `*_det`) must lie within DET_TOL of the
  reference at any seed: they do not depend on it.
- Monte Carlo columns (`*_emp`) and the printed distances must be
  byte-equal at the reference seed. At another seed they must form a
  valid density and CDF within SEED_CDF_LIMIT of the reference CDF.
- The oracle's worst disagreement must be at most ORACLE_TOL.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DET_TOL = 1e-10
ORACLE_TOL = 1e-8
# Kolmogorov distance between the deterministic and empirical curves; the
# Figure 1a reference reads 0.00110865 and seeds 1-4 read 0.0010-0.0012.
KS_LIMIT = 0.005
# Largest |F_emp - F_emp(reference seed)| allowed at another seed.
SEED_CDF_LIMIT = 0.01

_ORACLE_LINE = re.compile(r"z=(\S+) \|solve_alpha - matrix_k1_oracle\| = (\S+)")


def load_reference(workload: str):
    meta = json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))
    with np.load(REFERENCE_DIR / f"{workload}.npz") as npz:
        arrays = {key: npz[key] for key in npz.files}
    return meta, arrays


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_csv(data: bytes) -> tuple[list[str], dict[str, list[str]]]:
    """Header and the text of each column."""
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, {name: list(col) for name, col in zip(header, zip(*rows))}


def column_hashes(columns: dict[str, list[str]]) -> dict[str, str]:
    return {name: sha256("\n".join(col).encode()) for name, col in columns.items()}


def is_monte_carlo(column: str) -> bool:
    return column.endswith("_emp")


def kolmogorov_printed(stdout: str) -> float | None:
    match = re.search(r"kolmogorov=(\S+)", stdout)
    return float(match.group(1)) if match else None


def check_invocation(inv, seed: int, exit_code: int, stdout: str,
                     csv: bytes | None, reference) -> list[str]:
    """Problems found with one invocation's outputs; empty when it is correct.

    `reference` is (meta, arrays) from load_reference, or None in smoke
    mode, where sizes differ from the reference and only the structural
    and oracle checks apply.
    """
    if exit_code != 0:
        return [f"{inv.name}: exit code {exit_code}"]
    problems = []
    columns = {}
    if inv.writes_csv:
        if csv is None:
            return [f"{inv.name}: no CSV written"]
        header, text = read_csv(csv)
        columns = {name: np.array(col, dtype=float) for name, col in text.items()}
        problems += _check_curves(inv.name, columns)
        if inv.args[0] == "compare":
            # at smoke size the curves are too coarse for the science limit
            limit = KS_LIMIT if reference is not None else float("inf")
            problems += _check_printed_ks(inv.name, stdout, columns, limit)
    if inv.args[0] == "oracle":
        problems += _check_oracle(inv.name, stdout, reference)
    if reference is None:
        return problems

    meta, arrays = reference
    ref = meta["outputs"][inv.name]
    at_reference_seed = seed == meta["seed"]
    if inv.writes_csv:
        if header != ref["header"]:
            return problems + [f"{inv.name}: CSV header {header} != {ref['header']}"]
        hashes = column_hashes(text)
        for name, values in columns.items():
            expected = arrays[f"{inv.name}.{name}"]
            if values.shape != expected.shape:
                problems.append(f"{inv.name}: column {name} has {values.size} rows, "
                                f"reference {expected.size}")
            elif not is_monte_carlo(name):
                err = float(np.abs(values - expected).max())
                if not err <= DET_TOL:
                    problems.append(f"{inv.name}: {name} differs from reference by {err:.3e}")
            elif at_reference_seed:
                if hashes[name] != ref["column_sha256"][name]:
                    problems.append(f"{inv.name}: {name} bytes differ from reference")
            elif name.startswith("F"):
                err = float(np.abs(values - expected).max())
                if not err <= SEED_CDF_LIMIT:
                    problems.append(f"{inv.name}: {name} is {err:.3e} from the reference-seed "
                                    f"CDF, limit {SEED_CDF_LIMIT}")
    if inv.args[0] != "oracle":
        expected_stdout = ref["stdout"]
        if inv.seeded:
            expected_stdout = expected_stdout.replace(f"seed {meta['seed']})", f"seed {seed})")
        if at_reference_seed or inv.args[0] != "compare":
            if stdout != expected_stdout:
                problems.append(f"{inv.name}: stdout {stdout!r} != reference {expected_stdout!r}")
    return problems


def _check_curves(name: str, columns: dict[str, np.ndarray]) -> list[str]:
    problems = []
    for col, values in columns.items():
        if not np.all(np.isfinite(values)):
            problems.append(f"{name}: {col} has non-finite values")
    for kind in ("det", "emp"):
        f, big_f = columns.get(f"f_{kind}"), columns.get(f"F_{kind}")
        if f is None or big_f is None:
            continue
        if f.min() < 0:
            problems.append(f"{name}: f_{kind} is negative")
        if big_f.min() < 0 or big_f.max() > 1 or np.any(np.diff(big_f) < 0):
            problems.append(f"{name}: F_{kind} is not a CDF")
    return problems


def _check_printed_ks(name: str, stdout: str, columns: dict[str, np.ndarray],
                      limit: float) -> list[str]:
    """The printed Kolmogorov distance must be the one the CSV curves give."""
    ks = float(np.abs(columns["F_det"] - columns["F_emp"]).max())
    printed = kolmogorov_printed(stdout)
    if printed is None or f"{ks:.6g}" != f"{printed:.6g}":
        return [f"{name}: printed kolmogorov {printed} != {ks:.6g} from the CSV"]
    if not ks <= limit:
        return [f"{name}: Kolmogorov distance {ks:.3e} exceeds {limit}"]
    return []


def _check_oracle(name: str, stdout: str, reference) -> list[str]:
    lines = _ORACLE_LINE.findall(stdout)
    if not lines or not stdout.rstrip().splitlines()[-1].startswith("OK: worst disagreement"):
        return [f"{name}: oracle output is missing its verdict"]
    worst = max(float(diff) for _, diff in lines)
    problems = []
    if not worst <= ORACLE_TOL:
        problems.append(f"{name}: oracle disagreement {worst:.3e} exceeds {ORACLE_TOL}")
    if reference is not None:
        ref_z = [z for z, _ in _ORACLE_LINE.findall(reference[0]["outputs"][name]["stdout"])]
        if [z for z, _ in lines] != ref_z:
            problems.append(f"{name}: oracle z grid differs from reference")
    return problems
