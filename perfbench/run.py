"""percolattice benchmark: run the CLI on a named workload and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one command
    python3 perfbench/run.py --smoke                 # self-check at minimal size
    python3 perfbench/run.py --capture               # re-capture reference outputs

Run from the repository root; the program is imported from `src/`.

Untraced (`--trace 0`): each CLI invocation is its own process, launched
by launch.py as a user would run it. Sets of the workload's invocations
repeat until S seconds have passed (at least one set), and every set's
outputs are checked against the references. Set-up is then sampled again
by processes that stop where set-up ends, so every run has at least
SETUP_SAMPLES set-up samples. Reported, as medians over sets:

- wall_s: launch to exit, summed over the set's invocations;
- setup_s: launch to the CLI's dispatch into a numeric module, summed;
- peak_rss_mb: the largest maximum RSS of any invocation (max, not median).

Traced (`--trace 1`): one untraced set as above, then one traced
in-process run (traced.py) whose CSV bytes must equal the untraced ones,
and, for Monte Carlo workloads, the same eigensolves at one BLAS thread
(eig1t.py). Reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Full details (timing quartiles and
percentiles, sample counts, environment, check messages, tracing
overhead) go to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

INVOCATION_TIMEOUT_S = 150
SETUP_SAMPLES = 4


class BenchmarkError(RuntimeError):
    """The program cannot be run at all; no result is printed."""


@dataclass
class Invoked:
    """One untraced CLI process."""

    name: str
    wall_s: float
    setup_s: float | None
    main_s: float | None  # from entering `main` until it returns
    cpu_s: float  # user + system time
    rss_mb: float
    exit_code: int
    stdout: str
    csv: bytes | None


@dataclass
class Measurement:
    sets: list[list[Invoked]] = field(default_factory=list)
    setup_samples: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.sets)


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    return env


def spawn(cmd: list[str], cwd: Path, env: dict, stem: str):
    """Run cmd to completion; return (start, end, exit code, rusage).

    Output goes to `<stem>.stdout` / `<stem>.stderr` in cwd. os.wait4 gives
    the child's own maximum RSS; a timer kills it after INVOCATION_TIMEOUT_S.
    """
    with open(cwd / f"{stem}.stdout", "wb") as out, open(cwd / f"{stem}.stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage


def launch(inv, argv: list[str], cwd: Path, env: dict, mode: str = "full") -> Invoked:
    stamp = cwd / f"{inv.name}.stamp"
    stamp.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "launch.py"), str(stamp), mode, *argv]
    start, end, code, usage = spawn(cmd, cwd, env, inv.name)
    stamps = json.loads(stamp.read_text()) if stamp.exists() else {}
    setup = stamps["setup_end"] - start if "setup_end" in stamps else None
    main_s = stamps["main_end"] - stamps["main_start"] if "main_end" in stamps else None
    csv_path = cwd / f"{inv.name}.csv"
    csv = csv_path.read_bytes() if inv.writes_csv and mode == "full" and csv_path.exists() else None
    if csv is not None:
        csv_path.unlink()
    return Invoked(name=inv.name, wall_s=end - start, setup_s=setup, main_s=main_s,
                   cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024,
                   exit_code=code,
                   stdout=(cwd / f"{inv.name}.stdout").read_text(encoding="utf-8"), csv=csv)


def measure(workload, seed: int, seconds: float, workdir: Path, reference,
            smoke: bool, setup_samples: int) -> Measurement:
    """Untraced sets until `seconds` pass, then set-up probes."""
    from check import check_invocation, sha256
    from workloads import BLAS_THREADS, argv_for

    env = child_env(BLAS_THREADS)
    argvs = [argv_for(inv, seed, smoke) for inv in workload.invocations]
    # warm-up, not timed: the first process compiles the package's bytecode
    warm = launch(workload.invocations[0], argvs[0], workdir, env, mode="setup")
    if warm.exit_code != 0 or warm.setup_s is None:
        raise BenchmarkError(f"the CLI does not start: exit code {warm.exit_code}, "
                             f"stderr {(workdir / (warm.name + '.stderr')).read_text()!r}")

    m = Measurement()
    first_hashes = None
    start = time.monotonic()
    while not m.sets or time.monotonic() - start < seconds:
        done = []
        for inv, argv in zip(workload.invocations, argvs):
            run = launch(inv, argv, workdir, env)
            problems = check_invocation(inv, seed, run.exit_code, run.stdout, run.csv, reference)
            if run.setup_s is None and run.exit_code == 0:
                problems.append(f"{inv.name}: set-up end was never stamped")
            m.problems += problems
            m.failed += bool(problems)
            done.append(run)
        hashes = [sha256(r.csv) for r in done if r.csv is not None]
        if first_hashes is None:
            first_hashes = hashes
        elif hashes != first_hashes:
            m.problems.append("CSV bytes differ between repeated sets at the same seed")
            m.failed += 1
        m.sets.append(done)
    m.setup_samples = [_sum_setup(s) for s in m.sets]
    while len(m.setup_samples) < setup_samples:
        probes = [launch(inv, argv, workdir, env, mode="setup")
                  for inv, argv in zip(workload.invocations, argvs)]
        m.setup_samples.append(_sum_setup(probes))
    m.setup_samples = [s for s in m.setup_samples if s is not None]
    return m


def _sum_setup(invoked: list[Invoked]) -> float | None:
    if any(r.setup_s is None for r in invoked):
        return None
    return sum(r.setup_s for r in invoked)


def summarize(samples: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples) if samples else None,
           "samples": samples}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out["q1"], out["q3"] = q1, q3
    level = int(100 * (1 - 10 / n)) if n > 10 else None
    out["tail_percentile"] = level
    if level:
        out[f"p{level}"] = statistics.quantiles(samples, n=100)[level - 1]
    return out


def end_to_end(m: Measurement) -> tuple[dict, dict]:
    walls = [sum(r.wall_s for r in s) for s in m.sets]
    cpus = [sum(r.cpu_s for r in s) for s in m.sets]
    rss = max(r.rss_mb for s in m.sets for r in s)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(m.setup_samples), "s") if m.setup_samples else None,
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {"wall_s": summarize(walls), "setup_s": summarize(m.setup_samples),
              "cpu_s": summarize(cpus),
              "invocation_wall_s": {r.name: [s[k].wall_s for s in m.sets]
                                    for k, r in enumerate(m.sets[0])},
              "peak_rss_mb": {"n": m.attempted, "max": rss}}
    return metrics, detail


def traced_run(workload, seed: int, smoke: bool, workdir: Path, untraced: Measurement) -> dict:
    """Traced in-process run; returns per-layer metrics, checks and overhead."""
    from traced import layer_metrics, nesting_errors
    from workloads import BLAS_THREADS

    tdir = workdir / "traced"
    tdir.mkdir()
    spans_json = tdir / "trace.json"
    cmd = [sys.executable, str(HERE / "traced.py"), str(spans_json), workload.name, str(seed),
           "smoke" if smoke else "full"]
    _, _, code, _ = spawn(cmd, tdir, child_env(BLAS_THREADS), "traced")
    if code != 0:
        err = (tdir / "traced.stderr").read_text(encoding="utf-8")[-2000:]
        return {"problems": [f"traced run exited with {code}: {err}"],
                "failed": len(workload.invocations)}
    trace = json.loads(spans_json.read_text(encoding="utf-8"))

    problems = nesting_errors(trace["spans"])
    failed = 0
    last_set = {r.name: r for r in untraced.sets[-1]}
    for inv, exit_code in zip(workload.invocations, trace["exit_codes"]):
        bad = []
        if exit_code != 0:
            bad.append(f"traced {inv.name}: exit code {exit_code}")
        if inv.writes_csv and (tdir / f"{inv.name}.csv").read_bytes() != last_set[inv.name].csv:
            bad.append(f"traced {inv.name}: CSV bytes differ from the untraced run")
        if (tdir / f"{inv.name}.stdout").read_text(encoding="utf-8") != last_set[inv.name].stdout:
            bad.append(f"traced {inv.name}: stdout differs from the untraced run")
        problems += bad
        failed += bool(bad)

    eig_1t = 0.0
    if workload.monte_carlo is not None:
        dims, probs, trials = workload.monte_carlo
        cmd = [sys.executable, str(HERE / "eig1t.py"), dims, probs, str(seed),
               "2" if smoke else str(trials)]
        _, _, code, _ = spawn(cmd, tdir, child_env(1), "eig1t")
        if code != 0:
            problems.append(f"single-thread eigensolve run exited with {code}")
        else:
            eig_1t = float((tdir / "eig1t.stdout").read_text())

    metrics = layer_metrics(trace, eig_1t)
    traced_wall = sum(end - start for name, start, end, _, _ in trace["spans"]
                      if name == "cli.main")
    untraced_wall = statistics.median(sum(r.main_s or 0.0 for r in s) for s in untraced.sets)
    accounted = sum(v for k, (v, unit) in metrics.items()
                    if unit == "s" and k != "espectrum.eigensolve_1t_s")
    return {
        "metrics": metrics,
        "problems": problems,
        "failed": failed,
        "attempted": len(trace["exit_codes"]),
        "span_names": sorted({s[0] for s in trace["spans"]}),
        "span_count": len(trace["spans"]),
        "kept_edges": trace["kept_edges"],
        "traced_wall_s": traced_wall,
        "untraced_main_s": untraced_wall,
        "overhead_s": traced_wall - untraced_wall,
        "self_times_sum_s": accounted,
    }


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    from workloads import BLAS_THREADS

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_model": cpu,
        "cores": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    from check import kolmogorov_printed, load_reference
    from workloads import HELD_OUT_SEED, REFERENCE_SEED, WORKLOADS, argv_for

    workload = WORKLOADS[name]
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        reference = None if smoke else load_reference(name)
        # A traced run needs one untraced set, for its CSV bytes and the
        # overhead; smoke still exercises the set-up probes.
        if trace:
            m = measure(workload, seed, 0, workdir, reference, smoke, setup_samples=1)
        else:
            m = measure(workload, seed, seconds, workdir, reference, smoke,
                        setup_samples=2 if smoke else SETUP_SAMPLES)
        metrics, detail = end_to_end(m)
        ks = [kolmogorov_printed(r.stdout) for s in m.sets for r in s if r.stdout]
        ks = [v for v in ks if v is not None]
        result = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "smoke": smoke, "reference_seed": REFERENCE_SEED, "held_out_seed": HELD_OUT_SEED,
            "environment": environment(),
            "sets": len(m.sets),
            "argv": [argv_for(inv, seed, smoke) for inv in workload.invocations],
            "end_to_end": detail,
            "ks_det_emp": ks[0] if ks else None,
            "problems": m.problems,
            "attempted": m.attempted,
            "failed": m.failed,
            "metrics": metrics,
        }
        if trace:
            t = traced_run(workload, seed, smoke, workdir, m)
            result["problems"] += t["problems"]
            result["failed"] += t["failed"]
            result["attempted"] += t.get("attempted", 0)
            result["traced"] = {k: v for k, v in t.items() if k not in ("metrics", "problems")}
            result["metrics"] = t.get("metrics", {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def report(result: dict) -> None:
    """Human-readable summary of one workload."""
    e2e = result["end_to_end"]
    frac = result["failed"] / result["attempted"]
    ks = result["ks_det_emp"]
    print(f"== {result['workload']} seed={result['seed']} sets={result['sets']} "
          f"trace={result['trace']}")
    for key, unit in (("wall_s", "s"), ("setup_s", "s")):
        d = e2e[key]
        if d["median"] is None:
            print(f"  {key} = missing")
            continue
        print(f"  {key} = {d['median']:.4f} {unit}  (median of n={d['n']}; "
              f"q1..q3 {d.get('q1', d['median']):.4f}..{d.get('q3', d['median']):.4f}; "
              f"tail percentile: {d['tail_percentile'] or 'none, n <= 10'})")
    print(f"  cpu_s = {e2e['cpu_s']['median']:.4f} s  (user + system, median over sets)")
    print(f"  peak_rss_mb = {e2e['peak_rss_mb']['max']:.1f} MB")
    print(f"  failed_ops_frac = {frac:.4g} ratio ({result['failed']}/{result['attempted']})")
    print(f"  ks_det_emp = {ks if ks is not None else 'n/a (no compare on this workload)'}")
    if "traced" in result:
        t = result["traced"]
        if "traced_wall_s" in t:
            print(f"  main(): traced {t['traced_wall_s']:.4f} s, untraced {t['untraced_main_s']:.4f} s, "
                  f"overhead {t['overhead_s']:+.4f} s; self times sum "
                  f"{t['self_times_sum_s']:.4f} s")
            kept = t["kept_edges"]
            if kept["kept"]:
                print(f"  kept edges per dimension {kept['kept']}, "
                      f"p_d x links x trials {kept['expected']}")
        for key, (value, unit) in sorted(result["metrics"].items()):
            print(f"  {key} = {value:.6g} {unit}")
    env = result["environment"]
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def final_line(results: list[dict], trace: bool, prefix: bool) -> dict:
    declared = declared_metrics(trace)
    metrics = {}
    problems = []
    for r in results:
        emitted = {k: v for k, v in r["metrics"].items() if v is not None}
        if {k: u for k, (_, u) in emitted.items()} != declared:
            problems.append(f"{r['workload']}: emitted metrics differ from BENCHMARK.json")
        for key, (value, unit) in emitted.items():
            metrics[f"{r['workload']}/{key}" if prefix else key] = {"value": value, "unit": unit}
    for p in problems:
        print(f"PROBLEM: {p}")
    return {
        "correct": not problems and all(not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def smoke() -> int:
    """Every workload at minimal size, untraced and traced; assert the contract."""
    from workloads import WORKLOADS

    absent = {"det-sweep": ("lattice.", "percolation.", "espectrum."),
              "ring-simulate": ("canonical.solve_alpha",)}
    failures = []
    for name in WORKLOADS:
        for trace in (False, True):
            r = run_workload(name, seed=7, seconds=0, trace=trace, smoke=True)
            report(r)
            if not final_line([r], trace, prefix=False)["correct"]:
                failures.append(f"{name} trace={int(trace)}: not correct, see PROBLEM lines")
            if trace:
                names = r["traced"].get("span_names", [])
                failures += [f"{name}: unexpected span {s}" for s in names
                             if s.startswith(absent.get(name, ()))]
                if "cli.main" not in names:
                    failures.append(f"{name}: no cli.main span")
    print("smoke: " + ("PASS" if not failures else "FAIL\n  " + "\n  ".join(failures)))
    return 0 if not failures else 1


def capture() -> int:
    """Run each workload once at the reference seed and store its outputs."""
    import numpy as np

    from check import REFERENCE_DIR, column_hashes, read_csv, sha256
    from workloads import BLAS_THREADS, REFERENCE_SEED, WORKLOADS, argv_for

    REFERENCE_DIR.mkdir(exist_ok=True)
    env = child_env(BLAS_THREADS)
    for name, workload in WORKLOADS.items():
        workdir = OUT / f"capture-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        meta = {"seed": REFERENCE_SEED, "blas_threads": BLAS_THREADS,
                "environment": environment(), "outputs": {}}
        arrays = {}
        for inv in workload.invocations:
            argv = argv_for(inv, REFERENCE_SEED)
            run = launch(inv, argv, workdir, env)
            if run.exit_code != 0:
                raise BenchmarkError(f"{inv.name} exited with {run.exit_code}")
            entry = {"argv": argv, "stdout": run.stdout}
            if run.csv is not None:
                header, text = read_csv(run.csv)
                entry.update(header=header, csv_sha256=sha256(run.csv),
                             column_sha256=column_hashes(text))
                for col, values in text.items():
                    arrays[f"{inv.name}.{col}"] = np.array(values, dtype=float)
            meta["outputs"][inv.name] = entry
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(meta, indent=1) + "\n",
                                                    encoding="utf-8")
        np.savez_compressed(REFERENCE_DIR / f"{name}.npz", **arrays)
        shutil.rmtree(workdir)
        print(f"captured {name}")
    return 0


def main(argv=None) -> int:
    from workloads import REFERENCE_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--capture", action="store_true")
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so spawn() kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "percolattice" / "cli.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"no percolattice sources under {SRC} or no {BENCHMARK_JSON.name}; run from "
              "the repository root", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.capture:
            return capture()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds is None:
            args.seconds = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))["run_seconds"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            r = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(r)
            results.append(r)
            path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(r, indent=1) + "\n", encoding="utf-8")
            print(f"  details: {path.relative_to(ROOT)}")
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final_line(results, bool(args.trace), prefix=len(names) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
