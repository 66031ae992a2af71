import json
import os
import subprocess
import sys

import numpy as np
import pytest

from percolattice import cli, lattice, percolation
from percolattice.canonical import SolverError
from percolattice.cli import main


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [list(map(float, ln.split(","))) for ln in fh]
    data = np.array(rows)
    return header, {name: data[:, k] for k, name in enumerate(header)}


class TestConfigHandling:
    def test_missing_dims_is_config_error(self, capsys):
        assert main(["solve", "--probs", "0.5"]) == 1

    def test_bad_probability_is_config_error(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["solve", "--dims", "3,4", "--probs", "0.5,1.5",
                     "--output", str(out)]) == 1

    def test_json_config_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "o.csv"
        cfg.write_text(json.dumps({
            "dims": [4, 5], "probs": [1.0, 1.0], "grid_points": 512,
            "output_path": "ignored.csv",
        }))
        assert main(["solve", "--config", str(cfg), "--grid-points", "1024",
                     "--output", str(out)]) == 0
        header, cols = read_csv(out)
        assert header == ["x", "f_det", "F_det"]
        assert len(cols["x"]) == 1024

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": [3, 3], "probs": [1, 1], "bogus": 1}))
        assert main(["solve", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_bad_epsilon_flag_is_config_error(self, tmp_path, capsys, command, eps):
        # NaN used to hang `solve` in the continuation loop and, like inf,
        # made `simulate` write NaN densities with exit 0
        out = tmp_path / "o.csv"
        assert main([command, "--dims", "4,5", "--probs", "0.7,0.5", "--trials", "1",
                     "--epsilon", eps, "--output", str(out)]) == 1
        assert "epsilon must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["-1", "0", "NaN", "Infinity"])
    def test_bad_epsilon_in_config_is_config_error(self, tmp_path, capsys, eps):
        # a numeric JSON value is checked like the flag (json reads NaN/Infinity)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"dims": [4, 5], "probs": [0.7, 0.5], "epsilon": {eps}}}')
        out = tmp_path / "o.csv"
        assert main(["solve", "--config", str(cfg), "--output", str(out)]) == 1
        assert "epsilon must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "trials", 2.5),
        ("simulate", "trials", True),
        ("simulate", "seed", "7"),
        ("solve", "grid_points", "100"),
        ("solve", "grid_points", 100.5),
        ("solve", "margin", "wide"),
        ("solve", "margin", False),
        ("solve", "margin", -5),
        pytest.param("solve", "margin", 10**400, id="solve-margin-1e400"),
        ("compare", "normalized", "no"),
        ("compare", "normalized", 0),
        ("solve", "dims", 5),
        pytest.param("solve", "dims", [2.5, 3], id="solve-dims-float-entry"),
        pytest.param("solve", "dims", ["3", "4"], id="solve-dims-string-entries"),
        ("solve", "probs", 0.5),
        pytest.param("solve", "probs", [True, 0.5], id="solve-probs-bool-entry"),
        pytest.param("solve", "probs", ["0.7", 0.5], id="solve-probs-string-entry"),
        ("solve", "output_path", 7),
        ("solve", "output_path", 1),
        ("solve", "output_path", None),
    ])
    def test_bad_config_value_is_config_error(self, tmp_path, monkeypatch, capsys,
                                              command, key, value):
        # each used to end in a traceback, or to run with a silently changed
        # value: normalized "no" as true, dims [2.5, 3] as (2, 3), probs
        # [true, 0.5] with p = 1, output_path 1 as a CSV written to stdout
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": [3, 4], "probs": [0.7, 0.5], key: value}))
        # --output would override the config's output_path
        output = [] if key == "output_path" else ["--output", "o.csv"]
        assert main([command, "--config", str(cfg)] + output) == 1
        captured = capsys.readouterr()
        assert f"config error: {key} must be" in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_config_must_be_json_object(self, tmp_path, capsys):
        # a top-level array used to end in a TypeError traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([["dims", [3, 4]], ["probs", [0.7, 0.5]]]))
        out = tmp_path / "o.csv"
        assert main(["solve", "--config", str(cfg), "--output", str(out)]) == 1
        assert "must hold a JSON object, got list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("margin", ["nan", "inf", "-5"])
    def test_bad_margin_flag_is_config_error(self, tmp_path, capsys, margin):
        # each used to be blamed on epsilon; inf also raised a numpy warning
        out = tmp_path / "o.csv"
        assert main(["solve", "--dims", "4,5", "--probs", "0.7,0.5",
                     "--margin", margin, "--output", str(out)]) == 1
        assert "config error: margin must be" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_grid_span_names_the_margin(self, tmp_path, capsys):
        # a finite margin whose grid span overflows used to be blamed on
        # epsilon, after a numpy overflow warning (an error under pytest)
        out = tmp_path / "o.csv"
        assert main(["solve", "--dims", "3,4", "--probs", "0.5,0.5",
                     "--margin", "1e308", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("config error: grid span overflows at margin 1e+308; "
                                "choose a smaller margin\n")
        assert not out.exists()

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        # a directory used to end in an IsADirectoryError traceback
        assert main(["solve", "--dims", "3,4", "--probs", "0.7,0.5", "--grid-points", "100",
                     "--output", str(tmp_path)]) == 1
        assert f"config error: cannot write {tmp_path}:" in capsys.readouterr().err

    def test_integral_float_config_values_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"dims": [3, 4], "probs": [0.7, 0.5], "trials": 1.0, '
                       '"seed": 3e0, "grid_points": 1e2, "margin": 1}')
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        assert len(read_csv(out)[1]["x"]) == 100


class TestCsvWriter:
    SPECIAL = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 1 / 3, 42.0]

    @staticmethod
    def _per_value(path, columns):
        """The per-value loop _write_csv replaced, kept as a reference."""
        names = list(columns)
        arrays = [np.asarray(columns[n]) for n in names]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(names) + "\n")
            for row in zip(*arrays):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    @pytest.mark.parametrize("ncols", [1, 3, 5])
    def test_bytes_match_per_value_format(self, tmp_path, ncols):
        rng = np.random.default_rng(ncols)
        values = np.array(self.SPECIAL + (-np.array(self.SPECIAL)).tolist())
        columns = {
            f"c{k}": np.concatenate([np.roll(values, k), rng.normal(size=50) * 10.0**k])
            for k in range(ncols)
        }
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        cli._write_csv(str(got), columns)
        self._per_value(str(ref), columns)
        assert got.read_bytes() == ref.read_bytes()


class TestSolve:
    def test_variance_zero_steps_at_atoms(self, tmp_path):
        out = tmp_path / "det.csv"
        assert main(["solve", "--dims", "4,5", "--probs", "1,1",
                     "--grid-points", "2000", "--output", str(out)]) == 0
        _, cols = read_csv(out)
        assert np.all(np.diff(cols["F_det"]) >= -1e-12)
        assert cols["F_det"][-1] >= 0.97

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def diverges(problem, z):
            raise SolverError("forced", 1.0, 1)

        monkeypatch.setattr(cli, "solve_alpha", diverges)
        assert main(["solve", "--dims", "4,5", "--probs", "0.7,0.5",
                     "--output", str(tmp_path / "det.csv")]) == 3
        assert "solver failure" in capsys.readouterr().err


class TestSimulate:
    def test_four_cycle_single_trial(self, tmp_path):
        out = tmp_path / "emp.csv"
        assert main(["simulate", "--dims", "2,2", "--probs", "1,1",
                     "--trials", "1", "--seed", "9", "--grid-points", "800",
                     "--margin", "0.5", "--output", str(out)]) == 0
        header, cols = read_csv(out)
        assert header == ["x", "f_emp", "F_emp"]
        # spectrum of the 4-cycle scaled by gamma=2: steps at -1, 0, 1,
        # smoothed at width epsilon; probe between the atoms
        f = np.interp([-1.5, -0.5, 0.5, 1.5], cols["x"], cols["F_emp"])
        assert np.allclose(f, [0.0, 0.25, 0.75, 1.0], atol=0.02)

    def test_size_limit_exit_code(self, tmp_path):
        out = tmp_path / "emp.csv"
        assert main(["simulate", "--dims", "80,80", "--probs", "0.5,0.5",
                     "--trials", "1", "--output", str(out)]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--dims", "3,4", "--probs", "0.6,0.7",
                "--trials", "3", "--seed", "5", "--grid-points", "200"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestRightEdgeMass:
    @pytest.mark.parametrize("eps", ["1e-6", "10"])
    def test_epsilon_far_from_spacing_is_config_error(self, tmp_path, capsys, eps):
        # 1e-6 leaves the smoothed mass between grid points and 10 spreads it
        # past the grid ends, so the advice names the spacing, not a direction
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--dims", "3,4", "--probs", "0.5,0.5", "--trials", "2",
                     "--grid-points", "100", "--margin", "0", "--epsilon", eps,
                     "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "widen the grid, or choose epsilon near the grid spacing 0.0503" in err
        assert not out.exists()


class TestCurveLabel:
    @pytest.mark.parametrize("eps, normalized, label", [
        ("1e-6", False, "empirical"),
        ("10", False, "deterministic"),
        ("10", True, "reference (scaled adjacency)"),
    ])
    def test_too_little_mass_names_the_curve(self, tmp_path, capsys, eps, normalized,
                                             label):
        out = tmp_path / "cmp.csv"
        argv = ["compare", "--dims", "3,4", "--probs", "0.5,0.5", "--trials", "2",
                "--grid-points", "100", "--margin", "0", "--epsilon", eps,
                "--output", str(out)] + (["--normalized"] if normalized else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {label} curve: CDF reaches only ")
        assert not out.exists()


class TestSizeGates:
    TWOS = ",".join(["2"] * 24)
    HALVES = ",".join(["0.5"] * 24)

    # (module, limit name, lowered value or None, argv, message): lowering a
    # limit reaches a gate that an earlier one shadows at the real limits.
    # eigenvalues' own gate shares monte_carlo_spectrum's limit, so no run
    # reaches it; test_espectrum calls it directly.
    GATES = [
        pytest.param(None, None, None,
                     ["solve", "--dims", TWOS, "--probs", HALVES],
                     "branch table refused for 2^D=16777216 > 8388608", id="branch_table"),
        pytest.param(None, None, None,
                     ["oracle", "--dims", "30,50", "--probs", "0.7,0.5"],
                     "oracle refused for N=1500 > 600", id="cmd_oracle"),
        pytest.param(cli, "ORACLE_NODE_LIMIT", 1000,
                     ["oracle", "--dims", "25,25", "--probs", "0.7,0.5", "--z", "0.2+0.5i"],
                     "oracle refused for N=625 > 600", id="matrix_k1_oracle"),
        pytest.param(lattice, "DENSE_NODE_LIMIT", 10,
                     ["oracle", "--dims", "3,4", "--probs", "0.7,0.5", "--z", "0.2+0.5i"],
                     "dense adjacency refused for N=12 > 10", id="link_matrix"),
        pytest.param(None, None, None,
                     ["simulate", "--dims", "80,80", "--probs", "0.5,0.5", "--trials", "1"],
                     "dense eigensolve refused for N=6400 > 4000",
                     id="monte_carlo_spectrum"),
        pytest.param(percolation, "DENSE_NODE_LIMIT", 10,
                     ["simulate", "--dims", "3,4", "--probs", "0.7,0.5", "--trials", "1"],
                     "dense adjacency refused for N=12 > 10", id="percolation_adjacency"),
        pytest.param(None, None, None,
                     ["solve", "--dims", "3,4", "--probs", "0.5,0.5",
                      "--grid-points", "1000000000000"],
                     "grid refused for points=1000000000000 > 4194304", id="auto_grid"),
    ]

    @pytest.mark.parametrize("module, name, value, argv, message", GATES)
    def test_gate_exits_2(self, tmp_path, monkeypatch, capsys, module, name, value,
                          argv, message):
        if module is not None:
            monkeypatch.setattr(module, name, value)
        out = tmp_path / "o.csv"
        assert main(argv + ["--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"size limit: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_conditions_needs_no_branches(self, capsys):
        assert main(["conditions", "--dims", self.TWOS, "--probs", self.HALVES]) == 0
        assert "mean_row_sum=1\n" in capsys.readouterr().out


class TestCompare:
    def test_variance_zero_close_curves(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--dims", "4,5", "--probs", "1,1",
                     "--trials", "1", "--seed", "1", "--grid-points", "2000",
                     "--output", str(out)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        kol = float(line.split()[0].split("=")[1])
        assert kol <= 0.02
        header, _ = read_csv(out)
        assert header == ["x", "f_det", "F_det", "f_emp", "F_emp"]

    def test_normalized_mode_runs(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--dims", "6,6", "--probs", "0.6,0.6",
                     "--trials", "3", "--seed", "2", "--grid-points", "500",
                     "--normalized", "--output", str(out)]) == 0
        assert "levy=" in capsys.readouterr().out


class TestOracle:
    def test_small_spec_passes(self, tmp_path, capsys):
        assert main(["oracle", "--dims", "4,5", "--probs", "0.7,0.5",
                     "--z", "0.2+0.7i"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_size_limit(self):
        assert main(["oracle", "--dims", "30,50", "--probs", "0.7,0.5"]) == 2

    def test_at_documented_cap(self, capsys):
        # N=576, D=8: the least-squares residual's 331776 x 256 complex basis
        # (1.27 GiB) used to end this run in a MemoryError traceback
        assert main(["oracle", "--dims", "2,2,2,2,2,2,3,3",
                     "--probs", "0.9,0.8,0.7,0.6,0.5,0.4,0.3,0.2", "--z", "0.2+0.5i"]) == 0
        assert "OK: worst disagreement" in capsys.readouterr().out


class TestConditions:
    def test_figure_1a_report(self, capsys):
        assert main(["conditions", "--dims", "30,50", "--probs", "0.7,0.5"]) == 0
        out = capsys.readouterr().out
        values = dict(ln.split("=") for ln in out.strip().splitlines())
        assert float(values["mean_row_sum"]) == 1.0
        assert float(values["variance_row_sum"]) == pytest.approx(0.0091378, abs=1e-6)
        assert float(values["max_entry_bound"]) == pytest.approx(1 / 44.8)

    def test_figure_1b_entry_bound(self, capsys):
        assert main(["conditions", "--dims", "10,10,20", "--probs", "0.8,0.7,0.6"]) == 0
        out = capsys.readouterr().out
        values = dict(ln.split("=") for ln in out.strip().splitlines())
        assert float(values["max_entry_bound"]) == pytest.approx(1 / 24.9)


def test_thread_count_does_not_change_output(tmp_path):
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        r = subprocess.run(
            [sys.executable, "-m", "percolattice.cli", "simulate",
             "--dims", "4,5", "--probs", "0.6,0.7", "--trials", "4",
             "--seed", "11", "--grid-points", "300", "--output", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_import_leaves_scipy_unloaded():
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, percolattice.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
