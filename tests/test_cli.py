import json
import os
import subprocess
import sys

import numpy as np
import pytest

from percolattice import cli
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
        ("compare", "normalized", "no"),
        ("compare", "normalized", 0),
    ])
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, command, key, value):
        # each used to end in a TypeError traceback, or ("normalized": "no")
        # to run normalized mode with exit 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": [3, 4], "probs": [0.7, 0.5], key: value}))
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 1
        assert f"config error: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_config_values_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"dims": [3, 4], "probs": [0.7, 0.5], "trials": 1.0, '
                       '"seed": 3e0, "grid_points": 1e2, "margin": 1}')
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        assert len(read_csv(out)[1]["x"]) == 100


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
