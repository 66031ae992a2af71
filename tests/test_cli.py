import ast
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from percolattice import _openblas, canonical, cli, espectrum, lattice, percolation
from percolattice.canonical import OracleError, SolverError
from percolattice.cli import main
from percolattice.inversion import compare


def _counting(calls, name, fn):
    """fn, adding each call to calls[name]."""
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [list(map(float, ln.split(","))) for ln in fh]
    data = np.array(rows)
    return header, {name: data[:, k] for k, name in enumerate(header)}


class TestConfigHandling:
    def test_missing_dims_is_config_error(self, capsys):
        assert main(["solve", "--probs", "0.5"]) == 1
        assert capsys.readouterr().err == (
            "config error: the following arguments are required: --dims\n")
        assert main(["solve"]) == 1
        assert capsys.readouterr().err == (
            "config error: the following arguments are required: --dims, --probs\n")

    def test_bad_probability_is_config_error(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["solve", "--dims", "3,4", "--probs", "0.5,1.5",
                     "--output", str(out)]) == 1

    def test_config_flag_is_refused(self, tmp_path, monkeypatch, capsys):
        # --config was a JSON copy of the flags; it is now an unknown argument
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": [3, 3], "probs": [1, 1]}))
        assert main(["solve", "--config", str(cfg), "--dims", "3,4", "--probs", "0.7,0.5",
                     "--output", "o.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: unrecognized arguments: --config {cfg}\n"
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

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

    def test_dash_value_names_the_equals_form(self, tmp_path, capsys):
        # -1e-3 is no plain negative number to argparse, so it reads as a flag
        out = tmp_path / "o.csv"
        argv = ["solve", "--dims", "4,5", "--probs", "0.7,0.5", "--output", str(out)]
        assert main(argv + ["--epsilon", "-1e-3"]) == 1
        assert capsys.readouterr().err == (
            "config error: argument --epsilon: expected one argument "
            "(write a value that starts with '-' as --epsilon=VALUE)\n")
        assert main(argv + ["--epsilon=-1e-3"]) == 1
        assert "epsilon must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        # `simulate` used to fail late with numpy's "expected non-negative
        # integer", naming no key, and `solve` accepted the seed
        out = tmp_path / "o.csv"
        assert main(["simulate", "--dims", "3,4", "--probs", "0.7,0.5", "--trials", "1",
                     "--seed", "-1", "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: seed must be a non-negative integer, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["conditions", "solve", "simulate", "compare",
                                         "oracle"])
    @pytest.mark.parametrize("dims, probs", [("2", "1e-320"), ("3", "1e-200")])
    def test_underflowing_gamma_squared_is_config_error(self, tmp_path, capsys, command,
                                                        dims, probs):
        # gamma^2 == 0 used to end in a ZeroDivisionError traceback
        out = tmp_path / "o.csv"
        assert main([command, "--dims", dims, "--probs", probs, "--trials", "1",
                     "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: expected degree gamma=")
        assert "gamma^2 underflows to 0" in err
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

    @pytest.mark.parametrize("flags", [[], ["--epsilon", "0.1"]])
    def test_zero_span_normalized_grid_names_the_margin(self, tmp_path, capsys, flags):
        # p = 1e-9 keeps no link, so both pooled spectra are all zeros; their
        # constant grid at margin 0 used to be blamed on epsilon or the grid
        out = tmp_path / "o.csv"
        assert main(["compare", "--dims", "6,6", "--probs", "1e-9,1e-9", "--trials", "2",
                     "--normalized", "--margin", "0", *flags, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("config error: values in [0, 0] at margin 0 give no strictly "
                                "ascending grid; choose a larger margin\n")
        assert captured.out == ""
        assert not out.exists()

    def test_underflowing_epsilon_is_config_error(self, tmp_path, capsys):
        # eps^2 == 0: the grid points on the eigenvalues -1 and 1 divided by
        # zero, with a numpy warning, and the CSV held inf at both
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--dims", "2,2", "--probs", "1,1", "--trials", "1",
                         "--grid-points", "17", "--margin", "0", "--epsilon", "1e-170",
                         "--output", str(out)]) == 1
        assert caught == []
        assert capsys.readouterr().err == (
            "config error: epsilon=1e-170 is too small: epsilon^2 underflows to 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["solve"], ["simulate"], ["compare"],
                                         ["compare", "--normalized"]], ids=" ".join)
    def test_overflowing_default_epsilon_is_config_error(self, tmp_path, capsys, command):
        # at margin 1e300 the default epsilon, twice the grid spacing, is 2.67e299,
        # and its square raised OverflowError: a traceback instead of exit 1
        out = tmp_path / "o.csv"
        assert main([*command, "--dims", "4,5", "--probs", "0.7,0.5", "--trials", "1",
                     "--grid-points", "16", "--margin", "1e300", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "config error: epsilon=2.67e+299 is too large: epsilon^2 overflows\n")
        assert captured.out == ""
        assert not out.exists()

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        # a directory used to end in an IsADirectoryError traceback
        assert main(["solve", "--dims", "3,4", "--probs", "0.7,0.5", "--grid-points", "100",
                     "--output", str(tmp_path)]) == 1
        assert f"config error: cannot write {tmp_path}:" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_is_config_error(self, capsys):
        # /dev/full opens, so the output check passes, and then every write fails
        assert main(["solve", "--dims", "3,4", "--probs", "0.7,0.5", "--grid-points", "100",
                     "--output", "/dev/full"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: cannot write /dev/full: No space left on device\n"
        assert captured.out == ""

    def test_flags_may_precede_the_command(self, capsys):
        flags = ["--dims", "4,5", "--probs", "0.7,0.5", "--z", "0.2+0.5i"]
        assert main(["oracle", *flags]) == 0
        after = capsys.readouterr()
        assert main([*flags, "oracle"]) == 0
        assert capsys.readouterr() == after

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for name, text in cli._COMMANDS.items():
            assert f"  {name}" in out and text in out


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

    # 5000 random rows: the last block of 4096 rows is a partial one
    @pytest.mark.parametrize("ncols, nrandom", [(1, 50), (3, 50), (5, 50), (3, 5000)],
                             ids=["1", "3", "5", "3-5000rows"])
    def test_bytes_match_per_value_format(self, tmp_path, ncols, nrandom):
        rng = np.random.default_rng(ncols)
        values = np.array(self.SPECIAL + (-np.array(self.SPECIAL)).tolist())
        columns = {
            f"c{k}": np.concatenate([np.roll(values, k), rng.normal(size=nrandom) * 10.0**k])
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

    @pytest.mark.parametrize("dims, probs, points", [
        ("164,193,182", "0.99058603,0.99058603,0.99058603", 200_000),
        ("163,175", "0.00143464,0.99918271", 20_000),
        ("400", "0.999999", 200_000),
    ])
    def test_points_converged_to_rounding_are_accepted(self, tmp_path, capsys, dims, probs,
                                                       points):
        # |r| stays at 3.1e-12, 4.9e-12 and 1.3e-10 here, above 1e-12 but at
        # most 0.37 of the rounding noise of g's terms: these runs exited 3
        out = tmp_path / "det.csv"
        assert main(["solve", "--dims", dims, "--probs", probs,
                     "--grid-points", str(points), "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        with open(out) as fh:
            assert sum(1 for _ in fh) == points + 1


class TestEigensolveFailure:
    # LinAlgError subclasses ValueError: a non-converging eigensolve used to
    # exit 1 as "config error: Eigenvalues did not converge"
    @pytest.mark.parametrize("route", ["in-place", "eigvalsh"])
    def test_non_converging_eigensolve_exits_3(self, tmp_path, monkeypatch, capsys, route):
        def no_convergence(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        if route == "in-place":
            monkeypatch.setattr(_openblas, "in_place_eigvalsh", lambda: no_convergence)
        else:
            monkeypatch.setattr(_openblas, "in_place_eigvalsh", lambda: None)
            monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        out = tmp_path / "o.csv"
        assert main(["simulate", "--dims", "3,4", "--probs", "0.7,0.5", "--trials", "1",
                     "--output", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "solver failure: eigensolve: Eigenvalues did not converge\n"
        assert captured.out == ""
        assert not out.exists()


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


class TestUnusedSettings:
    """Every setting is range-checked only where it is used."""

    # each used to exit 1: every setting was range-checked for every command
    @pytest.mark.parametrize("argv, ignored", [
        (["conditions", "--dims", "30,50", "--probs", "0.7,0.5"], ["--grid-points", "5"]),
        (["oracle", "--dims", "4,5", "--probs", "0.7,0.5", "--z", "0.2+0.5i"],
         ["--trials", "0"]),
        (["conditions", "--dims", "30,50", "--probs", "0.7,0.5"],
         ["--epsilon", "-1", "--margin", "-5"]),
        (["oracle", "--dims", "4,5", "--probs", "0.7,0.5", "--z", "0.2+0.5i"],
         ["--epsilon", "-1"]),
        (["solve", "--dims", "3,4", "--probs", "0.7,0.5", "--grid-points", "100",
          "--output", "o.csv"], ["--seed", "-1"]),
        (["solve", "--dims", "3,4", "--probs", "0.7,0.5", "--grid-points", "100",
          "--output", "o.csv"], ["--z", "0.2+0.5i"]),
        # --epsilon auto is the default: the same bytes as no --epsilon
        (["solve", "--dims", "3,4", "--probs", "0.7,0.5", "--grid-points", "100",
          "--output", "o.csv"], ["--epsilon", "auto"]),
    ])
    def test_ignored_setting_is_not_checked(self, tmp_path, monkeypatch, capsys, argv,
                                            ignored):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        plain = capsys.readouterr().out
        written = [p.read_bytes() for p in sorted(tmp_path.iterdir())]
        assert main(argv + ignored) == 0
        assert capsys.readouterr().out == plain
        assert [p.read_bytes() for p in sorted(tmp_path.iterdir())] == written

    @pytest.mark.parametrize("command, flags, message", [
        ("solve", ["--grid-points", "5"], "grid needs at least 16 points"),
        ("simulate", ["--grid-points", "5"], "grid needs at least 16 points"),
        ("compare", ["--grid-points", "5"], "grid needs at least 16 points"),
        ("simulate", ["--trials", "0"], "trials must be >= 1"),
        ("compare", ["--trials", "0"], "trials must be >= 1"),
        ("compare", ["--trials", "-1", "--normalized"], "trials must be >= 1"),
        ("simulate", ["--seed", "-1"], "seed must be a non-negative integer, got -1"),
        ("compare", ["--seed", "-1", "--normalized"],
         "seed must be a non-negative integer, got -1"),
        ("compare", ["--grid-points", "5", "--normalized"], "grid needs at least 16 points"),
        ("compare", ["--margin", "-1", "--normalized"],
         "margin must be a finite number >= 0, got -1.0"),
        ("compare", ["--margin", "1e308", "--normalized"],
         "grid span overflows at margin 1e+308; choose a smaller margin"),
        ("compare", ["--epsilon", "0", "--normalized"],
         "epsilon must be positive and finite, got 0.0"),
        ("solve", ["--epsilon", "1e-170"],
         "epsilon=1e-170 is too small: epsilon^2 underflows to 0"),
        ("simulate", ["--epsilon", "1e-170"],
         "epsilon=1e-170 is too small: epsilon^2 underflows to 0"),
        ("compare", ["--epsilon", "1e-170"],
         "epsilon=1e-170 is too small: epsilon^2 underflows to 0"),
        ("compare", ["--epsilon", "1e-170", "--normalized"],
         "epsilon=1e-170 is too small: epsilon^2 underflows to 0"),
        ("solve", ["--epsilon", "1e300"], "epsilon=1e+300 is too large: epsilon^2 overflows"),
        ("simulate", ["--epsilon", "1e300"], "epsilon=1e+300 is too large: epsilon^2 overflows"),
        ("compare", ["--epsilon", "1e300"], "epsilon=1e+300 is too large: epsilon^2 overflows"),
        ("compare", ["--epsilon", "1e300", "--normalized"],
         "epsilon=1e+300 is too large: epsilon^2 overflows"),
        # a default epsilon whose square overflows used to be refused only
        # at the first smoothing, after every trial was sampled and solved
        ("simulate", ["--margin", "1e300", "--grid-points", "16"],
         "epsilon=2.67e+299 is too large: epsilon^2 overflows"),
        ("compare", ["--margin", "1e300", "--grid-points", "16"],
         "epsilon=2.67e+299 is too large: epsilon^2 overflows"),
        # plain compare used to check its Monte Carlo settings only after
        # its deterministic solve
        ("compare", ["--seed", "-1"], "seed must be a non-negative integer, got -1"),
        # a value of the wrong type is refused whether or not the command uses it,
        # and even where a later --dims would override it
        ("solve", ["--trials", "x"], "argument --trials: invalid int value: 'x'"),
        ("solve", ["--dims", "3,x"],
         "argument --dims: bad dims '3,x': invalid literal for int() with base 10: 'x'"),
        ("solve", ["--epsilon", "abc"], "argument --epsilon: bad epsilon 'abc'"),
        ("solve", ["--z", "abc"], "argument --z: bad complex value 'abc'"),
        ("simulate", ["--trials", "2.5"], "argument --trials: invalid int value: '2.5'"),
        ("solve", ["--grid-points", "100.5"],
         "argument --grid-points: invalid int value: '100.5'"),
        ("solve", ["--margin", "wide"], "argument --margin: invalid float value: 'wide'"),
        ("solve", ["--probs", "true,0.5"],
         "argument --probs: bad probs 'true,0.5': could not convert string to float: 'true'"),
    ])
    def test_used_setting_is_checked_before_sampling(self, tmp_path, monkeypatch, capsys,
                                                     command, flags, message):
        def no_work(*args):
            raise AssertionError("sampled or solved")

        monkeypatch.setattr(percolation, "sample", no_work)
        monkeypatch.setattr(cli, "solve_alpha", no_work)
        out = tmp_path / "o.csv"
        assert main([command, "--dims", "3,4", "--probs", "0.7,0.5", *flags,
                     "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag, bad, good", [("--dims", "3,x", "3,4"),
                                                 ("--probs", "x", "0.5"),
                                                 ("--epsilon", "abc", "0.1"),
                                                 ("--z", "abc", "0.2+0.5i")])
    def test_a_bad_value_is_refused_before_a_good_one(self, tmp_path, capsys, flag, bad,
                                                      good):
        # each occurrence of a flag is checked: `--dims 3,x --dims 3,4` used
        # to run on 3,4 and exit 0
        out = tmp_path / "o.csv"
        assert main(["solve", "--dims", "3,4", "--probs", "0.7,0.5", flag, bad, flag, good,
                     "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: argument {flag}: bad ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", [["solve"], ["simulate"], ["compare"],
                                         ["compare", "--normalized"]], ids=" ".join)
    @pytest.mark.parametrize("target, reason", [("missing/o.csv", "No such file or directory"),
                                                ("", "Is a directory")],
                             ids=["missing-dir", "directory"])
    def test_unwritable_output_is_checked_before_any_work(self, tmp_path, monkeypatch,
                                                          capsys, command, target, reason):
        # an unwritable --output used to be refused only at the CSV write,
        # after every trial was sampled and every deterministic point solved
        def no_work(*args):
            raise AssertionError("sampled or solved")

        monkeypatch.setattr(percolation, "sample", no_work)
        monkeypatch.setattr(cli, "solve_alpha", no_work)
        out = tmp_path / target
        assert main([*command, "--dims", "3,4", "--probs", "0.7,0.5",
                     "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: cannot write {out}: {reason}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


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

    # (module, limit name, lowered value or None, argv, message): lowering one
    # module's binding of a limit reaches a gate that an earlier one shadows
    # at the real limits. Every dense gate reads EIGENSOLVE_LIMIT, so no run
    # reaches eigenvalues' own gate (test_espectrum calls it directly);
    # link_matrix's gate is reached through percolation.adjacency.
    GATES = [
        pytest.param(None, None, None,
                     ["solve", "--dims", TWOS, "--probs", HALVES],
                     "branch table refused for 2^D=16777216 > 8388608", id="branch_table"),
        pytest.param(None, None, None,
                     ["oracle", "--dims", "80,80", "--probs", "0.7,0.5"],
                     "oracle refused for N=6400 > 4000", id="cmd_oracle"),
        pytest.param(cli, "EIGENSOLVE_LIMIT", 5000,
                     ["oracle", "--dims", "64,64", "--probs", "0.7,0.5", "--z", "0.2+0.5i"],
                     "oracle refused for N=4096 > 4000", id="matrix_k1_oracle"),
        pytest.param(None, None, None,
                     ["simulate", "--dims", "80,80", "--probs", "0.5,0.5", "--trials", "1"],
                     "dense eigensolve refused for N=6400 > 4000",
                     id="monte_carlo_spectrum"),
        pytest.param(lattice, "EIGENSOLVE_LIMIT", 10,
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

    def test_compare_refuses_the_eigensolve_before_solving(self, tmp_path, monkeypatch,
                                                          capsys):
        # plain compare used to solve its whole deterministic grid first
        def no_work(*args):
            raise AssertionError("sampled or solved")

        monkeypatch.setattr(percolation, "sample", no_work)
        monkeypatch.setattr(cli, "solve_alpha", no_work)
        out = tmp_path / "o.csv"
        assert main(["compare", "--dims", "70,70", "--probs", "0.9,0.7",
                     "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "size limit: dense eigensolve refused for N=4900 > 4000\n"
        assert captured.out == ""
        assert not out.exists()

    def test_oracle_refuses_before_solving(self, monkeypatch, capsys):
        def no_work(*args):
            raise AssertionError("built or solved")

        monkeypatch.setattr(cli, "build_problem", no_work)
        monkeypatch.setattr(cli, "solve_alpha", no_work)
        assert main(["oracle", "--dims", "64,64", "--probs", "0.7,0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "size limit: oracle refused for N=4096 > 4000\n"
        assert captured.out == ""

    def test_conditions_needs_no_branches(self, capsys):
        assert main(["conditions", "--dims", self.TWOS, "--probs", self.HALVES]) == 0
        assert "mean_row_sum=1\n" in capsys.readouterr().out


class TestSharedColumns:
    def test_solve_and_simulate_are_column_subsets_of_compare(self, tmp_path):
        # one grid, one deterministic and one empirical curve helper serve
        # all three commands, so their CSVs agree byte for byte
        common = ["--dims", "4,5", "--probs", "0.7,0.5", "--trials", "3", "--seed", "5",
                  "--grid-points", "300"]
        for command in ("solve", "simulate", "compare"):
            assert main([command] + common + ["--output", str(tmp_path / command)]) == 0
        rows = [ln.split(",") for ln in (tmp_path / "compare").read_text().splitlines()]

        def columns(*picked):
            return "".join(",".join(r[k] for k in picked) + "\n" for r in rows)

        assert (tmp_path / "solve").read_text() == columns(0, 1, 2)
        assert (tmp_path / "simulate").read_text() == columns(0, 3, 4)


class TestNormalizedIsCompareOnly:
    MESSAGE = ("config error: normalized is a compare mode: its grid spans the "
               "scaled-adjacency reference; use compare --normalized\n")

    @pytest.mark.parametrize("by", ["flag"])  # the one spelling, since --config went
    def test_simulate_rejects_normalized(self, tmp_path, monkeypatch, capsys, by):
        # it used to sample every trial, then fail the right-edge mass check
        # on sqrt(gamma)-scaled eigenvalues over the unscaled grid
        def no_sampling(spec, seed):
            raise AssertionError("simulate --normalized sampled")

        monkeypatch.setattr(percolation, "sample", no_sampling)
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--dims", "6,6", "--probs", "0.6,0.6", "--trials", "2",
                "--normalized"]
        assert main(argv + ["--output", "o.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.err == self.MESSAGE
        assert captured.out == ""
        assert not (tmp_path / "o.csv").exists()

    def test_solve_ignores_normalized(self, tmp_path):
        common = ["solve", "--dims", "4,5", "--probs", "0.7,0.5", "--grid-points", "300"]
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        assert main(common + ["--output", str(plain)]) == 0
        assert main(common + ["--normalized", "--output", str(flagged)]) == 0
        assert plain.read_bytes() == flagged.read_bytes()


class TestCompare:
    def test_variance_zero_close_curves(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--dims", "4,5", "--probs", "1,1",
                     "--trials", "1", "--seed", "1", "--grid-points", "2000",
                     "--output", str(out)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        values = dict(field.split("=") for field in line.split())
        assert list(values) == ["kolmogorov", "levy", "grid_points"]
        assert float(values["kolmogorov"]) <= 0.02
        assert values["grid_points"] == "2000"
        header, cols = read_csv(out)
        assert header == ["x", "f_det", "F_det", "f_emp", "F_emp"]
        assert len(cols["x"]) == 2000

    @pytest.mark.parametrize("argv", [
        ["--dims", "4,5", "--probs", "0.7,0.5", "--trials", "3", "--seed", "5"],
        ["--dims", "6,7", "--probs", "0.6,0.6", "--trials", "3", "--seed", "2",
         "--normalized"],
    ], ids=["plain", "normalized"])
    def test_prints_the_distances_of_the_written_curves(self, tmp_path, capsys, argv):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--grid-points", "500", "--output", str(out)] + argv) == 0
        _, cols = read_csv(out)
        x = cols["x"]
        report = compare(x, cols["F_det"], cols["F_emp"])
        assert capsys.readouterr().out == (
            f"kolmogorov={report.kolmogorov:.6g} levy={report.levy:.6g} "
            f"grid_points={len(x)}\n")

    def test_normalized_mode_runs(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--dims", "6,6", "--probs", "0.6,0.6",
                     "--trials", "3", "--seed", "2", "--grid-points", "500",
                     "--normalized", "--output", str(out)]) == 0
        assert "levy=" in capsys.readouterr().out

    def test_normalized_grid_spans_both_spectra(self, tmp_path, monkeypatch):
        # it used to build the deterministic problem and its grid only to take
        # that grid's epsilon, in A/gamma units, as a margin in sqrt(gamma) units
        def unused(*args, **kwargs):
            raise AssertionError("deterministic side built")

        monkeypatch.setattr(cli, "build_problem", unused)
        monkeypatch.setattr(cli, "auto_grid", unused)
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--dims", "6,6", "--probs", "0.6,0.6", "--trials", "3",
                     "--seed", "2", "--grid-points", "500", "--margin", "0.25",
                     "--normalized", "--output", str(out)]) == 0
        ref, normalized = espectrum.theorem3_spectra(lattice.LatticeSpec((6, 6), (0.6, 0.6)),
                                                     2, 3)
        both = np.concatenate([ref.eigenvalues, normalized.eigenvalues])
        x = read_csv(out)[1]["x"]
        assert len(x) == 500
        assert x[0] == both.min() - 0.25 and x[-1] == both.max() + 0.25

    def test_normalized_draws_each_trial_once(self, tmp_path, monkeypatch):
        # a trial's reference and row-normalized spectra share one sample and
        # one adjacency; each used to be drawn and built twice
        calls = {"sample": 0, "adjacency": 0}
        monkeypatch.setattr(percolation, "sample",
                            _counting(calls, "sample", percolation.sample))
        monkeypatch.setattr(espectrum, "adjacency",
                            _counting(calls, "adjacency", espectrum.adjacency))
        assert main(["compare", "--dims", "6,6", "--probs", "0.6,0.6", "--trials", "3",
                     "--seed", "2", "--grid-points", "500", "--normalized",
                     "--output", str(tmp_path / "cmp.csv")]) == 0
        assert calls == {"sample": 3, "adjacency": 3}


class TestOracle:
    def test_small_spec_passes(self, tmp_path, capsys):
        assert main(["oracle", "--dims", "4,5", "--probs", "0.7,0.5",
                     "--z", "0.2+0.7i"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_size_limit(self):
        assert main(["oracle", "--dims", "80,80", "--probs", "0.7,0.5"]) == 2

    def test_solves_each_z_once(self, monkeypatch, capsys):
        # the oracle checks the alpha of the one grid solve; it used to build
        # the problem and solve again at every z, 26 calls of each
        calls = {"build_problem": 0, "solve_alpha": 0}
        for name in calls:
            wrapper = _counting(calls, name, getattr(canonical, name))
            for module in (canonical, cli):
                monkeypatch.setattr(module, name, wrapper)
        assert main(["oracle", "--dims", "4,5", "--probs", "0.7,0.5"]) == 0
        assert capsys.readouterr().out.count("z=") == 25
        assert calls == {"build_problem": 1, "solve_alpha": 1}

    # an empty --z used to run the default grid and exit 0
    @pytest.mark.parametrize("z", ["inf+1i", "0.2+0.5i, 1+x", ""])
    def test_bad_z_names_the_typed_token(self, capsys, z):
        # the i -> j rewrite used to show up in the message: 'jnf+1j'
        assert main(["oracle", "--dims", "4,5", "--probs", "0.7,0.5", "--z", z]) == 1
        typed = z.split(",")[-1].strip()
        assert f"bad complex value {typed!r}" in capsys.readouterr().err

    def test_z_starting_with_minus_takes_the_equals_form(self, capsys):
        argv = ["oracle", "--dims", "4,5", "--probs", "0.7,0.5"]
        assert main(argv + ["--z", "-0.3+1i"]) == 1
        assert "write a value that starts with '-' as --z=VALUE" in capsys.readouterr().err
        assert main(argv + ["--z=-0.3+1i"]) == 0
        assert capsys.readouterr().out.count("z=") == 1

    @pytest.mark.parametrize("form_fails, lines, message", [
        (False, 2, "worst disagreement 1.000e-06 exceeds 1e-08"),
        (True, 0, "expected matrix B leaves the Kronecker solution form: "
                  "relative residual 1.000e-03 > 1.0e-11"),
    ], ids=["disagreement", "oracle-error"])
    def test_failure_exits_4(self, monkeypatch, capsys, form_fails, lines, message):
        # a disagreement used to print FAIL: on stdout and return 4 past main's
        # except clauses; either failure now ends in one line on stderr, and a
        # form failure, found before any z, prints no per-z line
        def off_by_1e6(spec, z, alpha):
            if form_fails:
                raise OracleError("expected matrix B leaves the Kronecker solution form: "
                                  "relative residual 1.000e-03 > 1.0e-11")
            return alpha + 1e-6

        monkeypatch.setattr(cli, "matrix_k1_oracle", off_by_1e6)
        assert main(["oracle", "--dims", "4,5", "--probs", "0.7,0.5",
                     "--z", "0.2+0.5i,-0.3+1i"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "".join(
            f"z={z} |solve_alpha - matrix_k1_oracle| = 1.000e-06\n"
            for z in ["0.2+0.5j", "-0.3+1j"][:lines])
        assert captured.err == f"oracle failure: {message}\n"

    def test_a_resolvent_outside_the_solution_form_exits_4(self, monkeypatch, capsys):
        # nodes 0 and 6 of (4,5) differ in both digits: B gains one off-link pair
        spec = lattice.LatticeSpec((4, 5), (0.7, 0.5))
        b = lattice.expected_matrix(spec, lattice.supergraph_edges(spec))
        b[0, 6] = b[6, 0] = 1e-3
        monkeypatch.setattr(canonical, "expected_matrix", lambda spec, edges: b)
        assert main(["oracle", "--dims", "4,5", "--probs", "0.7,0.5", "--z=0.2+0.5i"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("oracle failure: expected matrix B "
                                       "leaves the Kronecker solution form: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_a_variance_row_sum_off_sigma2_exits_4(self, monkeypatch, capsys):
        # sigma^2 from a closed form 1% high: V's row sums from the edge listing
        # disagree before any z is checked
        right = lattice.variance_sum
        monkeypatch.setattr(canonical, "variance_sum", lambda spec: 1.01 * right(spec))
        assert main(["oracle", "--dims", "4,5", "--probs", "0.7,0.5"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("oracle failure: V's row sums miss sigma^2 by ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize("dims, probs", [((4, 5), (0.7, 0.5)),
                                             ((3, 3, 4), (0.8, 0.7, 0.6))])
    @pytest.mark.parametrize("field, wrong_value", [
        ("variance_sum", lambda p: 1.01 * p.variance_sum),
        ("atoms", lambda p: np.append(p.atoms[:-1], p.atoms[-1] + 1e-6)),
    ], ids=["sigma2-times-1.01", "top-atom-plus-1e-6"])
    def test_a_wrong_closed_form_exits_4(self, monkeypatch, capsys, dims, probs,
                                         field, wrong_value):
        # B and V come from the edge listing, so a scalar problem built from a
        # wrong sigma^2 or branch value is caught, not checked against itself;
        # the oracle reads the CLI's alpha, so patching the CLI's problem suffices
        right = cli.build_problem(lattice.LatticeSpec(dims, probs))
        wrong = dataclasses.replace(right, **{field: wrong_value(right)})
        monkeypatch.setattr(cli, "build_problem", lambda spec: wrong)
        argv = ["oracle", "--dims", ",".join(map(str, dims)),
                "--probs", ",".join(map(str, probs))]
        assert main(argv) == 4
        assert capsys.readouterr().err.startswith("oracle failure: worst disagreement ")

    def test_at_documented_cap(self, capsys):
        # N=576, D=8, under the oracle's former 600-node cap: the least-squares
        # residual's 331776 x 256 complex basis (1.27 GiB) used to end this run
        # in a MemoryError traceback
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

    @pytest.mark.parametrize("dims, probs, lines", [
        ("30,50", "0.7,0.5", ["mean_row_sum=1",
                              "variance_row_sum=0.0091378348214285719",
                              "max_entry_bound=0.022321428571428572",
                              "min_scaled_variance=0.15694754464285718"]),
        ("10,10,20", "0.8,0.7,0.6", ["mean_row_sum=1",
                                     "variance_row_sum=0.012725601199980648",
                                     "max_entry_bound=0.040160642570281124",
                                     "min_scaled_variance=0.51612070773052043"]),
    ], ids=["fig1a", "fig1b"])
    def test_prints_these_bytes(self, capsys, dims, probs, lines):
        assert main(["conditions", "--dims", dims, "--probs", probs]) == 0
        assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines)


_JUNK = ["", "x", "nan", "inf", "-1", "1e400", "2.5", "true", "1,"]


def _joined(values) -> str:
    return ",".join(map(str, values))


@st.composite
def _argvs(draw):
    """One command with any subset of the flags, each valid and small or junk.

    --dims and --probs are given more often than the other flags, and a
    given value is more often valid than junk, so about a quarter of the
    runs pass every check and do their work.
    """
    d = draw(st.integers(1, 3))
    valid = {
        "--dims": st.lists(st.integers(2, 6), min_size=d, max_size=d).map(_joined),
        "--probs": st.lists(st.sampled_from([1e-9, 0.1, 0.5, 0.7, 1]), min_size=d,
                            max_size=d).map(_joined),
        "--trials": st.integers(1, 3).map(str),
        "--seed": st.integers(0, 5).map(str),
        "--grid-points": st.integers(16, 80).map(str),
        "--margin": st.sampled_from(["0", "0.1", "1"]),
        "--epsilon": st.sampled_from(["auto", "0.01", "0.1", "1"]),
        "--z": st.sampled_from(["0.2+0.5i", "-0.3+1i,1+0.1i"]),
    }
    argv = [draw(st.sampled_from(list(cli._COMMANDS)))]
    for flag, values in valid.items():
        if draw(st.integers(0, 3)) <= (2 if flag in ("--dims", "--probs") else 1):
            junk = draw(st.integers(0, 7)) == 7
            argv.append(f"{flag}={draw(st.sampled_from(_JUNK) if junk else values)}")
    if draw(st.booleans()):
        argv.append("--normalized")
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
def test_every_argv_exits_with_a_documented_code(tmp_path, argv):
    # any mix of valid and malformed flag values ends in exit 0-4: no
    # traceback, and no warning (an error under this suite)
    assert main([*argv, f"--output={tmp_path / 'o.csv'}"]) in range(5)


def _simulate_at_threads(tmp_path, *args) -> list[bytes]:
    """The simulate CSV bytes at 1 and at 2 BLAS threads."""
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        r = subprocess.run(
            [sys.executable, "-m", "percolattice.cli", "simulate", *args,
             "--output", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    return outs


def test_thread_count_does_not_change_output(tmp_path):
    one, two = _simulate_at_threads(tmp_path, "--dims", "4,5", "--probs", "0.6,0.7",
                                    "--trials", "4", "--seed", "11", "--grid-points", "300")
    assert one == two


class ThreadDependentBytes(AssertionError):
    """The simulate CSV differs between 1 and 2 BLAS threads."""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable cores")
@pytest.mark.xfail(strict=True, raises=ThreadDependentBytes,
                   reason="the N=1500 eigensolve rounds differently at 2 BLAS threads "
                   "(ROADMAP item 1)")
def test_thread_count_does_not_change_paper_size_output(tmp_path):
    # at N=20 OpenBLAS stays on one thread whatever it is allowed, so only a
    # paper-size run shows whether the bytes depend on the thread count; only
    # the byte comparison is the expected failure, so a run that exits
    # non-zero fails the suite
    one, two = _simulate_at_threads(tmp_path, "--dims", "30,50", "--probs", "0.7,0.5",
                                    "--trials", "2", "--seed", "42")
    if one != two:
        raise ThreadDependentBytes("simulate bytes differ between 1 and 2 BLAS threads")


def test_compare_leaves_numpy_ma_unloaded(tmp_path):
    # np.median and np.union1d import numpy.ma; the CLI calls neither
    code = ("import sys; from percolattice.cli import main; "
            "assert main(sys.argv[1:]) == 0; print('numpy.ma' in sys.modules)")
    r = subprocess.run(
        [sys.executable, "-c", code, "compare", "--dims", "4,5", "--probs", "0.6,0.7",
         "--trials", "2", "--grid-points", "200", "--output", str(tmp_path / "c.csv")],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("argv, listings", [
    (["solve"], 0),
    (["simulate"], 1),
    (["compare"], 1),
    (["compare", "--normalized"], 1),
    (["oracle"], 1),
    (["conditions"], 0),
], ids=["solve", "simulate", "compare", "compare-normalized", "oracle", "conditions"])
def test_each_command_lists_the_supergraph_at_most_once(tmp_path, monkeypatch, argv,
                                                        listings):
    # the oracle's V row sums and B share one listing
    calls = {"supergraph_edges": 0}
    wrapper = _counting(calls, "supergraph_edges", lattice.supergraph_edges)
    for module in (lattice, percolation, canonical):
        monkeypatch.setattr(module, "supergraph_edges", wrapper)
    assert main([*argv, "--dims", "4,5", "--probs", "0.7,0.5", "--grid-points", "200",
                 "--trials", "2", "--output", str(tmp_path / "o.csv")]) == 0
    assert calls["supergraph_edges"] == listings


# the oracle solves B through the binding too, since it shares eigenvalues
@pytest.mark.parametrize("argv, loaded", [
    (["solve"], "0"),
    (["oracle", "--z", "0.2+0.5i"], "1"),
    (["conditions"], "0"),
    (["simulate"], "1"),
])
def test_only_monte_carlo_loads_the_lapack_binding(tmp_path, argv, loaded):
    code = ("import sys; from percolattice.cli import main; "
            "assert main(sys.argv[1:]) == 0; print(int('percolattice._openblas' in sys.modules))")
    r = subprocess.run(
        [sys.executable, "-c", code, *argv, "--dims", "4,5", "--probs", "0.6,0.7",
         "--trials", "2", "--grid-points", "200", "--output", str(tmp_path / "o.csv")],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip().splitlines()[-1] == loaded


def test_cli_import_leaves_scipy_unloaded():
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, percolattice.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_no_module_imports_anothers_private_name():
    # a private name has one owner; a private module (from . import _openblas)
    # may still be imported whole
    crossings = [
        f"{path.name}: from .{node.module} import {alias.name}"
        for path in sorted(Path(cli.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module
        for alias in node.names if alias.name.startswith("_")
    ]
    assert crossings == []
