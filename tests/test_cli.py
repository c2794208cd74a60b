"""Tests for the command line front end: flag handling, config files,
output modes, and exit codes."""

import os
import subprocess
import sys

import pytest

import lpmc.cli as cli
from lpmc.errors import NumericError


def fast_args(*extra):
    return ["single-solve", "--n", "24", "--r", "2", "--s", "4",
            "--p-grid", "0.8", "--seed", "9"] + list(extra)


# ---------------------------------------------------------------- exit status

def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1
    capsys.readouterr()


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(fast_args("--bogus"))
    assert exc.value.code == 1
    capsys.readouterr()


def test_bad_grid_value_returns_one(capsys):
    assert cli.main(fast_args("--p-grid", "0.0")) == 1
    assert "p_grid" in capsys.readouterr().err


def test_missing_config_file_returns_one(capsys):
    assert cli.main(fast_args("--config", "/no/such/file.cfg")) == 1
    capsys.readouterr()


def test_unknown_config_key_returns_one(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus = 3\n")
    assert cli.main(fast_args("--config", str(path))) == 1
    assert "bogus" in capsys.readouterr().err


def test_numeric_failure_returns_two(monkeypatch, capsys):
    def boom(config):
        raise NumericError("sour")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(fast_args()) == 2
    assert "numeric failure" in capsys.readouterr().err


def run_lpmc(*argv):
    """Run the CLI in a fresh interpreter, so an escaping exception shows as
    a traceback on stderr."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.run([sys.executable, "-m", "lpmc.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def assert_one_line_error(proc):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("lpmc: ")
    assert len(proc.stderr.splitlines()) == 1


def test_odd_skew_rank_single_solve_is_one_line_error():
    assert_one_line_error(run_lpmc(*fast_args("--kind", "skew", "--r", "3")))


def test_odd_skew_compare_rank_is_one_line_error():
    assert_one_line_error(run_lpmc("skew-compare", "--n", "12", "--s", "3",
                                   "--p-grid", "0.5", "--trials", "1"))


def test_unknown_kind_in_config_file_is_one_line_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("kind = foo\n")
    proc = run_lpmc(*fast_args("--config", str(path)))
    assert_one_line_error(proc)
    assert "foo" in proc.stderr


@pytest.mark.parametrize("grid", [("--s", "4,4", "--p-grid", "0.5"),
                                  ("--s", "4", "--p-grid", "0.5,0.5")],
                         ids=["s", "p_grid"])
def test_repeated_grid_value_is_one_line_error(grid):
    proc = run_lpmc("subspace-phase", "--n", "20", *grid, "--trials", "2")
    assert_one_line_error(proc)
    assert "repeats a value" in proc.stderr


def test_negative_sigma_is_one_line_error():
    proc = run_lpmc("subspace-phase", "--n", "12", "--s", "4", "--p-grid",
                    "0.5", "--trials", "1", "--sigma", "-1")
    assert_one_line_error(proc)
    assert "sigma" in proc.stderr


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_nonfinite_lambda_is_one_line_error(lam):
    # not a numeric failure of the solve: the spec rejects it up front
    proc = run_lpmc("single-solve", "--n", "12", "--r", "2", "--s", "4",
                    "--p-grid", "0.5", "--lambda", lam)
    assert_one_line_error(proc)
    assert "lam must be finite" in proc.stderr


def test_zero_max_iters_is_one_line_error():
    proc = run_lpmc(*fast_args("--max-iters", "0"))
    assert_one_line_error(proc)
    assert "max_iters must be positive" in proc.stderr


# small enough that a run that wrongly accepts the key ends in a second
SMALL = {"subspace-phase": ("--n", "12", "--s", "4", "--p-grid", "0.5",
                            "--trials", "1"),
         "skew-compare": ("--n", "12", "--s", "2", "--p-grid", "0.5",
                          "--trials", "1"),
         "diagnostics": ()}


@pytest.mark.parametrize("experiment, key, value", [
    ("subspace-phase", "kind", "psd"),
    ("skew-compare", "r", "9"),
    ("diagnostics", "trials", "7"),
    ("diagnostics", "lambda", "5"),
    ("diagnostics", "alpha", "0.1"),
    ("diagnostics", "max_iters", "3"),
])
def test_kind_key_outside_single_solve_is_one_line_error(tmp_path, experiment,
                                                         key, value):
    # a key the experiment does not read is an error, as a config key and
    # as a flag
    path = tmp_path / "key.cfg"
    path.write_text(f"{key} = {value}\n")
    proc = run_lpmc(experiment, *SMALL[experiment], "--config", str(path))
    assert_one_line_error(proc)
    assert key in proc.stderr
    flag = "--" + key.replace("_", "-")
    proc = run_lpmc(experiment, *SMALL[experiment], flag, value)
    assert_one_line_error(proc)
    assert flag in proc.stderr


def test_kind_flag_choices_are_the_kinds(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(fast_args("--kind", "foo"))
    assert exc.value.code == 1
    assert "rectangular" in capsys.readouterr().err


def test_failing_diagnostics_return_two(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_diagnostics",
                        lambda config: ("result: FAIL\n", False))
    assert cli.main(["diagnostics"]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------- run modes

def test_solve_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert cli.main(fast_args("--out", str(out))) == 0
    captured = capsys.readouterr()
    assert f"wrote 1 records to {out}" in captured.out
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment,trial,")
    assert lines[1].startswith("single-solve,0,0.8,4,subspace,")


def test_solve_stdout_mode_prints_summaries_only(capsys):
    assert cli.main(fast_args()) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("experiment,trial,")
    assert all(l.startswith("#summary") for l in lines[1:])
    assert "1 solves" in captured.err


def test_config_file_with_flag_override(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("n = 24\nr = 2\ns = 4\np-grid = 0.8\n"
                    "trials = 2\nseed = 9\n# comment line\n")
    out = tmp_path / "run.csv"
    assert cli.main(["single-solve", "--config", str(path),
                     "--trials", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 2     # header plus the single overridden trial


def test_repeat_runs_write_identical_files(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(fast_args("--out", str(a))) == 0
    assert cli.main(fast_args("--out", str(b))) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_diagnostics_stdout_and_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = cli.main(["diagnostics", "--n", "16", "--s", "6",
                     "--p-grid", "0.6", "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.endswith("result: PASS\n")
    assert out.read_text() == captured.out


def test_single_solve_writes_every_grid_value(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert cli.main(fast_args("--p-grid", "0.3,0.9", "--out", str(out))) == 0
    assert "wrote 2 records" in capsys.readouterr().out
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]
            if not l.startswith("#")]
    assert [r[2] for r in rows] == ["0.3", "0.9"]


def test_single_solve_rejects_several_widths(capsys):
    assert cli.main(fast_args("--s", "4,6")) == 1
    assert "single-solve" in capsys.readouterr().err


def test_single_solve_kind_flag(tmp_path, capsys):
    out = tmp_path / "psd.csv"
    assert cli.main(fast_args("--kind", "psd", "--out", str(out))) == 0
    capsys.readouterr()
    assert ",psd," in out.read_text().splitlines()[1]
