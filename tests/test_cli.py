"""Tests for the command line front end: flag handling, argument files,
output modes, and exit codes."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import lpmc.cli as cli
from lpmc.errors import NumericError
from lpmc.experiments import EXPERIMENTS, SETTINGS, run_experiment
from lpmc.parameterization import KINDS


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
    with pytest.raises(SystemExit) as exc:
        cli.main(fast_args("@/no/such/file.args"))
    assert exc.value.code == 1
    assert "/no/such/file.args" in capsys.readouterr().err


def test_unknown_config_key_returns_one(tmp_path, capsys):
    path = tmp_path / "bad.args"
    path.write_text("--bogus 3\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(fast_args(f"@{path}"))
    assert exc.value.code == 1
    assert "unrecognized arguments: --bogus 3" in capsys.readouterr().err


def test_numeric_failure_returns_two(monkeypatch, capsys):
    def boom(config):
        raise NumericError("sour")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(fast_args()) == 2
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("routine", ["svd", "eigvalsh"])
def test_lapack_failure_returns_two(monkeypatch, capsys, routine):
    # numpy's LinAlgError is a ValueError, yet a failed LAPACK call is a
    # numeric failure, not an argument error; the report calls both
    # routines, in its witness roots and alignments and in certify
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{routine} did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    assert cli.main(["diagnostics"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"lpmc: numeric failure: {routine} did not "
                            "converge\n")


def run_lpmc(*argv, cpu=None, **env):
    """Run the CLI in a fresh interpreter, so an escaping exception shows as
    a traceback on stderr; env adds environment variables, and given a cpu
    the interpreter pins itself, and no other process, to that one CPU."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    start = ["-m", "lpmc.cli"] if cpu is None else [
        "-c", f"import os, sys; os.sched_setaffinity(0, {{{cpu}}}); "
              "from lpmc.cli import main; sys.exit(main())"]
    return subprocess.run([sys.executable, *start, *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env))


def assert_one_line_error(proc, code=1):
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("lpmc: ")
    assert len(proc.stderr.splitlines()) == 1


def test_odd_skew_rank_single_solve_is_one_line_error():
    proc = run_lpmc("single-solve", "--kind", "skew", "--n", "24", "--r",
                    "3", "--p-grid", "0.8")
    assert_one_line_error(proc)
    assert "even" in proc.stderr


@pytest.mark.parametrize("kind, s", [("psd", "9"), ("skew", "50"),
                                     ("rectangular", "4")])
def test_width_for_a_kind_without_bases_is_one_line_error(kind, s):
    # only the subspace kind has widths, so another kind would ignore s
    proc = run_lpmc("single-solve", "--kind", kind, "--n", "40", "--r", "2",
                    "--s", s, "--p-grid", "0.5", "--trials", "2")
    assert_one_line_error(proc)
    assert f"kind {kind!r} takes no key 's'" in proc.stderr


def test_odd_skew_compare_rank_is_one_line_error():
    assert_one_line_error(run_lpmc("skew-compare", "--n", "12", "--s", "3",
                                   "--p-grid", "0.5", "--trials", "1"))


def test_unknown_kind_in_config_file_is_one_line_error(tmp_path):
    path = tmp_path / "bad.args"
    path.write_text("--kind foo\n")
    proc = run_lpmc(*fast_args(f"@{path}"))
    assert_one_line_error(proc)
    assert "argument --kind: invalid choice: 'foo'" in proc.stderr


def test_flag_prefix_typed_is_one_line_error():
    # a prefix is not its flag: --tri would silently be --trials
    proc = run_lpmc(*fast_args("--tri", "1"))
    assert_one_line_error(proc)
    assert "unrecognized arguments: --tri 1" in proc.stderr


def test_flag_prefix_in_config_file_is_one_line_error(tmp_path):
    # a saved file must not change meaning when a flag sharing the prefix
    # is added later
    path = tmp_path / "prefix.args"
    path.write_text("--lam 5\n")
    proc = run_lpmc(*fast_args(f"@{path}"))
    assert_one_line_error(proc)
    assert "unrecognized arguments: --lam 5" in proc.stderr


@pytest.mark.parametrize("grid", [("--s", "4,4", "--p-grid", "0.5"),
                                  ("--s", "4", "--p-grid", "0.5,0.5")],
                         ids=["s", "p_grid"])
def test_repeated_grid_value_is_one_line_error(grid):
    proc = run_lpmc("subspace-phase", "--n", "20", *grid, "--trials", "2")
    assert_one_line_error(proc)
    assert "repeats a value" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("subspace-phase", "--n", "12", "--s", "20,12", "--p-grid", "0.5",
     "--trials", "1"),
    ("subspace-phase", "--n", "12", "--s", "-3", "--p-grid", "0.5",
     "--trials", "1"),
    ("single-solve", "--n", "4", "--r", "2"),
    ("diagnostics", "--n", "6"),
], ids=["wider-than-n", "negative", "single-solve-default-s",
        "diagnostics-default-s"])
def test_subspace_width_outside_one_to_n_is_one_line_error(argv):
    # the bases would silently hold fewer columns than the width asked for
    proc = run_lpmc(*argv)
    assert_one_line_error(proc)
    assert "subspace widths must lie in" in proc.stderr


@pytest.mark.parametrize("experiment", ["single-solve", "diagnostics"])
def test_zero_rank_is_one_line_error(experiment):
    # the parameterization rejects it before any draw divides by r or
    # indexes its r-th singular value
    proc = run_lpmc(experiment, "--n", "24", "--r", "0", "--p-grid", "0.8")
    assert_one_line_error(proc)
    assert "dimensions must be positive" in proc.stderr


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


def test_nonfinite_sigma_is_one_line_error():
    # rejected with the config, before any draw builds a non-finite matrix
    proc = run_lpmc("subspace-noisy", "--n", "10", "--s", "3", "--p-grid",
                    "0.5", "--trials", "1", "--sigma", "inf")
    assert_one_line_error(proc)
    assert "sigma must be finite and nonnegative, got inf" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("subspace-noisy", "--n", "10", "--s", "3", "--p-grid", "0.5",
     "--trials", "1"),
    ("skew-compare", "--n", "10", "--s", "2", "--p-grid", "0.5",
     "--trials", "1"),
    ("diagnostics",),
], ids=["subspace-noisy", "skew-compare", "diagnostics"])
def test_overflowing_sigma_is_one_line_error(argv):
    # a finite sigma the config takes, whose noise draw overflows: the error
    # names sigma, not the non-finite m it would have built
    proc = run_lpmc(*argv, "--sigma", "1e308")
    assert_one_line_error(proc)
    assert "sigma" in proc.stderr
    assert proc.stdout == ""


NOISY_10 = ("subspace-noisy", "--n", "10", "--s", "3", "--p-grid", "0.5",
            "--trials", "1")
SOLVE_10 = ("single-solve", "--n", "10", "--r", "2", "--p-grid", "0.5")


@pytest.mark.parametrize("argv, sigma", [
    (NOISY_10, "1e150"), (NOISY_10, "1e200"), (NOISY_10, "1e230"),
    *[(SOLVE_10 + ("--kind", kind), "1e250") for kind in KINDS],
    (SOLVE_10 + ("--kind", "skew"), "1e200"),
], ids=["1e150", "1e200", "noisy-1e230", *[f"{k}-1e250" for k in KINDS],
        "skew-1e200"])
def test_sigma_that_overflows_the_start_is_one_line_error(argv, sigma):
    # the noise draw is finite, but the start overflows: its ||grad||^2
    # (1e150), its row hinge (1e200), its gradient (1e230, 1e250) or the
    # skew start's Youla norm (1e200). One numeric-failure line, no
    # warnings, and no argument error from a non-finite gradient
    proc = run_lpmc(*argv, "--sigma", sigma)
    assert_one_line_error(proc, code=2)
    assert "at the initial point" in proc.stderr
    assert proc.stdout == ""


def test_zero_max_iters_is_one_line_error():
    proc = run_lpmc(*fast_args("--max-iters", "0"))
    assert_one_line_error(proc)
    assert "max_iters must be positive" in proc.stderr


def test_empty_diagnostics_mask_names_its_rate():
    proc = run_lpmc("diagnostics", "--p-grid", "0.01")
    assert_one_line_error(proc)
    assert "empty mask" in proc.stderr
    assert "p = 0.01" in proc.stderr


def test_unopenable_out_path_is_one_line_error(tmp_path):
    # a NUL byte reaches --out only through an argument file; open() raises
    # ValueError for it before the sweep runs
    path = tmp_path / "nul.args"
    path.write_text("--out a\0b.csv\n")
    proc = run_lpmc(*fast_args(f"@{path}"))
    assert_one_line_error(proc)
    assert "null" in proc.stderr


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
    # a flag the experiment does not read is an error, from an argument
    # file and typed
    flag = "--" + key.replace("_", "-")
    path = tmp_path / "key.args"
    path.write_text(f"{flag} {value}\n")
    unrecognized = f"unrecognized arguments: {flag} {value}"
    proc = run_lpmc(experiment, *SMALL[experiment], f"@{path}")
    assert_one_line_error(proc)
    assert unrecognized in proc.stderr
    proc = run_lpmc(experiment, *SMALL[experiment], flag, value)
    assert_one_line_error(proc)
    assert unrecognized in proc.stderr


def test_init_outside_its_modes_or_experiments_is_one_line_error(tmp_path):
    # init has two modes, and diagnostics, which never solves, takes none
    path = tmp_path / "init.args"
    path.write_text("--init foo\n")
    proc = run_lpmc(*fast_args(f"@{path}"))
    assert_one_line_error(proc)
    assert "argument --init: invalid choice: 'foo'" in proc.stderr
    proc = run_lpmc("diagnostics", "--init", "random")
    assert_one_line_error(proc)
    assert "--init" in proc.stderr


def test_init_flag_choices_are_the_modes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(fast_args("--init", "scaled"))
    assert exc.value.code == 1
    assert "spectral" in capsys.readouterr().err


def test_kind_flag_choices_are_the_kinds(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(fast_args("--kind", "foo"))
    assert exc.value.code == 1
    assert "rectangular" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [fast_args(), ["diagnostics"]])
@pytest.mark.parametrize("out", ["missing/x.csv", "."])
def test_bad_out_path_fails_before_the_run(monkeypatch, capsys, tmp_path,
                                           argv, out):
    # a directory that does not exist, and a directory as the file
    def run(config):
        raise AssertionError("ran with an output path it cannot write")

    monkeypatch.setattr(cli, "run_experiment", run)
    monkeypatch.setattr(cli, "run_diagnostics", run)
    assert cli.main(argv + ["--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lpmc: ")
    assert len(captured.err.splitlines()) == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, runner", [(fast_args(), "run_experiment"),
                                          (["diagnostics"], "run_diagnostics")])
def test_failed_run_leaves_the_out_file_as_it_was(monkeypatch, capsys,
                                                   tmp_path, argv, runner):
    def boom(config):
        raise NumericError("sour")

    out = tmp_path / "kept.csv"
    out.write_bytes(b"earlier run\n")
    monkeypatch.setattr(cli, runner, boom)
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert cli.main(argv + ["--out", str(out), "--sigma", "-1"]) == 1
    capsys.readouterr()
    assert out.read_bytes() == b"earlier run\n"


@pytest.mark.parametrize("argv, runner", [(fast_args(), "run_experiment"),
                                          (["diagnostics"], "run_diagnostics")])
def test_failed_run_leaves_no_new_out_file(monkeypatch, capsys, tmp_path,
                                           argv, runner):
    def boom(config):
        raise NumericError("sour")

    monkeypatch.setattr(cli, runner, boom)
    assert cli.main(argv + ["--out", str(tmp_path / "new.csv")]) == 2
    capsys.readouterr()
    assert os.listdir(tmp_path) == []


def test_odd_skew_rank_leaves_no_new_out_file(capsys, tmp_path):
    # the run's set-up rejects the rank after --out is opened: a new path
    # is removed, and a file that was there keeps its bytes
    odd = ["single-solve", "--kind", "skew", "--n", "24", "--r", "3",
           "--p-grid", "0.8", "--out"]
    assert cli.main(odd + [str(tmp_path / "new.csv")]) == 1
    assert "even r" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"earlier run\n")
    assert cli.main(odd + [str(kept)]) == 1
    assert "even r" in capsys.readouterr().err
    assert kept.read_bytes() == b"earlier run\n"


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_help_lists_the_flags_its_settings_give(capsys, experiment):
    # argparse formats the help strings only when it renders the help
    with pytest.raises(SystemExit) as exc:
        cli.main([experiment, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {"--help"} | {
        "--" + key.replace("_", "-")
        for key, (_, readers, _) in SETTINGS.items() if experiment in readers}


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


def test_run_line_counts_objective_values(monkeypatch, capsys):
    # the stderr line adds up the records' value_evals
    records = []

    def recorded(config):
        out = run_experiment(config)
        records.extend(out[0])
        return out

    monkeypatch.setattr(cli, "run_experiment", recorded)
    assert cli.main(fast_args("--p-grid", "0.3,0.9")) == 0
    values = sum(r.value_evals for r in records)
    assert values > sum(r.iterations for r in records) > 0
    line = capsys.readouterr().err.strip()
    assert line.startswith("2 solves in ")
    assert line.endswith(f"s, {values} objective values")


def test_config_file_with_flag_override(tmp_path, capsys):
    path = tmp_path / "run.args"
    path.write_text("--n 24 --r 2\n--s 4   # the subspace width\n"
                    "--p-grid 0.8 --trials 2 --seed 9\n# comment line\n")
    out = tmp_path / "run.csv"
    assert cli.main(["single-solve", f"@{path}",
                     "--trials", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 2     # header plus the single overridden trial
    # the file writes the bytes the same flags write typed
    typed = tmp_path / "typed.csv"
    assert cli.main(fast_args("--trials", "1", "--out", str(typed))) == 0
    capsys.readouterr()
    assert out.read_bytes() == typed.read_bytes()


# One row per CLI config whose same-seed rerun must write the same bytes,
# with what its output must show besides: "pass", a report that ends
# "result: PASS", or "recovers", a success rate of 1.0 in every cell.
RERUNS = {
    "single-solve": (fast_args(), None),
    # the report's witnesses and curvature gaps run as one stack per kind
    "diagnostics": (["diagnostics"], "pass"),
    # psd and skew truths at n = 15 through that stack axis
    "diagnostics-30": (["diagnostics", "--n", "30", "--s", "10", "--seed",
                        "3"], "pass"),
    # 100 x 100 kinds, stacked in groups of draws under the default bound
    "diagnostics-100": (["diagnostics", "--n", "100", "--seed", "3"],
                        "pass"),
    # stacks on the observed-entry kernel, so point by point
    "diagnostics-100-entry": (["diagnostics", "--n", "100", "--p-grid",
                               "0.02", "--seed", "3"], "pass"),
    # the kinds whose line search starts at step 1/2
    "single-solve-psd": (["single-solve", "--kind", "psd", "--n", "40",
                          "--r", "2", "--p-grid", "0.5", "--trials", "3"],
                         "recovers"),
    "single-solve-skew": (["single-solve", "--kind", "skew", "--n", "40",
                           "--r", "2", "--p-grid", "0.5", "--trials", "3"],
                          "recovers"),
    # the observed-entry kernel in block coordinates
    "subspace-phase-entry": (["subspace-phase", "--n", "60", "--s", "6,10",
                              "--p-grid", "0.02", "--trials", "3"], None),
    # both kinds on the observed-entry kernel with formed factors, where a
    # line-search candidate rejected at its fit term skips the most work
    "skew-compare-entry": (["skew-compare", "--n", "200", "--s", "2,4",
                            "--p-grid", "0.02", "--trials", "2"], None),
    # skew-symmetric noise
    "skew-compare-noisy": (["skew-compare", "--n", "30", "--s", "2,4",
                            "--p-grid", "0.5", "--trials", "2", "--sigma",
                            "0.05"], None),
}


@pytest.mark.parametrize("argv, shows", RERUNS.values(), ids=RERUNS)
def test_reruns_write_identical_files(tmp_path, capsys, argv, shows):
    # the flags typed, then the same flags from an argument file: the file
    # under --out (every trial row of a sweep, or the report) must repeat
    path = tmp_path / "run.args"
    path.write_text(" ".join(argv[1:]) + "\n")
    typed, filed = tmp_path / "typed.out", tmp_path / "file.out"
    assert cli.main(argv + ["--out", str(typed)]) == 0
    assert cli.main([argv[0], f"@{path}", "--out", str(filed)]) == 0
    capsys.readouterr()
    assert typed.read_bytes() == filed.read_bytes()
    text = typed.read_text()
    if shows == "pass":
        assert text.endswith("result: PASS\n")
    if shows == "recovers":
        # the summary rows below their header; the last field is the rate
        rates = [line.rsplit(",", 1)[1] for line in text.splitlines()
                 if line.startswith("#summary,")][1:]
        assert rates and set(rates) == {"1.0"}


def test_serial_and_laned_cells_write_the_same_csv(tmp_path):
    # with BLAS on one thread, a cell of n >= 300 runs its solves on two
    # forked lanes, and on one usable CPU one after the other
    if (not hasattr(os, "sched_setaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        pytest.skip("needs os.sched_setaffinity and two usable CPUs")
    for argv in (("skew-compare", "--n", "300", "--s", "2,4", "--p-grid",
                  "0.3", "--trials", "2"),
                 ("subspace-phase", "--n", "300", "--s", "10,20,30,40",
                  "--p-grid", "0.003")):
        serial, laned = tmp_path / "serial.csv", tmp_path / "laned.csv"
        for out, cpu in ((serial, min(os.sched_getaffinity(0))),
                         (laned, None)):
            proc = run_lpmc(*argv, "--out", str(out), cpu=cpu,
                            OPENBLAS_NUM_THREADS="1")
            assert proc.returncode == 0, proc.stderr
        assert serial.read_bytes() == laned.read_bytes()


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
    # a kind without bases records the rank it solves at as s_or_r
    for kind, r in (("psd", "3"), ("skew", "4"), ("rectangular", "3")):
        out = tmp_path / f"{kind}.csv"
        assert cli.main(["single-solve", "--kind", kind, "--n", "24", "--r",
                         r, "--p-grid", "0.8", "--seed", "9",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().splitlines()[1].startswith(
            f"single-solve,0,0.8,{r},{kind},")
