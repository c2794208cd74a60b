"""Tests for the sweep driver, CSV emission, and the diagnostics battery."""

import threading
import time
import types

import numpy as np
import pytest

import lpmc.cli as cli
import lpmc.experiments as experiments
import lpmc.linalg as linalg
from lpmc.errors import NumericError
from lpmc.experiments import (CellSummary, TrialRecord, default_config,
                              render_csv, run_diagnostics, run_experiment,
                              summarize, write_csv)
from lpmc.instances import rectangular_instance
from lpmc.optimizer import SolveConfig
from lpmc.parameterization import RectangularParam, balanced_witness
from lpmc.sampling import RngState


def tiny_phase(**overrides):
    base = dict(n1=24, n2=24, r=2, sweep=(4,), p_grid=(0.7,), sigma=0.0,
                trials=2, master_seed=11)
    base.update(overrides)
    return default_config("subspace-phase", **base)


# --------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        default_config("no-such-sweep")
    with pytest.raises(ValueError):
        tiny_phase(p_grid=(0.0,))
    with pytest.raises(ValueError):
        tiny_phase(p_grid=(0.5, 1.2))
    with pytest.raises(ValueError):
        tiny_phase(trials=0)
    with pytest.raises(ValueError, match="max_iters must be positive"):
        tiny_phase(max_iters=0)
    with pytest.raises(ValueError):
        tiny_phase(sweep=())
    with pytest.raises(ValueError):
        default_config("single-solve", kind="foo")
    with pytest.raises(ValueError):
        default_config("single-solve", sweep=(4, 6))
    with pytest.raises(ValueError):
        default_config("diagnostics", sweep=(8, 4))
    with pytest.raises(ValueError):
        default_config("diagnostics", p_grid=(0.6, 0.1))
    with pytest.raises(ValueError):
        tiny_phase(sigma=-0.5)
    with pytest.raises(ValueError):
        tiny_phase(sigma=float("nan"))
    with pytest.raises(ValueError, match="finite and nonnegative, got inf"):
        tiny_phase(sigma=float("inf"))


@pytest.mark.parametrize("fields", [dict(sweep=(4, 4)),
                                    dict(sweep=(4, 6, 4)),
                                    dict(p_grid=(0.5, 0.5)),
                                    dict(p_grid=(0.3, 0.5, 0.3))],
                         ids=["sweep", "sweep-apart", "p_grid",
                              "p_grid-apart"])
def test_config_rejects_repeated_grid_values(fields):
    # a repeated value would rerun the same streams and pool the identical
    # trials into one summary cell with twice the trial count
    name = next(iter(fields))
    with pytest.raises(ValueError, match=f"{name} repeats a value"):
        tiny_phase(**fields)


@pytest.mark.parametrize("experiment, key, fields", [
    ("subspace-phase", "kind", dict(kind="psd")),
    ("skew-compare", "kind", dict(kind="skew")),
    ("diagnostics", "kind", dict(kind="rectangular")),
    ("skew-compare", "r", dict(r=9)),
    ("diagnostics", "trials", dict(trials=7)),
    ("diagnostics", "lambda", dict(lam=5.0)),
    ("diagnostics", "alpha", dict(alpha=0.1)),
    ("diagnostics", "max_iters", dict(max_iters=3)),
    ("diagnostics", "init", dict(init="random")),
])
def test_config_rejects_fields_the_experiment_ignores(experiment, key,
                                                      fields):
    # the library gives the error the CLI gives for the same key
    with pytest.raises(ValueError) as exc:
        default_config(experiment, **fields)
    assert str(exc.value) == f"{experiment} takes no key {key!r}"


@pytest.mark.parametrize("experiment, fields, what", [
    ("diagnostics", dict(n2=7), "diagnostics"),
    ("skew-compare", dict(n1=16, n2=20), "skew-compare"),
    ("single-solve", dict(n2=33, kind="psd"), "kind 'psd'"),
    ("single-solve", dict(n2=33, kind="skew"), "kind 'skew'"),
])
def test_config_rejects_an_n2_that_square_instances_ignore(experiment,
                                                           fields, what):
    with pytest.raises(ValueError) as exc:
        default_config(experiment, **fields)
    cfg = dict(experiments._DEFAULTS[experiment], **fields)
    assert str(exc.value) == (f"{what} builds square matrices: "
                              f"n2={cfg['n2']} must equal n1={cfg['n1']}")


def test_config_takes_a_non_square_n2_where_factors_read_it():
    for kind in ("subspace", "rectangular"):
        assert default_config("single-solve", n2=33, kind=kind).n2 == 33
    # widths up to min(n1, n2) = 33; the default 40 is rejected
    assert default_config("subspace-phase", n2=33,
                          sweep=(10, 20, 30)).n2 == 33


@pytest.mark.parametrize("fields", [dict(n1=12, n2=20, sweep=(4, 13)),
                                    dict(n1=12, n2=12, sweep=(0, 4))],
                         ids=["above-min-side", "zero"])
def test_config_rejects_widths_the_bases_cannot_hold(fields):
    # the CLI tests cover widths above n, negative widths and the defaults
    # of single-solve and diagnostics
    with pytest.raises(ValueError, match=r"subspace widths must lie in "
                                         r"\[1, 12\]"):
        default_config("subspace-noisy", **fields)


def test_config_checks_the_width_only_where_the_sweep_is_one():
    # the other kinds of single-solve take s only at its default, 6
    for kind in ("rectangular", "psd", "skew"):
        assert default_config("single-solve", n1=4, n2=4, kind=kind).n1 == 4
    assert default_config("subspace-phase", n1=12, n2=12,
                          sweep=(1, 12)).sweep == (1, 12)


def test_config_takes_ignored_fields_at_their_defaults():
    # the benchmark's configs spell out default values of fields their
    # experiment does not read
    assert default_config("skew-compare", r=4).r == 4
    assert default_config("diagnostics", n1=24, n2=24, r=2, sweep=(8,),
                          p_grid=(0.6,), sigma=0.02, trials=1,
                          max_iters=500, kind="subspace") == (
        default_config("diagnostics"))


def test_config_rejects_an_unknown_init():
    with pytest.raises(ValueError, match="init must be one of"):
        tiny_phase(init="scaled")


def test_solver_defaults_are_stated_once():
    # literals, since a test that reads SolveConfig's defaults moves with them
    assert (SolveConfig().max_iters, SolveConfig().init) == (500, "spectral")
    for experiment in experiments.EXPERIMENTS:
        if experiment != "diagnostics":
            cfg = default_config(experiment)
            assert (cfg.max_iters, cfg.init) == (500, "spectral"), experiment


def test_config_defaults_and_overrides():
    cfg = default_config("single-solve")
    assert cfg.n1 == cfg.n2 == 60 and cfg.trials == 1
    cfg = default_config("single-solve", n1=30, n2=30, kind="psd")
    assert cfg.n1 == 30 and cfg.kind == "psd"


# ------------------------------------------------------------------ sweeps

def test_phase_sweep_records_and_summary():
    records, summaries = run_experiment(tiny_phase())
    assert len(records) == 2
    assert all(r.solver == "subspace" for r in records)
    assert all(r.termination in ("grad-tol", "iter-cap") for r in records)
    assert len(summaries) == 1
    cell = summaries[0]
    assert cell.trials == 2
    assert cell.success_rate == 1.0     # p = 0.7 at this size always recovers


def test_sparse_phase_cells_record_empty_masks():
    records, _ = run_experiment(tiny_phase(p_grid=(1e-8,)))
    assert len(records) == 2
    for rec in records:
        assert rec.termination == "empty-mask"
        assert rec.relative_error == 1.0
        assert rec.success == 0
        assert rec.iterations == 0


def test_single_solve_full_observation_is_exact():
    cfg = default_config("single-solve", n1=40, n2=40, sweep=(6,),
                         p_grid=(1.0,), master_seed=2)
    records, summaries = run_experiment(cfg)
    assert records[0].success == 1
    assert records[0].relative_error <= 1e-12
    assert summaries[0].success_rate == 1.0


@pytest.mark.parametrize("rel_err, success", [(2e-3, 0), (5e-4, 1)])
def test_success_is_an_unsquared_relative_error_of_at_most_1e_3(
        monkeypatch, rel_err, success):
    # at p = 1 without noise the data are the truth, so a solve that
    # returns them scaled by 1 + rel_err misses it by rel_err
    def scaled_solve(spec, config):
        return types.SimpleNamespace(
            m_hat=(1.0 + rel_err) * spec.observed, iterations=1,
            termination="grad-tol", wall_time=0.0, value_evals=1)

    monkeypatch.setattr(experiments, "solve", scaled_solve)
    (record,), _ = run_experiment(default_config(
        "single-solve", n1=12, n2=12, sweep=(3,), p_grid=(1.0,)))
    assert record.relative_error == pytest.approx(rel_err ** 2, rel=1e-6)
    assert record.success == success


def without_wall_time(rec):
    return {k: v for k, v in vars(rec).items() if k != "wall_time"}


def test_single_solve_runs_every_grid_value():
    cfg = default_config("single-solve", n1=24, n2=24, sweep=(4,),
                         p_grid=(0.3, 0.9), trials=2, master_seed=9)
    records, summaries = run_experiment(cfg)
    assert [(r.p, r.trial) for r in records] == [
        (0.3, 0), (0.3, 1), (0.9, 0), (0.9, 1)]
    assert [s.p for s in summaries] == [0.3, 0.9]
    # streams are keyed by p: the first column is the one-p run's
    alone, _ = run_experiment(default_config(
        "single-solve", n1=24, n2=24, sweep=(4,), p_grid=(0.3,), trials=2,
        master_seed=9))
    assert [without_wall_time(r) for r in records[:2]] == [
        without_wall_time(r) for r in alone]


def test_phase_sweep_cells_are_paired():
    # a record depends only on its (p, t, s) cell, not on the other values
    # of the sweep, so cells at the same (p, t) see the same mask
    grid = dict(n1=20, n2=20, r=2, trials=2, master_seed=13, max_iters=60)
    records, _ = run_experiment(default_config(
        "subspace-phase", sweep=(4, 6), p_grid=(0.3, 0.8), **grid))
    assert len(records) == 8
    for s in (4, 6):
        for p in (0.3, 0.8):
            alone, _ = run_experiment(default_config(
                "subspace-phase", sweep=(s,), p_grid=(p,), **grid))
            cell = [r for r in records if r.s_or_r == s and r.p == p]
            assert [without_wall_time(r) for r in cell] == [
                without_wall_time(r) for r in alone]


def test_unsorted_phase_sweep_matches_one_value_runs():
    # the bases of every width are sliced from the widest width's bases,
    # wherever it sits in the sweep; each must equal its own build
    grid = dict(n1=20, n2=20, r=2, p_grid=(0.4,), trials=2, master_seed=17,
                max_iters=60)
    records, _ = run_experiment(default_config(
        "subspace-phase", sweep=(10, 4, 6), **grid))
    for s in (10, 4, 6):
        alone, _ = run_experiment(default_config(
            "subspace-phase", sweep=(s,), **grid))
        cell = [r for r in records if r.s_or_r == s]
        assert [without_wall_time(r) for r in cell] == [
            without_wall_time(r) for r in alone]


@pytest.mark.parametrize("sweep", [(4, 10), (10, 4)])
def test_skew_compare_rank_cells_match_one_rank_runs(sweep):
    # each rank draws its unit-block truth from its own stream, so a rank's
    # records do not depend on the other ranks of the sweep or their order
    grid = dict(n1=20, n2=20, p_grid=(0.5,), trials=2, master_seed=19,
                max_iters=60)
    records, _ = run_experiment(default_config(
        "skew-compare", sweep=sweep, **grid))
    alone, _ = run_experiment(default_config(
        "skew-compare", sweep=(4,), **grid))
    cell = [r for r in records if r.s_or_r == 4]
    assert len(cell) == 4
    assert [without_wall_time(r) for r in cell] == [
        without_wall_time(r) for r in alone]


def test_skew_compare_solvers_share_the_data(monkeypatch):
    seen = []

    def recording_solve(spec, config):
        seen.append((spec.param.kind, spec.mask.matrix, spec.observed,
                     (spec.p_hat, spec.lam, spec.alpha)))
        return solve(spec, config)

    solve = experiments.solve
    monkeypatch.setattr(experiments, "solve", recording_solve)
    # the recording order is the order of the calls, which only the serial
    # path fixes
    monkeypatch.setattr(experiments, "_solve_workers",
                        lambda solvers, entries: 1)
    cfg = default_config("skew-compare", n1=16, n2=16, sweep=(2, 4),
                         p_grid=(0.6,), trials=2, master_seed=5,
                         max_iters=20)
    run_experiment(cfg)
    assert [k for k, _, _, _ in seen] == ["skew", "rectangular"] * 4
    for (_, mask_a, obs_a, tune_a), (_, mask_b, obs_b, tune_b) in zip(
            seen[0::2], seen[1::2]):
        assert np.array_equal(mask_a, mask_b)
        # the free solver's spec shares the skew spec's observations and
        # tuning
        assert obs_b is obs_a
        assert tune_b == tune_a
    # and both sweep values of a trial share one mask
    assert np.array_equal(seen[0][1], seen[2][1])
    assert not np.array_equal(seen[0][1], seen[4][1])


DENSE_SKEW_COMPARE = dict(n1=40, n2=40, sweep=(2, 4), p_grid=(0.5,),
                          trials=2, master_seed=3)


def test_concurrent_solvers_write_the_serial_csv(monkeypatch):
    # one worker is the serial loop; with two, each cell's skew and free
    # solves run on pool threads and the records keep the serial order
    threads = set()

    def recording_solve(spec, config):
        threads.add(threading.current_thread())
        return solve(spec, config)

    solve = experiments.solve
    monkeypatch.setattr(experiments, "solve", recording_solve)
    cfg = default_config("skew-compare", **DENSE_SKEW_COMPARE)
    texts = []
    for workers in (1, 2):
        monkeypatch.setattr(
            experiments, "_solve_workers",
            lambda solvers, entries, w=workers: min(solvers, w))
        threads.clear()
        texts.append(render_csv(*run_experiment(cfg)))
        on_main = threads == {threading.main_thread()}
        assert on_main == (workers == 1)
    assert texts[0] == texts[1]


def test_a_solver_error_leaves_the_run_as_in_the_serial_loop(monkeypatch):
    # both solvers of the second rank fail; the free one fails first, yet
    # the skew solver's error, the first in submission order, is raised, and
    # no pool thread is left running
    def failing_solve(spec, config):
        if spec.param.r == 4:
            if spec.param.kind == "skew":
                time.sleep(0.05)
            raise NumericError(f"{spec.param.kind} failed")
        return solve(spec, config)

    solve = experiments.solve
    monkeypatch.setattr(experiments, "solve", failing_solve)
    cfg = default_config("skew-compare", **DENSE_SKEW_COMPARE)
    before = set(threading.enumerate())
    for workers in (1, 2):
        monkeypatch.setattr(
            experiments, "_solve_workers",
            lambda solvers, entries, w=workers: min(solvers, w))
        with pytest.raises(NumericError, match="^skew failed$"):
            run_experiment(cfg)
        assert set(threading.enumerate()) == before


@pytest.mark.parametrize("cpus, env, solvers, workers", [
    ({0, 1}, {}, 2, 1),                              # BLAS on every CPU
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({0, 1}, {"OMP_NUM_THREADS": "1"}, 2, 2),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 1),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "many"}, 2, 1),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, 1, 1),   # one solver per cell
    ({0}, {"OPENBLAS_NUM_THREADS": "1"}, 2, 1),      # one usable CPU
    ({0, 1, 2, 3}, {"OPENBLAS_NUM_THREADS": "2"}, 2, 2),
    ({0, 1, 2}, {"OPENBLAS_NUM_THREADS": "4"}, 2, 1),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "²"}, 2, 1),  # a digit int() rejects
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "²", "OMP_NUM_THREADS": "1"}, 2, 2),
])
def test_solve_workers_fill_the_cpus_blas_leaves(monkeypatch, cpus, env,
                                                   solvers, workers):
    monkeypatch.setattr(experiments.os, "sched_getaffinity",
                        lambda pid: set(cpus), raising=False)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    large = experiments.THREADS_FROM_ENTRIES
    assert experiments._solve_workers(solvers, large) == workers
    # a smaller matrix stays serial under any pin
    assert experiments._solve_workers(solvers, large - 1) == 1
    # without an affinity call the CPU count stands in
    monkeypatch.delattr(experiments.os, "sched_getaffinity")
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: len(cpus))
    assert experiments._solve_workers(solvers, large) == workers


def test_skew_compare_produces_paired_solvers():
    cfg = default_config("skew-compare", n1=20, n2=20, sweep=(2,),
                         p_grid=(0.8,), trials=2, master_seed=5)
    records, summaries = run_experiment(cfg)
    assert [r.solver for r in records] == ["skew", "rectangular"] * 2
    assert {s.solver for s in summaries} == {"skew", "rectangular"}


def test_noisy_skew_compare_observes_skew_data(monkeypatch):
    # the skew truth's noise is skew-symmetric and its mask mirrored, so
    # both solvers of every cell see a skew-symmetric observed matrix
    observed = []

    def recording_solve(spec, config):
        observed.append(spec.observed)
        return solve(spec, config)

    solve = experiments.solve
    monkeypatch.setattr(experiments, "solve", recording_solve)
    grid = dict(n1=16, n2=16, sweep=(2,), p_grid=(0.7,), trials=2,
                master_seed=5)
    noisy = default_config("skew-compare", sigma=0.05, **grid)
    text = render_csv(*run_experiment(noisy))
    assert len(observed) == 4           # two solvers, two trials
    for obs in observed:
        assert obs.any() and np.array_equal(obs, -obs.T)
    assert render_csv(*run_experiment(noisy)) == text
    clean = default_config("skew-compare", sigma=0.0, **grid)
    assert render_csv(*run_experiment(clean)) != text


def test_noisy_sweep_prefers_narrow_search_space():
    # same data per trial, wider parameterization: more noise is absorbed
    cfg = default_config("subspace-noisy", n1=60, n2=60, sweep=(6, 18),
                         p_grid=(0.4,), sigma=0.02, trials=3, master_seed=7)
    records, _ = run_experiment(cfg)
    mse = {}
    for s in (6, 18):
        errs = [r.relative_error for r in records if r.s_or_r == s]
        assert len(errs) == 3
        mse[s] = float(np.mean(errs))
    assert mse[6] < mse[18]


def test_diagnostics_experiment_has_no_records():
    with pytest.raises(ValueError):
        run_experiment(default_config("diagnostics"))


# ----------------------------------------------------------------- summaries

def test_summarize_cell_statistics():
    recs = [TrialRecord("subspace-phase", t, 0.5, 4, "subspace", "0" * 12,
                        err, int(err <= 1e-6), 3, "grad-tol", 0.0, 4)
            for t, err in enumerate((1e-2, 1e-4))]
    cells = summarize(recs)
    assert len(cells) == 1
    assert cells[0].mean_log10_err == pytest.approx(-3.0)
    assert cells[0].median_log10_err == pytest.approx(-3.0)
    assert cells[0].success_rate == 0.0


def test_summarize_floors_exact_zeros():
    recs = [TrialRecord("subspace-phase", 0, 0.5, 4, "subspace", "0" * 12,
                        0.0, 1, 3, "grad-tol", 0.0, 4)]
    assert summarize(recs)[0].mean_log10_err == -32.0


# ----------------------------------------------------------------------- csv

def test_csv_layout():
    records, summaries = run_experiment(tiny_phase())
    text = render_csv(records, summaries)
    lines = text.splitlines()
    assert lines[0].startswith("experiment,trial,p,s_or_r,solver,seed,")
    # each solve's objective values, at least its start and one candidate
    # per iteration, live on the record but not in the CSV
    assert "value_evals" not in lines[0]
    assert all(r.value_evals > r.iterations for r in records)
    rows = [l for l in lines if not l.startswith("#")]
    assert len(rows) == 1 + len(records)
    summary_lines = [l for l in lines if l.startswith("#summary")]
    assert summary_lines[0] == ("#summary,experiment,p,s_or_r,solver,trials,"
                                "mean_log10_err,median_log10_err,success_rate")
    assert len(summary_lines) == 1 + len(summaries)
    trend_lines = [l for l in lines if l.startswith("#trend")]
    assert len(trend_lines) == 2     # header plus the single (s, solver) group
    assert text.endswith("\n")


def test_csv_floats_roundtrip():
    records, summaries = run_experiment(tiny_phase())
    line = render_csv(records, summaries).splitlines()[1]
    err = float(line.split(",")[6])
    assert err == records[0].relative_error


def test_trend_residual_zero_for_monotone_rates():
    def cell(p, rate):
        return CellSummary("subspace-phase", p, 4, "subspace", 10,
                           -1.0, -1.0, rate)

    text = render_csv([], [cell(0.1, 0.0), cell(0.2, 0.5), cell(0.3, 1.0)])
    trend = [l for l in text.splitlines()
             if l.startswith("#trend,subspace-phase")][0]
    assert float(trend.split(",")[-1]) == 0.0

    text = render_csv([], [cell(0.1, 1.0), cell(0.2, 0.0)])
    trend = [l for l in text.splitlines()
             if l.startswith("#trend,subspace-phase")][0]
    assert float(trend.split(",")[-1]) == pytest.approx(np.sqrt(0.5))


def test_csv_byte_determinism():
    a = render_csv(*run_experiment(tiny_phase()))
    b = render_csv(*run_experiment(tiny_phase()))
    assert a == b
    c = render_csv(*run_experiment(tiny_phase(master_seed=12)))
    assert a != c


def test_init_reaches_the_solves_and_adds_no_column():
    # the start is a setting of the run, like lam or max_iters: it changes
    # the outcomes, not the CSV's columns
    spectral = render_csv(*run_experiment(tiny_phase(init="spectral")))
    random = render_csv(*run_experiment(tiny_phase(init="random")))
    assert spectral != random
    header = ",".join(experiments.RECORD_COLUMNS)
    assert spectral.splitlines()[0] == random.splitlines()[0] == header
    assert "init" not in experiments.RECORD_COLUMNS


def test_write_csv_matches_render(tmp_path):
    records, summaries = run_experiment(tiny_phase())
    path = tmp_path / "out.csv"
    write_csv(path, records, summaries)
    assert path.read_text() == render_csv(records, summaries)


# ---------------------------------------------------------------- diagnostics

def test_diagnostics_battery_passes():
    cfg = default_config("diagnostics", master_seed=3)
    text, ok = run_diagnostics(cfg)
    assert ok
    assert text.endswith("result: PASS\n")
    for key in ("witness.subspace.passes: 10/10",
                "witness.skew.passes: 10/10",
                "gap.holds: 5/5",
                "concentration.checks: 10/10"):
        assert key in text


def test_diagnostics_report_keys_in_order():
    text, _ = run_diagnostics(default_config("diagnostics"))
    per_kind = [f"{section}.{kind}.{name}"
                for kind in ("subspace", "rectangular", "psd", "skew")
                for section, name in (("witness", "passes"),
                                      ("witness", "worst_fit"),
                                      ("witness", "worst_balance"),
                                      ("witness", "worst_corr_eig"),
                                      ("curvature", "two_route_residual"))]
    assert [line.split(": ", 1)[0] for line in text.splitlines()] == [
        "report", "master_seed", *per_kind,
        "gap.instances", "gap.holds", "gap.min_margin", "gap.noise_terms",
        "profile.sigma_top", "profile.sigma_bottom", "profile.cond",
        "profile.incoherence", "tuning.p", "tuning.lam", "tuning.alpha",
        "noise.surrogate", "concentration.gap_norm",
        "concentration.gap_ratio", "concentration.count",
        "concentration.checks", "concentration.energy_max_deviation",
        "result"]


def test_failing_witness_fails_the_report(monkeypatch, capsys):
    # the rectangular witnesses align the root of another truth of the same
    # shape, which balanced_witness documents as failing the certificate;
    # the gap and concentration sections still hold
    config = default_config("diagnostics")
    _, other = rectangular_instance(config.n1, config.n2, config.r,
                                    RngState(1).derive("other"))
    root = RectangularParam.witness_root
    monkeypatch.setattr(RectangularParam, "witness_root",
                        lambda self, m: root(self, other))
    text, ok = run_diagnostics(config)
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    assert not ok and fields["result"] == "FAIL"
    assert fields["witness.rectangular.passes"] == "0/10"
    assert fields["witness.psd.passes"] == "10/10"
    assert fields["gap.holds"] == "5/5"
    assert cli.main(["diagnostics"]) == 2
    assert capsys.readouterr().out == text


def test_diagnostics_report_is_stable():
    cfg = default_config("diagnostics", master_seed=4)
    a, _ = run_diagnostics(cfg)
    b, _ = run_diagnostics(cfg)
    assert a == b


def test_diagnostics_noiseless_noise_lines_vanish():
    cfg = default_config("diagnostics", sigma=0.0, master_seed=5)
    text, ok = run_diagnostics(cfg)
    assert ok
    fields = dict(l.split(": ", 1) for l in text.splitlines())
    terms = fields["gap.noise_terms"].split()
    assert len(terms) == int(fields["gap.instances"]) > 0
    assert all(float(v) == 0.0 for v in terms)
    assert fields["noise.surrogate"].startswith("0.000000e+00")


def test_diagnostics_report_is_the_same_in_any_groups(monkeypatch):
    # each kind's draws, the gap section's witnesses and decompositions
    # and the concentration tuples are stacked in groups bounded by
    # linalg._STACK_ENTRIES; every stacked item is its point's own value
    # and the worst values fold in draw order, so the grouping leaves the
    # report's bytes as they are
    sizes = []

    def witness(param, thetas, *args):
        sizes.append(len(thetas))
        return balanced_witness(param, thetas, *args)

    monkeypatch.setattr(experiments, "balanced_witness", witness)
    default = linalg._STACK_ENTRIES

    def report(n, entries):
        monkeypatch.setattr(linalg, "_STACK_ENTRIES", entries)
        sizes.clear()
        config = default_config("diagnostics", n1=n, n2=n, master_seed=6)
        return run_diagnostics(config)[0], list(sizes)

    # n = 24: the default makes one group of each kind's 10 draws and of
    # the gap's 5 witnesses
    whole, whole_sizes = report(24, default)
    assert whole_sizes == [10, 10, 10, 10, 5]
    # groups of 1, then of 3 draws of the 24 x 24 kinds (the psd and skew
    # truths are 12 x 12), the last group of each shorter
    assert report(24, 1) == (whole, [1] * 45)
    assert report(24, 3 * 5 * 24 * 24) == (
        whole, [3, 3, 3, 1] * 2 + [10, 10] + [3, 2])
    # n = 100: the default rule makes groups of 5 draws of the 100 x 100
    # kinds
    grouped, grouped_sizes = report(100, default)
    assert grouped_sizes == [5, 5, 5, 5, 10, 10, 5]
    assert report(100, 2 ** 40) == (grouped, [10, 10, 10, 10, 5])
