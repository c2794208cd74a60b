"""Tests for the sweep driver, CSV emission, and the diagnostics battery."""

import os
import pickle
import signal
import threading
import time
import types

import numpy as np
import pytest

import lpmc.cli as cli
import lpmc.experiments as experiments
import lpmc.landscape as landscape
import lpmc.linalg as linalg
from lpmc.errors import NumericError
from lpmc.experiments import (CellSummary, ExperimentConfig, TrialRecord,
                              default_config, render_csv, run_diagnostics,
                              run_experiment, summarize, write_csv)
from lpmc.instances import assemble, rectangular_instance
from lpmc.landscape import (curvature_gap_decomposition, factor_curvature_gap,
                            param_curvature_gap)
from lpmc.optimizer import SolveConfig
from lpmc.parameterization import (RectangularParam, balanced_witness,
                                   x_of, y_of)
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
    with pytest.raises(ValueError, match="unknown experiment 'no-such'"):
        ExperimentConfig("no-such", 8, 8, 2, (4,), (0.5,), 0.0, 1)
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
    # path fixes, and the child lanes' calls are not recorded here
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


def test_phase_sweep_widths_share_one_spec_per_cell(monkeypatch):
    # every width of a subspace cell solves on the first width's spec with
    # its own parameterization, so a cell holds one observed array
    seen, built = [], []

    def recording_solve(spec, config):
        seen.append((spec.param.basis_u.shape[1], spec.observed))
        return solve(spec, config)

    def counting_assemble(*args, **kwargs):
        built.append(args[0].basis_u.shape[1])
        return assemble(*args, **kwargs)

    solve, assemble = experiments.solve, experiments.assemble
    monkeypatch.setattr(experiments, "solve", recording_solve)
    monkeypatch.setattr(experiments, "assemble", counting_assemble)
    run_experiment(tiny_phase(sweep=(4, 8, 6), max_iters=20))
    assert built == [4, 4]             # one spec per cell, two trials
    assert [s for s, _ in seen] == [4, 8, 6] * 2
    cells = [seen[:3], seen[3:]]
    for cell in cells:
        assert all(obs is cell[0][1] for _, obs in cell)
    assert cells[0][0][1] is not cells[1][0][1]


DENSE_SKEW_COMPARE = dict(n1=40, n2=40, sweep=(2, 4), p_grid=(0.5,),
                          trials=2, master_seed=3)
LANE_PHASE = dict(n1=40, n2=40, sweep=(4, 8, 6), p_grid=(0.1, 0.3),
                  trials=2, master_seed=3)


class LaneDeadline(BaseException):
    """Raised in the parent lane by deadline's alarm; a BaseException, so a
    lane does not record it as its solve's error and run on."""


@pytest.fixture
def deadline():
    # a lane that waits forever fails its test instead of hanging the run;
    # a forked child inherits the handler but not the alarm
    def expire(signum, frame):
        raise LaneDeadline("lanes still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def lanes_at(monkeypatch, lanes):
    monkeypatch.setattr(experiments, "_solve_workers",
                        lambda jobs, entries: min(jobs, lanes))


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("deadline")
def test_concurrent_solvers_write_the_serial_csv(monkeypatch, tmp_path):
    # one lane is the serial loop in this process; with two, a cell's solves
    # run in this process and a forked child, and the records keep the
    # serial order
    pids = tmp_path / "pids"

    def recording_solve(spec, config):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        # long enough that the child lane takes a solve of each cell
        time.sleep(0.02)
        return solve(spec, config)

    solve = experiments.solve
    monkeypatch.setattr(experiments, "solve", recording_solve)
    for experiment, fields in (("skew-compare", DENSE_SKEW_COMPARE),
                               ("subspace-phase", LANE_PHASE)):
        cfg = default_config(experiment, **fields)
        texts = []
        for lanes in (1, 2):
            lanes_at(monkeypatch, lanes)
            pids.write_text("")
            texts.append(render_csv(*run_experiment(cfg)))
            seen = set(pids.read_text().split())
            assert str(os.getpid()) in seen
            assert (len(seen) > 1) == (lanes == 2)
            no_child_left()
        assert texts[0] == texts[1]


@pytest.mark.usefixtures("deadline")
def test_a_solver_error_leaves_the_run_as_in_the_serial_loop(monkeypatch):
    # both solvers of the second rank fail; the free one fails first, yet
    # the skew solver's error, the first in item order, is raised, and no
    # child lane is left
    def failing_solve(spec, config):
        if spec.param.r == 4:
            if spec.param.kind == "skew":
                time.sleep(0.05)
            raise NumericError(f"{spec.param.kind} failed")
        return solve(spec, config)

    solve = experiments.solve
    monkeypatch.setattr(experiments, "solve", failing_solve)
    cfg = default_config("skew-compare", **DENSE_SKEW_COMPARE)
    for lanes in (1, 2):
        lanes_at(monkeypatch, lanes)
        with pytest.raises(NumericError, match="^skew failed$"):
            run_experiment(cfg)
        no_child_left()


@pytest.mark.usefixtures("deadline")
def test_a_lane_that_dies_mid_solve_raises(monkeypatch):
    # a child lane that ends without sending its results fails the run, and
    # neither hangs it nor stays behind
    parent = os.getpid()

    def dying_solve(spec, config):
        if os.getpid() != parent:
            os._exit(3)
        time.sleep(0.05)         # the child takes the next solve
        return solve(spec, config)

    solve = experiments.solve
    monkeypatch.setattr(experiments, "solve", dying_solve)
    lanes_at(monkeypatch, 2)
    cfg = default_config("skew-compare", **dict(DENSE_SKEW_COMPARE, trials=1))
    with pytest.raises(RuntimeError, match="exit code 3 before sending"):
        run_experiment(cfg)
    no_child_left()


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_lane_map_returns_any_number_of_items_in_order(lanes):
    # more items than one byte can number; the widest-first key only
    # changes which lane takes which
    items = list(range(300))
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else []
    assert experiments._lane_map(lambda i: i * i, items, lanes,
                                 key=lambda i: -i) == [i * i for i in items]
    assert experiments._lane_map(str, items, lanes) == [str(i) for i in items]
    no_child_left()
    # and every pipe is closed
    if fds:
        assert sorted(os.listdir("/proc/self/fd")) == sorted(fds)


@pytest.mark.usefixtures("deadline")
def test_lanes_take_items_in_key_order(tmp_path):
    # each lane takes its items in ascending order of the key; of ten items
    # on two lanes, one lane takes two at least
    log = tmp_path / "taken"

    def take(i):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {i}\n")
        return i

    items = list(range(10))
    assert experiments._lane_map(take, items, 2, key=lambda i: -i) == items
    taken = {}
    for line in log.read_text().splitlines():
        pid, i = line.split()
        taken.setdefault(pid, []).append(int(i))
    assert sorted(i for seq in taken.values() for i in seq) == items
    assert max(len(seq) for seq in taken.values()) > 1
    for seq in taken.values():
        assert seq == sorted(seq, reverse=True)


@pytest.mark.usefixtures("deadline")
def test_lanes_that_die_are_all_reaped():
    # the first dead child raises, and the finally reaps the other
    parent = os.getpid()

    def die(i):
        if os.getpid() != parent:
            os._exit(3)
        time.sleep(0.05)
        return i

    with pytest.raises(RuntimeError, match="exit code 3"):
        experiments._lane_map(die, list(range(6)), 3)
    no_child_left()


@pytest.mark.usefixtures("deadline")
def test_a_result_a_lane_cannot_send_raises():
    parent = os.getpid()

    def result(i):
        if os.getpid() == parent:
            time.sleep(0.05)        # the child takes the other items
            return i
        return lambda: i            # pickle cannot send a lambda

    with pytest.raises(RuntimeError, match="exit code 1 before sending"):
        experiments._lane_map(result, list(range(6)), 2)
    no_child_left()


@pytest.mark.usefixtures("deadline")
def test_an_interrupt_kills_the_child_lanes():
    parent = os.getpid()

    def interrupted(i):
        if os.getpid() == parent:
            time.sleep(0.05)        # the children take an item each
            raise KeyboardInterrupt
        time.sleep(30)

    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        experiments._lane_map(interrupted, list(range(4)), 3)
    assert time.perf_counter() - started < 10
    no_child_left()


@pytest.mark.usefixtures("deadline")
def test_lane_map_raises_the_first_error_in_item_order():
    def check(i):
        if i in (3, 7):
            raise ValueError(f"item {i}")
        return i

    for lanes in (1, 2):
        # item 7 runs first, so a lane meets its error first
        with pytest.raises(ValueError, match="^item 3$"):
            experiments._lane_map(check, list(range(10)), lanes,
                                  key=lambda i: -i)
        no_child_left()


def test_numeric_error_survives_a_pickle_round_trip():
    # a child lane sends its solves' errors back pickled
    estimate = np.arange(6.0).reshape(2, 3)
    back = pickle.loads(pickle.dumps(NumericError("diverged", estimate)))
    assert type(back) is NumericError
    assert str(back) == "diverged"
    assert np.array_equal(back.best_estimate, estimate)
    assert pickle.loads(pickle.dumps(NumericError("x"))).best_estimate is None


def test_one_lane_without_fork_or_beside_another_thread(monkeypatch):
    monkeypatch.setattr(experiments.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    large = experiments.LANES_FROM_ENTRIES
    # the count sees a thread once it starts (and a BLAS pool, which
    # numpy may have started before the test)
    before = experiments._threads()
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert experiments._threads() == before + 1
    finally:
        release.set()
        other.join()
    def no_proc(path):
        raise FileNotFoundError(path)

    with monkeypatch.context() as m:     # no /proc: Python's own count
        m.setattr(experiments.os, "listdir", no_proc)
        assert experiments._threads() == threading.active_count()
    # a forked child would hold only the forking thread of two
    for threads, lanes in ((1, 2), (2, 1)):
        monkeypatch.setattr(experiments, "_threads", lambda t=threads: t)
        assert experiments._solve_workers(4, large) == lanes
    monkeypatch.delattr(experiments.os, "fork")
    assert experiments._solve_workers(4, large) == 1


@pytest.mark.parametrize("cpus, env, jobs, lanes", [
    ({0, 1}, {}, 2, 1),                              # BLAS on every CPU
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({0, 1}, {"OMP_NUM_THREADS": "1"}, 2, 2),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 1),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "many"}, 2, 1),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, 1, 1),   # one solve per cell
    ({0}, {"OPENBLAS_NUM_THREADS": "1"}, 2, 1),      # one usable CPU
    ({0, 1, 2, 3}, {"OPENBLAS_NUM_THREADS": "2"}, 2, 2),
    ({0, 1, 2}, {"OPENBLAS_NUM_THREADS": "4"}, 2, 1),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "²"}, 2, 1),  # a digit int() rejects
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "²", "OMP_NUM_THREADS": "1"}, 2, 2),
])
def test_solve_workers_fill_the_cpus_blas_leaves(monkeypatch, cpus, env,
                                                   jobs, lanes):
    monkeypatch.setattr(experiments.os, "sched_getaffinity",
                        lambda pid: set(cpus), raising=False)
    # a BLAS pool started at import counts as a thread
    monkeypatch.setattr(experiments, "_threads", lambda: 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    large = experiments.LANES_FROM_ENTRIES
    assert experiments._solve_workers(jobs, large) == lanes
    # a smaller matrix stays serial under any pin
    assert experiments._solve_workers(jobs, large - 1) == 1
    # without an affinity call the CPU count stands in
    monkeypatch.delattr(experiments.os, "sched_getaffinity")
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: len(cpus))
    assert experiments._solve_workers(jobs, large) == lanes


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

    # the rates are fitted in the order of p, not of the summaries (an
    # unsorted p_grid lists its cells in grid order)
    text = render_csv([], [cell(0.3, 1.0), cell(0.1, 0.0), cell(0.2, 0.5)])
    trend = [l for l in text.splitlines()
             if l.startswith("#trend,subspace-phase")][0]
    assert float(trend.split(",")[-1]) == 0.0


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
        "gap.instances", "gap.holds", "gap.routes_agree", "gap.min_margin",
        "gap.noise_terms",
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


def test_failing_gap_bound_fails_the_report(monkeypatch):
    # every gap trial judged as failing fails the report, while the
    # witnesses and the concentration checks hold
    monkeypatch.setattr(landscape.GapReport, "holds", lambda self: False)
    text, ok = run_diagnostics(default_config("diagnostics"))
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    assert not ok and fields["result"] == "FAIL"
    assert fields["gap.holds"] == "0/5"
    assert fields["witness.rectangular.passes"] == "10/10"
    assert fields["concentration.checks"].split("/")[0] == (
        fields["concentration.checks"].split("/")[1])


def test_disagreeing_gap_routes_fail_the_report(monkeypatch):
    # a gap trial whose stencil misses its closed form fails the report,
    # while its bound holds
    monkeypatch.setattr(landscape.GapReport, "routes_agree",
                        lambda self: False)
    text, ok = run_diagnostics(default_config("diagnostics"))
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    assert not ok and fields["result"] == "FAIL"
    assert fields["gap.routes_agree"] == "0/5"
    assert fields["gap.holds"] == "5/5"


def test_diagnostics_folds_equal_the_whole_stacks():
    # the witness, curvature and margin lines fold the draws of each kind
    # group by group; the same folds over whole stacks, whose items are
    # their points' own bits, must print the same text
    config = default_config("diagnostics", master_seed=3)
    text, ok = run_diagnostics(config)
    assert ok
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    master = RngState(config.master_seed)
    p = config.p_grid[0]
    instances = experiments._diag_instances(config, master)
    want = {}
    for param, m_star in instances:
        tag = param.kind
        root = param.witness_root(m_star)
        pairs = master.derive("diagnostics", "theta", tag).generator() \
            .standard_normal((10, 2, param.d))
        thetas, deltas = pairs[:, 0], pairs[:, 1]
        mask = experiments._mask(param, p,
                                 master.derive("diagnostics", "mask", tag))
        spec = assemble(param, m_star, mask)
        cert = balanced_witness(param, thetas, m_star, root)
        kp = param_curvature_gap(spec, thetas, deltas)
        kf = factor_curvature_gap(x_of(param, thetas), y_of(param, thetas),
                                  x_of(param, deltas), y_of(param, deltas),
                                  spec)
        want[f"witness.{tag}.worst_fit"] = max(cert.residual_fit)
        want[f"witness.{tag}.worst_balance"] = max(cert.residual_balance)
        want[f"witness.{tag}.worst_corr_eig"] = min(cert.min_corr_eig)
        want[f"curvature.{tag}.two_route_residual"] = max(
            abs(kp - kf) / (1.0 + abs(kf)))
    param, m_star = instances[0]
    cells = [master.derive("diagnostics", "gap", t) for t in range(5)]
    thetas = np.array([cell.generator().standard_normal(param.d)
                       for cell in cells])
    xis = balanced_witness(param, thetas, m_star).xi
    noises = np.array([experiments._noise(param, config.sigma,
                                          cell.derive("noise"))
                       for cell in cells])
    specs = [assemble(param, m_star,
                      experiments._mask(param, p, cell.derive("mask")), noise)
             for cell, noise in zip(cells, noises)]
    reports = curvature_gap_decomposition(specs, thetas, xis, noises)
    want["gap.min_margin"] = min((r.bound_total - r.gap_factor) / r.scale
                                 for r in reports)
    assert {key: fields[key] for key in want} == {
        key: f"{value:.3e}" for key, value in want.items()}
    assert all(value > 0.0 for key, value in want.items()
               if key.endswith("worst_corr_eig"))


def test_failing_concentration_fails_the_report(monkeypatch):
    monkeypatch.setattr(landscape.ConcentrationReport, "all_hold",
                        property(lambda self: False))
    text, ok = run_diagnostics(default_config("diagnostics"))
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    assert not ok and fields["result"] == "FAIL"
    assert fields["gap.holds"] == "5/5"
    assert fields["witness.skew.passes"] == "10/10"


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
