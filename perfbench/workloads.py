"""The benchmark's workloads: what one round runs, and the checks on its
outputs.

A round is one operation of the closed loop: one call of an lpmc entry point,
the same call ``lpmc.cli.main`` makes. On a sweep that is ``run_experiment``
plus ``render_csv`` for one trial at one sampling rate (4 solves on
phase-sparse, 6 on skew-dense); on diagnostics-desk it is one
``run_diagnostics`` report. Each round gets its own master seed, derived
from the workload seed by ``master_seeds``; lpmc only ever sees the generated
configs.

The entry points are looked up on their module (``experiments.run_experiment``)
at every call, never bound here, so the tracer's wrappers are seen while
they are installed.
"""

import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass

from lpmc import experiments

KNOWN_TERMINATIONS = ("grad-tol", "iter-cap", "empty-mask")


@dataclass(frozen=True)
class RoundResult:
    seconds: float        # time inside lpmc calls; checks are not timed
    failed: bool
    outcomes: int         # solves of a sweep trial, or 1 report
    recovered: int        # solves within SUCCESS_REL_ERR, or a PASS report
    digest: str           # sha256 of the CSV text or of the report text
    problems: tuple       # failed output checks, beyond failed operations


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    round_s: float        # mean seconds per round at the seed state
    full: dict            # ExperimentConfig fields of a measured round
    desk: dict            # desk-size fields for set-up and smoke runs
    passes: int = 1       # times a measured run repeats its rounds

    def config(self, master_seed, desk=False):
        fields = self.desk if desk else self.full
        return experiments.default_config(self.experiment,
                                          master_seed=master_seed, **fields)

    def run_round(self, master_seed, desk=False):
        cfg = self.config(master_seed, desk)
        if self.experiment == "diagnostics":
            return _diagnostics_round(cfg)
        return _sweep_round(cfg)


_DIAGNOSTICS_DEFAULT = dict(n1=24, n2=24, r=2, sweep=(8,), p_grid=(0.6,),
                           sigma=0.02, trials=1)

WORKLOADS = {w.name: w for w in (
    # ~250 of 250k entries observed, yet every objective call does dense
    # n x n mask arithmetic: where observed-entry kernels and the line
    # search show their gains
    Workload(
        "phase-sparse", "subspace-phase", round_s=2.75,
        full=dict(n1=500, n2=500, r=2, sweep=(10, 20, 30, 40),
                  p_grid=(0.001,), sigma=0.0, trials=1, max_iters=500),
        desk=dict(n1=40, n2=40, r=2, sweep=(6, 10), p_grid=(0.3,),
                  sigma=0.0, trials=1, max_iters=100)),
    # the same objective at ~50k observed entries, symmetric mask model, two
    # parameterizations: a density-dependent change must hold its ground here
    Workload(
        "skew-dense", "skew-compare", round_s=1.8,
        full=dict(n1=500, n2=500, r=4, sweep=(4, 10, 20), p_grid=(0.2,),
                  sigma=0.0, trials=1, max_iters=500),
        desk=dict(n1=30, n2=30, r=4, sweep=(4,), p_grid=(0.4,),
                  sigma=0.0, trials=1, max_iters=100)),
    # the default report at n=24: witnesses, landscape checks and linalg do
    # the work and the objective is cheap, so LAPACK changes show only here.
    # A 30 ms report slows by up to 2x in spells of seconds to a minute on a
    # shared host, so each report runs once per pass and counts at its best
    Workload(
        "diagnostics-desk", "diagnostics", round_s=0.032,
        full=_DIAGNOSTICS_DEFAULT, desk=_DIAGNOSTICS_DEFAULT, passes=10),
)}


def master_seeds(workload, seed, count):
    """Master seeds of a run's rounds, a pure function of the workload seed."""
    return [int.from_bytes(hashlib.sha256(
        f"perfbench|{workload}|{seed}|{k}".encode()).digest()[:4], "big")
        for k in range(count)]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _raised(cfg, outcomes, started):
    print(f"perfbench: round with master seed {cfg.master_seed} raised",
          file=sys.stderr)
    traceback.print_exc(file=sys.stderr)
    return RoundResult(time.perf_counter() - started, True, outcomes, 0, "",
                       ())


def _solve_failed(rec, cfg):
    """A solve fails on a non-finite error, an unknown termination, or a
    record that contradicts itself."""
    err = rec.relative_error
    return (not (math.isfinite(err) and err >= 0.0)
            or rec.termination not in KNOWN_TERMINATIONS
            or rec.success != int(math.sqrt(err)
                                   <= experiments.SUCCESS_REL_ERR)
            or (rec.termination == "iter-cap"
                and rec.iterations != cfg.max_iters))


def _csv_problems(text, records, summaries):
    """The rendered CSV must carry every record losslessly, then the
    summary section."""
    cols = experiments.RECORD_COLUMNS
    lines = text.splitlines()
    if lines[0] != ",".join(cols):
        return ["csv header"]
    problems = []
    for line, rec in zip(lines[1:], records):
        row = dict(zip(cols, line.split(",")))
        if (float(row["relative_error"]) != rec.relative_error
                or int(row["iterations"]) != rec.iterations
                or row["termination"] != rec.termination
                or row["seed"] != rec.seed):
            problems.append(f"csv row of trial {rec.trial} s_or_r "
                            f"{rec.s_or_r} {rec.solver}")
    body = lines[1 + len(records):]
    if len(body) < 1 + len(summaries) or not body[0].startswith("#summary,"):
        problems.append("csv summary section")
    successes = sum(s.success_rate * s.trials for s in summaries)
    if abs(successes - sum(r.success for r in records)) > 1e-9:
        problems.append("summary success rates disagree with the records")
    return problems


def _sweep_round(cfg):
    solvers = 2 if cfg.experiment == "skew-compare" else 1
    solves = len(cfg.sweep) * len(cfg.p_grid) * cfg.trials * solvers
    started = time.perf_counter()
    try:
        records, summaries = experiments.run_experiment(cfg)
        text = experiments.render_csv(records, summaries)
    except Exception:
        return _raised(cfg, solves, started)
    seconds = time.perf_counter() - started
    problems = _csv_problems(text, records, summaries)
    if len(records) != solves:
        problems.append(f"{len(records)} records, expected {solves}")
    return RoundResult(
        seconds, any(_solve_failed(r, cfg) for r in records), solves,
        sum(r.success for r in records), _sha256(text), tuple(problems))


def _diagnostics_round(cfg):
    started = time.perf_counter()
    try:
        text, ok = experiments.run_diagnostics(cfg)
    except Exception:
        return _raised(cfg, 1, started)
    seconds = time.perf_counter() - started
    lines = text.splitlines()
    problems = []
    if lines[:2] != ["report: landscape diagnostics",
                     f"master_seed: {cfg.master_seed}"]:
        problems.append("report header")
    if lines[-1] != f"result: {'PASS' if ok else 'FAIL'}":
        problems.append("report result line disagrees with the ok flag")
    if any(": " not in line for line in lines):
        problems.append("report line without 'key: value'")
    return RoundResult(seconds, not ok, 1, int(ok), _sha256(text),
                       tuple(problems))
