"""Experiment sweeps, CSV emission, and the diagnostics battery.

run_experiment is the one sweep loop: p, then trial, then sweep value, then
solver. A per-experiment plan gives the ground truth of each sweep value
(subspace width s, skew rank r; a single-solve of a kind without bases has
the one value r, the rank it solves at) and its solvers, each a (label,
init-stream tags, parameterization) triple. The solves of one (p, trial)
cell, every sweep value and every solver, run on forked lanes when BLAS is
pinned to fewer threads than there are usable CPUs and the matrix is large
enough (_solve_workers, _lane_map), the widest sweep value first; records
and errors keep the serial loop's order. Streams derive from the master
seed:

  cell     (experiment, "p", repr(p), "t", t); its "mask" and "noise"
           children draw the data of every sweep value and solver of (p, t)
  init     the cell's ("init", s), ("init", "skew", r) / ("init", "rect", r),
           or ("init", kind) for single-solve
  truths   (experiment, "truth"), one stream for every s: the bases are
           drawn once at the widest s and every s takes their leading
           columns, which equal its own draw bit for bit (the Gram-Schmidt
           draws nest), so the truth is the same matrix for every s;
           or (experiment, "truth", r) per skew rank

The sweep value stays out of the cell's path, so cells at the same (p, t)
share masks and noise and comparisons are paired. Masks and noise follow the
truth's kind (pairs mirrored for skew truths), whatever the solver; in
skew-compare the free-factor solver gets the skew solver's observations.
Reruns with the same master seed write byte-identical CSV; per-trial wall
times therefore stay off the CSV (they live on the in-memory records, as
does each solve's count of objective values). The solver settings (lam,
alpha, max_iters, init) live on the ExperimentConfig, not on the records,
so a run under init "random" writes the CSV of the solver before the
spectral start existed, byte for byte.

CSV layout: one header line naming the serialized TrialRecord fields, one
row per trial, then a summary section whose lines are prefixed '#summary'
(first such line is the summary header). Floats are written with repr, so
parsing them back is lossless.
"""

import functools
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, fields, replace

import numpy as np

from .instances import (assemble, psd_instance, rectangular_instance,
                        skew_instance, subspace_instance)
from .landscape import (concentration_report, curvature_gap_decomposition,
                        factor_curvature_gap, ground_truth_profile,
                        noise_spectral_surrogate, param_curvature_gap,
                        tuning_conditions)
from .linalg import _groups
# not called here, but perfbench's tracer wraps this name (ROADMAP Standing,
# tracer binding)
from .objective import make_spec
from .optimizer import INITS, SolveConfig, solve
from .parameterization import (KINDS, PARAM_CLASSES, balanced_witness,
                               rectangular_param, subspace_param, x_of, y_of)
from .sampling import (RngState, _check_sigma, bernoulli_mask, gaussian_noise,
                       skew_gaussian_noise, symmetric_offdiag_mask)

EXPERIMENTS = ("subspace-noisy", "subspace-phase", "skew-compare",
               "single-solve", "diagnostics")

SUCCESS_REL_ERR = 1e-3     # unsquared relative Frobenius error


_SOLVING = tuple(e for e in EXPERIMENTS if e != "diagnostics")


def _ints(text):
    return tuple(int(v) for v in text.split(",") if v)


def _floats(text):
    return tuple(float(v) for v in text.split(",") if v)


# Every setting, declared once: its key (the CLI flag is --key with '_'
# written '-'), the ExperimentConfig fields it sets, the experiments that
# read them, and the flag's argparse settings. An experiment that does not
# read a field takes it only at that experiment's default.
SETTINGS = {
    "n": (("n1", "n2"), EXPERIMENTS,
          dict(type=int, help="side length (n1 = n2 = n)")),
    "r": (("r",), tuple(e for e in EXPERIMENTS if e != "skew-compare"),
          dict(type=int, help="target rank")),
    "s": (("sweep",), EXPERIMENTS,
          dict(type=_ints, help="subspace widths (or skew-compare ranks), "
                                "comma separated")),
    "p_grid": (("p_grid",), EXPERIMENTS,
               dict(type=_floats, help="sampling rates, comma separated")),
    "sigma": (("sigma",), EXPERIMENTS, dict(type=float, help="noise level")),
    "trials": (("trials",), _SOLVING, dict(type=int, help="trials per cell")),
    "seed": (("master_seed",), EXPERIMENTS,
             dict(type=int, help="master seed")),
    "lambda": (("lam",), _SOLVING,
               dict(type=float,
                    help="penalty weight (default: standard rule)")),
    "alpha": (("alpha",), _SOLVING,
              dict(type=float,
                   help="row-norm threshold (default: standard rule)")),
    "max_iters": (("max_iters",), _SOLVING,
                  dict(type=int, help="gradient-step cap")),
    "init": (("init",), _SOLVING,
             dict(choices=INITS, help="solver start: the spectral estimate "
                                      "of the data (default) or N(0, 1)")),
    "out": (("out",), EXPERIMENTS,
            dict(help="output path (CSV, or text report for diagnostics)")),
    "kind": (("kind",), ("single-solve",),
             dict(choices=KINDS, help="parameterization to solve with")),
}

# Full-scale defaults of each experiment; fields left out take the
# ExperimentConfig default.
_DEFAULTS = {
    "subspace-noisy": dict(n1=500, n2=500, r=2, sweep=(10, 20, 30, 40),
                           p_grid=tuple(k * 0.005 for k in range(1, 21)),
                           sigma=1.0 / 500.0, trials=10),
    "subspace-phase": dict(n1=500, n2=500, r=2, sweep=(10, 20, 30, 40),
                           p_grid=tuple(k * 1e-4 for k in range(1, 21)),
                           sigma=0.0, trials=10),
    "skew-compare": dict(n1=500, n2=500, r=4, sweep=(4, 10, 20),
                         p_grid=tuple(k * 0.01 for k in range(1, 21)),
                         sigma=0.0, trials=10),
    "single-solve": dict(n1=60, n2=60, r=2, sweep=(6,), p_grid=(0.3,),
                         sigma=0.0, trials=1),
    "diagnostics": dict(n1=24, n2=24, r=2, sweep=(8,), p_grid=(0.6,),
                        sigma=0.02, trials=1),
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n1: int
    n2: int
    r: int
    sweep: tuple            # subspace widths s, or skew-compare ranks r
    p_grid: tuple
    sigma: float
    trials: int
    master_seed: int = 0
    kind: str = "subspace"  # single-solve only
    lam: float = None       # None = standard tuning rule
    alpha: float = None
    max_iters: int = SolveConfig.max_iters
    init: str = SolveConfig.init  # solver start, one of optimizer.INITS
    out: str = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        defaults = {f.name: f.default for f in fields(self)}
        defaults.update(_DEFAULTS[self.experiment])
        for key, (names, readers, _) in SETTINGS.items():
            if self.experiment not in readers and any(
                    getattr(self, name) != defaults[name] for name in names):
                raise ValueError(f"{self.experiment} takes no key {key!r}")
        if not self.p_grid or not all(0.0 < p <= 1.0 for p in self.p_grid):
            raise ValueError("p_grid values must lie in (0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        # the solver's settings, checked where every solve checks them
        SolveConfig(max_iters=self.max_iters, init=self.init)
        _check_sigma(self.sigma)       # before any draw
        if not self.sweep:
            raise ValueError("sweep must be nonempty")
        for name in ("sweep", "p_grid"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                # a repeat reruns the same streams into the same cell
                raise ValueError(f"{name} repeats a value: {values}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        # only the subspace kind has widths (kind is "subspace" outside
        # single-solve)
        if self.kind != "subspace" and self.sweep != defaults["sweep"]:
            raise ValueError(f"single-solve with kind {self.kind!r} takes no "
                             "key 's'")
        # these build only n1 x n1 matrices, so a different n2 would be
        # ignored (kind is left at its default outside single-solve)
        square = PARAM_CLASSES[self.kind].square
        if self.n2 != self.n1 and (
                self.experiment in ("diagnostics", "skew-compare") or square):
            what = f"kind {self.kind!r}" if square else self.experiment
            raise ValueError(f"{what} builds square matrices: n2={self.n2} "
                             f"must equal n1={self.n1}")
        # the sweep holds subspace widths everywhere but skew-compare and
        # the other kinds of single-solve (kind is "subspace" elsewhere)
        width = min(self.n1, self.n2)
        if (self.experiment != "skew-compare" and self.kind == "subspace"
                and not all(1 <= s <= width for s in self.sweep)):
            raise ValueError(f"subspace widths must lie in [1, {width}], "
                             f"got {self.sweep}")
        if self.experiment == "single-solve" and len(self.sweep) > 1:
            raise ValueError("single-solve takes one sweep value; more would "
                             "repeat identical solves")
        if self.experiment == "diagnostics" and (len(self.sweep) > 1
                                                 or len(self.p_grid) > 1):
            raise ValueError("diagnostics takes one sweep value and one "
                             "p_grid value")


def default_config(experiment, **overrides):
    """Full-scale defaults for each sweep; overrides replace fields."""
    if experiment not in _DEFAULTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    return ExperimentConfig(experiment,
                            **dict(_DEFAULTS[experiment], **overrides))


@dataclass(frozen=True)
class TrialRecord:
    experiment: str
    trial: int
    p: float
    s_or_r: int
    solver: str
    seed: str               # stream token of the trial
    relative_error: float   # squared relative Frobenius error
    success: int
    iterations: int
    termination: str
    wall_time: float        # in-memory only, see module docstring; taken
                            # in the lane that ran the solve, so on lanes
                            # it includes the contention with the other
                            # lanes
    value_evals: int        # objective values of the solve, in-memory only


@dataclass(frozen=True)
class CellSummary:
    experiment: str
    p: float
    s_or_r: int
    solver: str
    trials: int
    mean_log10_err: float
    median_log10_err: float
    success_rate: float


RECORD_COLUMNS = ("experiment", "trial", "p", "s_or_r", "solver", "seed",
                  "relative_error", "success", "iterations", "termination")
SUMMARY_COLUMNS = ("experiment", "p", "s_or_r", "solver", "trials",
                   "mean_log10_err", "median_log10_err", "success_rate")


def _fmt(v):
    return repr(v) if isinstance(v, float) else str(v)


def _monotone_fit(values):
    """Least-squares nondecreasing fit by pooling adjacent violators."""
    blocks = []                      # [mean, weight, count]
    for v in values:
        cur = [float(v), 1.0, 1]
        while blocks and blocks[-1][0] > cur[0]:
            m, w, c = blocks.pop()
            tot = w + cur[1]
            cur = [(m * w + cur[0] * cur[1]) / tot, tot, c + cur[2]]
        blocks.append(cur)
    fit = []
    for m, _, c in blocks:
        fit.extend([m] * c)
    return fit


def _trend_lines(summaries):
    """Monotone-regression residual of success rate against p, one line per
    (s, solver) group of a phase sweep. Reported, never asserted."""
    groups = {}
    for s in summaries:
        if s.experiment != "subspace-phase":
            continue
        groups.setdefault((s.s_or_r, s.solver), []).append(s)
    if not groups:
        return []
    lines = ["#trend,experiment,s_or_r,solver,monotone_residual"]
    for (sr, solver), cells in sorted(groups.items()):
        cells.sort(key=lambda c: c.p)
        rates = [c.success_rate for c in cells]
        fit = _monotone_fit(rates)
        resid = math.sqrt(sum((a - b) ** 2 for a, b in zip(fit, rates)))
        lines.append(f"#trend,subspace-phase,{sr},{solver},{resid!r}")
    return lines


def render_csv(records, summaries):
    lines = [",".join(RECORD_COLUMNS)]
    for rec in records:
        lines.append(",".join(_fmt(getattr(rec, c)) for c in RECORD_COLUMNS))
    lines.append("#summary," + ",".join(SUMMARY_COLUMNS))
    for s in summaries:
        lines.append("#summary," + ",".join(_fmt(getattr(s, c))
                                            for c in SUMMARY_COLUMNS))
    lines.extend(_trend_lines(summaries))
    return "\n".join(lines) + "\n"


def write_csv(path, records, summaries):
    with open(path, "w", newline="\n") as fh:
        fh.write(render_csv(records, summaries))


def _log10_err(err):
    return math.log10(max(err, 1e-32))


def summarize(records):
    """One CellSummary per (experiment, p, s_or_r, solver) cell, in record
    order."""
    cells = {}
    for rec in records:
        key = (rec.experiment, rec.p, rec.s_or_r, rec.solver)
        cells.setdefault(key, []).append(rec)
    out = []
    for (exp, p, sr, solver), recs in cells.items():
        logs = [_log10_err(r.relative_error) for r in recs]
        out.append(CellSummary(
            experiment=exp, p=p, s_or_r=sr, solver=solver, trials=len(recs),
            mean_log10_err=float(np.mean(logs)),
            median_log10_err=float(np.median(logs)),
            success_rate=float(np.mean([r.success for r in recs]))))
    return out


def _trial(config, cell, t, p, job):
    """One solve of a sweep cell: job is (sweep value, data, m_star,
    solver), solver a (label, init-stream tags, parameterization) triple and
    data the cell's spec for the truth, None when the mask is empty."""
    value, data, m_star, (label, tags, param) = job
    stream = cell.derive(*tags)
    if data is None:
        # nothing observed: the objective is undefined, the estimate is 0,
        # and the trial counts as a failure at full relative error
        err, iterations, termination, wall, values = (1.0, 0, "empty-mask",
                                                      0.0, 0)
    else:
        # another parameterization of the same shape (skew-compare's free
        # solver, a later width of a subspace sweep) shares the cell's mask,
        # observed array and tuning
        spec = data if param is data.param else replace(data, param=param)
        result = solve(spec, SolveConfig(seed=stream,
                                         max_iters=config.max_iters,
                                         init=config.init))
        m_hat = result.m_hat
        m_hat -= m_star             # in place: no n1 x n2 temporary
        num = float(np.linalg.norm(m_hat)) ** 2
        err = num / float(np.linalg.norm(m_star)) ** 2
        iterations, termination = result.iterations, result.termination
        wall, values = result.wall_time, result.value_evals
    return TrialRecord(
        experiment=config.experiment, trial=t, p=p, s_or_r=value,
        solver=label, seed=stream.token, relative_error=err,
        success=int(math.sqrt(err) <= SUCCESS_REL_ERR),
        iterations=iterations, termination=termination, wall_time=wall,
        value_evals=values)


# the fewest matrix entries at which a cell's solves run on forked lanes.
# Lanes gained at every size measured (BLAS pinned, in-process, two lanes
# against the serial loop: subspace-phase ratio 0.73 at n = 60 and
# 0.57-0.64 at n = 100-300, skew-compare 0.60 at n = 100 and 0.55 at 200),
# but the spans a child lane records never reach a tracer installed in the
# parent. So the benchmark's desk-size rounds, the traced tier-1 tests and
# the digest configs must stay below the cut-off, on the serial loop.
LANES_FROM_ENTRIES = 300 * 300


def _threads():
    """This process's threads: the kernel's count where /proc lists them, a
    BLAS pool included (Python 3.12 warns at a fork by the same count), else
    the threads the threading module knows."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _solve_workers(jobs, entries):
    """Lanes for the jobs solves of one cell of an n1 x n2 problem with
    n1 * n2 = entries: min(jobs, usable CPUs // BLAS threads), at least 1;
    and 1 below LANES_FROM_ENTRIES, without os.fork, or while the process
    runs more than one thread (a forked child keeps only the forking thread,
    and any lock another thread held stays taken in it).

    BLAS threads are read as OpenBLAS reads them: OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS, a value that is not a positive integer counting as
    unset, and unset meaning every CPU. So only a run with BLAS pinned below
    the CPU count solves concurrently; an unpinned one gives 1 lane, since
    two solves that each spread over every CPU ran 1.5x slower side by side
    than one after the other.
    """
    if (entries < LANES_FROM_ENTRIES or not hasattr(os, "fork")
            or _threads() > 1):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        cpus = os.cpu_count() or 1
    blas = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        # ASCII digits only: str.isdigit also takes superscript digits,
        # which int() rejects
        if value.isascii() and value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(1, min(jobs, cpus // blas))


def _lane(fn, items, order, take, put):
    """One lane's share of _lane_map: {item index: (raised, fn's result or
    its exception)} for each item it takes from the pipe (read end take,
    write end put)."""
    done = {}
    while True:
        # the pipe holds one 8-byte count of the items taken: the lane that
        # reads it has it alone until it writes back the count plus one
        k = int.from_bytes(os.read(take, 8), "little")
        os.write(put, (k + 1).to_bytes(8, "little"))
        if k >= len(order):
            return done
        i = order[k]
        try:
            done[i] = (False, fn(items[i]))
        except Exception as exc:
            done[i] = (True, exc)


def _lane_map(fn, items, lanes, key=None):
    """[fn(item) for item in items] on this process and lanes - 1 forked
    children, which inherit fn and the items through the fork.

    Every lane takes the next item from one pipe, in ascending order of key
    (item order without one), until none is left; a child then sends back
    only its results or exceptions, pickled, and leaves by os._exit. The
    results come back in item order, and once every item has run the first
    error in item order is raised; a child that ended without sending its
    results raises RuntimeError. One lane is the serial loop, in item order.
    Every child is reaped before this returns or raises, and killed first
    when this process raised or was interrupted.
    """
    if lanes == 1:
        return [fn(item) for item in items]
    order = range(len(items))
    if key:
        order = sorted(order, key=lambda i: key(items[i]))
    take, put = os.pipe()
    fds, sends, reaped = [take, put], {}, set()  # sends: pid -> read end
    try:
        os.write(put, (0).to_bytes(8, "little"))
        for _ in range(lanes - 1):
            read, write = os.pipe()
            fds += (read, write)
            pid = os.fork()
            if pid == 0:
                try:
                    with open(write, "wb", closefd=False) as out:
                        pickle.dump(_lane(fn, items, order, take, put), out)
                except BaseException:
                    # a forked child never returns into its parent's stack
                    os._exit(1)
                os._exit(0)
            os.close(fds.pop())     # the child's end: EOF when it ends
            sends[pid] = read
        done = _lane(fn, items, order, take, put)
        for pid, read in sends.items():
            with open(read, "rb", closefd=False) as sent:
                data = sent.read()
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            if status:
                raise RuntimeError(
                    f"solver lane {pid} ended with exit code "
                    f"{os.waitstatus_to_exitcode(status)} before sending its "
                    "results")
            done.update(pickle.loads(data))
    finally:
        for fd in fds:
            os.close(fd)
        for pid in sends.keys() - reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    outcomes = [done[i] for i in range(len(items))]
    for raised, value in outcomes:
        if raised:
            raise value
    return [value for _, value in outcomes]


def _mask(param, p, rng):
    """The data's observation model: skew truths are observed by unordered
    pairs, every other kind entry by entry."""
    if param.kind == "skew":
        return symmetric_offdiag_mask(param.n1, p, rng)
    return bernoulli_mask(param.n1, param.n2, p, rng)


def _noise(param, sigma, rng):
    """The data's noise model, skew-symmetric for skew truths."""
    if param.kind == "skew":
        return skew_gaussian_noise(param.n1, sigma, rng)
    return gaussian_noise(param.n1, param.n2, sigma, rng)


def _plan(config, master):
    """Per sweep value: (value, truth param, m_star, solvers), each solver a
    (label, init-stream tags, parameterization) triple."""
    exp, n1, n2, r = config.experiment, config.n1, config.n2, config.r
    rng = master.derive(exp, "truth")
    sweep = config.sweep
    if exp == "single-solve" and config.kind != "subspace":
        sweep = (r,)
    if exp in ("subspace-noisy", "subspace-phase"):
        # every s draws its bases from the one truth stream, so the bases of
        # each s are the leading columns of the widest ones
        wide = max(config.sweep)
        widest, m_star = subspace_instance(n1, n2, r, wide, wide, rng)
    plan = []
    for v in sweep:
        if exp == "skew-compare":
            param, m_star = skew_instance(n1, v, rng.derive(v),
                                          unit_blocks=True)
            solvers = [("skew", ("init", "skew", v), param),
                       ("rectangular", ("init", "rect", v),
                        rectangular_param(n1, n2, v))]
        elif exp == "single-solve":
            param, m_star = {
                "subspace": lambda: subspace_instance(n1, n2, r, v, v, rng),
                "rectangular": lambda: rectangular_instance(n1, n2, r, rng),
                "psd": lambda: psd_instance(n1, r, rng),
                "skew": lambda: skew_instance(n1, r, rng)}[config.kind]()
            solvers = [(config.kind, ("init", config.kind), param)]
        else:
            param = subspace_param(widest.basis_u[:, :v],
                                   widest.basis_v[:, :v], r)
            solvers = [("subspace", ("init", v), param)]
        plan.append((v, param, m_star, solvers))
    return plan


def _jobs(config, plan, mask, noise):
    """The solves of one cell, in the serial loop's order: (sweep value,
    data, m_star, solver) each, data None when the mask is empty. The cell's
    data live only as long as the list, so they are gone before the next
    cell draws its mask."""
    jobs, data, last = [], None, None
    for value, truth, m_star, solvers in plan:
        # the widths of a subspace sweep share one truth, so their solves
        # share one spec, which _trial gives each width's parameterization
        if m_star is not last and mask.count:
            data = assemble(truth, m_star, mask, noise, config.lam,
                            config.alpha)
        last = m_star
        jobs += [(value, data, m_star, solver) for solver in solvers]
    return jobs


def run_experiment(config):
    """The sweep loop (see the module docstring); returns (records,
    summaries)."""
    if config.experiment == "diagnostics":
        raise ValueError("diagnostics does not produce trial records")
    master = RngState(config.master_seed)
    exp = config.experiment
    plan = _plan(config, master)
    model = plan[0][1]       # every truth of a sweep has one kind and size
    lanes = _solve_workers(sum(len(step[3]) for step in plan),
                           model.n1 * model.n2)
    records = []
    for p in config.p_grid:
        for t in range(config.trials):
            cell = master.derive(exp, "p", repr(p), "t", t)
            mask = _mask(model, p, cell.derive("mask"))
            noise = None
            if config.sigma > 0.0:
                noise = _noise(model, config.sigma, cell.derive("noise"))
            # the widest sweep value's solves are the longest: first
            records += _lane_map(functools.partial(_trial, config, cell, t, p),
                                 _jobs(config, plan, mask, noise), lanes,
                                 key=lambda job: -job[0])
    return records, summarize(records)


# ---------------------------------------------------------------------------
# diagnostics battery


def _diag_instances(config, master):
    rng = master.derive("diagnostics", "instances")
    n, r, s = config.n1, config.r, config.sweep[0]
    r_skew = r + r % 2
    return [subspace_instance(n, n, r, s, s, rng.derive("sub")),
            rectangular_instance(n, n, r, rng.derive("rect")),
            psd_instance(max(n // 2, r + 2), r, rng.derive("psd")),
            skew_instance(max(n // 2, r_skew + 2), r_skew,
                          rng.derive("skew"))]


def run_diagnostics(config):
    """Run the invariant battery at desk scale and emit a key: value report.

    Returns (report text, ok flag); ok is False when a hard invariant
    (witness certificate, two-route curvature agreement, gap inequality and
    its two routes' agreement, deviation inequality) fails.
    """
    master = RngState(config.master_seed)
    lines = []
    ok = True

    def emit(key, value):
        lines.append(f"{key}: {value}")

    emit("report", "landscape diagnostics")
    emit("master_seed", config.master_seed)

    instances = _diag_instances(config, master)
    p = config.p_grid[0]
    # one decomposition per truth; every witness below only aligns it
    roots = [param.witness_root(m_star) for param, m_star in instances]

    # witness certificates and two-route curvature agreement, each kind's
    # draws as stacks: a call per group (5 n1 n2 entries a draw, for its
    # stencil points), each point's values its own
    for (param, m_star), root in zip(instances, roots):
        tag = param.kind
        gen = master.derive("diagnostics", "theta", tag).generator()
        worst_fit = worst_bal = worst_id = 0.0
        worst_corr = float("inf")
        draws, passes = 10, 0
        mask = _mask(param, p, master.derive("diagnostics", "mask", tag))
        spec = assemble(param, m_star, mask)
        # drawn theta_1, delta_1, theta_2, ...: one call draws them in order
        pairs = gen.standard_normal((draws, 2, param.d))
        for group in _groups(draws, 5 * param.n1 * param.n2):
            thetas, deltas = pairs[group, 0], pairs[group, 1]
            cert = balanced_witness(param, thetas, m_star, root)
            passes += int(np.count_nonzero(cert.passes))
            kp = param_curvature_gap(spec, thetas, deltas)
            kf = factor_curvature_gap(
                x_of(param, thetas), y_of(param, thetas),
                x_of(param, deltas), y_of(param, deltas), spec)
            # folded in draw order, as max and min treat a NaN by its
            # position
            for i in range(len(kp)):
                worst_fit = max(worst_fit, cert.residual_fit[i])
                worst_bal = max(worst_bal, cert.residual_balance[i])
                worst_corr = min(worst_corr, cert.min_corr_eig[i])
                worst_id = max(worst_id,
                               abs(kp[i] - kf[i]) / (1.0 + abs(kf[i])))
        emit(f"witness.{tag}.passes", f"{passes}/{draws}")
        emit(f"witness.{tag}.worst_fit", f"{worst_fit:.3e}")
        emit(f"witness.{tag}.worst_balance", f"{worst_bal:.3e}")
        emit(f"witness.{tag}.worst_corr_eig", f"{worst_corr:.3e}")
        emit(f"curvature.{tag}.two_route_residual", f"{worst_id:.3e}")
        if passes < draws or worst_id > 1e-8:
            ok = False

    # gap decomposition on noisy subspace instances, as stacks in the
    # groups of the certificates: a witness and a decomposition call per
    # group
    param, m_star = instances[0]
    holds = agree = 0
    margin = float("inf")
    noise_terms = []
    trials = 5
    cells = [master.derive("diagnostics", "gap", t) for t in range(trials)]
    thetas = np.array([cell.generator().standard_normal(param.d)
                       for cell in cells])
    for group in _groups(trials, 5 * param.n1 * param.n2):
        xis = balanced_witness(param, thetas[group], m_star, roots[0]).xi
        masks = [_mask(param, p, cell.derive("mask")) for cell in cells[group]]
        noises = np.array([_noise(param, config.sigma, cell.derive("noise"))
                           for cell in cells[group]])
        specs = [assemble(param, m_star, mask, noise)
                 for mask, noise in zip(masks, noises)]
        for report in curvature_gap_decomposition(specs, thetas[group], xis,
                                                  noises):
            holds += report.holds()
            agree += report.routes_agree()
            margin = min(margin, (report.bound_total - report.gap_factor)
                         / report.scale)
            noise_terms.append(report.term_noise)
    emit("gap.instances", trials)
    emit("gap.holds", f"{holds}/{trials}")
    emit("gap.routes_agree", f"{agree}/{trials}")
    emit("gap.min_margin", f"{margin:.3e}")
    emit("gap.noise_terms", " ".join(f"{v:.3e}" for v in noise_terms))
    if holds < trials or agree < trials:
        ok = False

    # profile, tuning windows, noise surrogate on the subspace instance
    prof = ground_truth_profile(m_star, param.r)
    emit("profile.sigma_top", f"{prof.sigma_top:.6e}")
    emit("profile.sigma_bottom", f"{prof.sigma_bottom:.6e}")
    emit("profile.cond", f"{prof.cond:.6e}")
    emit("profile.incoherence", f"{prof.incoherence:.6e}")
    # the last gap instance's spec holds the standard-rule lam and alpha
    spec, mask, noise = specs[-1], masks[-1], noises[-1]
    tuning = tuning_conditions(prof, p, spec.lam, spec.alpha)
    emit("tuning.p", f"{p!r} floor {tuning.p_floor:.3e} "
                     f"binding {tuning.p_binding} ok {tuning.p_ok}")
    emit("tuning.lam", f"{spec.lam!r} window [{tuning.lam_lo:.3e}, "
                       f"{tuning.lam_hi:.3e}] ok {tuning.lam_ok}")
    emit("tuning.alpha", f"{spec.alpha!r} window [{tuning.alpha_lo:.3e}, "
                         f"{tuning.alpha_hi:.3e}] ok {tuning.alpha_ok}")
    surro = noise_spectral_surrogate(param, mask, noise)
    emit("noise.surrogate", f"{surro.value:.6e} ({surro.formula})")

    # mask concentration
    conc = concentration_report(mask, master.derive("diagnostics", "conc"))
    emit("concentration.gap_norm", f"{conc.gap_norm:.6e}")
    emit("concentration.gap_ratio", f"{conc.gap_ratio:.6e}")
    emit("concentration.count",
         f"{conc.count.count} expected {conc.count.expected:.1f} "
         f"within {conc.count.within}")
    emit("concentration.checks",
         f"{sum(c.holds() for c in conc.checks)}/{len(conc.checks)}")
    emit("concentration.energy_max_deviation",
         f"{conc.energy_max_deviation:.3e}")
    if not conc.all_hold:
        ok = False

    emit("result", "PASS" if ok else "FAIL")
    return "\n".join(lines) + "\n", ok
