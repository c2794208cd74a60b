"""lpmc benchmark: one closed loop over one workload, printing its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload phase-sparse --seed 1 --seconds 25 \\
        --trace 0

A single caller runs one operation at a time (one sweep trial, or one
diagnostics report) through lpmc's public entry points, checks every output,
and prints the metrics of BENCHMARK.json, the last line being one JSON object
with the keys correct, attempted, failed and metrics. ``--trace 0`` prints
the end-to-end metrics; a workload with several passes runs its rounds once
per pass and times each round at its best over the passes. ``--trace 1``
runs half the operations' worth of rounds, each once untraced and once
traced, and prints the per-layer metrics. ``--seconds`` sizes the run: it
holds as many operations as the seed state completes in that time, so the
work, the counts and the output digests are fixed by the seed and
``--seconds``.
``--smoke`` runs two desk-size rounds, for the benchmark's own tests.

lpmc is imported from ``src/`` of the checkout holding this file; the run
exits with an error, printing no result, when those sources are missing.

Held-out seed: 20200330. Do not use it while writing a change; a claimed
gain must also hold on it.
"""

import os

# pinned before numpy loads: results are byte-identical only at a fixed BLAS
# thread count, and one thread runs the n=500 sweeps as fast as two
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 9
SMOKE_ROUNDS = 2


def use_repo_sources():
    """Put the checkout's src/ first on the path, or exit when it is not
    there (no installed copy of lpmc may stand in for it)."""
    if not (SRC / "lpmc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lpmc sources at {SRC}")
    sys.path.insert(0, str(SRC))


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be
    asked (another BLAS, or a numpy without bundled libraries)."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "blas_threads_runtime": _openblas_threads(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def setup_sample(workload, k):
    """Seconds a fresh interpreter takes to import lpmc and run one
    desk-size round of the workload."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), workload, str(k)],
        capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def run_measured(workload, seeds, desk):
    """The rounds, once per pass of the workload, the passes one after
    another, with the set-up samples spread evenly over them so that setup_s
    sees the machine over the whole run, not one moment of it.
    Returns (round results of each pass, median set-up seconds)."""
    slots = len(seeds) * workload.passes
    due = [slots * j // SETUP_SAMPLES for j in range(SETUP_SAMPLES)]
    passes, samples = [], []
    for p in range(workload.passes):
        results = []
        for k, seed in enumerate(seeds):
            for _ in range(due.count(p * len(seeds) + k)):
                samples.append(setup_sample(workload.name, len(samples)))
            results.append(workload.run_round(seed, desk))
        passes.append(results)
    return passes, statistics.median(samples)


def run_traced(workload, seeds, desk, tracer):
    """Each round untraced, then again traced: alternating keeps drift in
    the machine's speed out of trace.overhead_frac."""
    plain, traced = [], []
    for k, seed in enumerate(seeds):
        plain.append(workload.run_round(seed, desk))
        tracer.op = k
        with tracer.installed():
            traced.append(workload.run_round(seed, desk))
    return plain, traced


def end_to_end(results, ops, setup_s):
    """End-to-end metrics of a run's rounds (their first pass) and of the
    seconds of each round, best over the passes."""
    work = sum(ops)
    recovered = sum(r.recovered for r in results)
    return {
        "setup_s": (setup_s, "s"),
        "work_s": (work, "s"),
        "op_s.p50": (statistics.median(ops), "s"),
        "recovered_frac": (recovered / sum(r.outcomes for r in results),
                           "fraction"),
        # with nothing recovered the run counts as one recovery, which keeps
        # the metric finite and still at its worst for the run
        "s_per_recovery": (work / max(recovered, 1), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="two desk-size rounds (benchmark self-test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    use_repo_sources()
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, master_seeds
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment()
    problems = []
    if env["blas_threads_runtime"] not in (None, BLAS_THREADS):
        problems.append(f"BLAS runs {env['blas_threads_runtime']} threads")

    warm = workload.run_round(master_seeds("warm-up", args.seed, 1)[0],
                              desk=True)
    problems += warm.problems
    if warm.failed:
        problems.append("the desk-size warm-up round failed")

    # operations a run makes at the seed state's speed: rounds x passes when
    # measured, rounds x 2 (untraced and traced) when traced
    operations = (SMOKE_ROUNDS * workload.passes if args.smoke
                  else max(workload.passes, round(args.seconds
                                                  / workload.round_s)))
    if args.trace:
        seeds = master_seeds(workload.name, args.seed,
                             math.ceil(operations / 2))
        tracer = Tracer()
        plain, traced = run_traced(workload, seeds, args.smoke, tracer)
        if [r.digest for r in traced] != [r.digest for r in plain]:
            problems.append("tracing changed the outputs")
        metrics = layer_metrics(tracer, len(seeds),
                                sum(r.seconds for r in traced),
                                sum(r.seconds for r in plain))
        results = plain + traced
    else:
        seeds = master_seeds(workload.name, args.seed,
                             operations // workload.passes)
        passes, setup_s = run_measured(workload, seeds, args.smoke)
        if any([r.digest for r in again] != [r.digest for r in passes[0]]
               for again in passes[1:]):
            problems.append("a repeated round gave other outputs")
        best = [min(r.seconds for r in runs) for runs in zip(*passes)]
        metrics = end_to_end(passes[0], best, setup_s)
        results = [r for run in passes for r in run]

    attempted = len(results)
    failed = sum(r.failed for r in results)
    for r in results:
        problems += r.problems
    digests = [r.digest for r in results[:len(seeds)]]
    combined = hashlib.sha256("".join(digests).encode())
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "rounds": len(seeds), "operations": attempted,
        "environment": env, "problems": problems,
        "master_seeds": seeds, "digests": digests,
        "combined_digest": combined.hexdigest(),
        "metrics": {k: v[0] for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"run-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.json", workload=workload.name,
                     seed=args.seed, master_seeds=seeds)

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"rounds={len(seeds)} operations={attempted} failed={failed} "
          f"solves_or_reports={sum(r.outcomes for r in results)}")
    print("environment: " + json.dumps(env))
    print(f"output digest (sha256 over {len(digests)} rounds): "
          f"{record['combined_digest']}")
    for problem in problems:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
