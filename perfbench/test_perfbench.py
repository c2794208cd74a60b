"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest perfbench -q

The smoke runs use ``--smoke`` (two desk-size rounds per run), so the whole
file takes seconds while still driving each workload's code path.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("objective.value.calls", "objective.grad.calls",
          "optimizer.iterations", "optimizer.evals_per_iter",
          "optimizer.solves", "sampling.mask.calls",
          "linalg.spectral_norm.calls")


@functools.cache
def smoke(workload, trace, seed=3, repeat=0):
    """(stdout lines, final JSON object) of one smoke run; repeat only keys
    the cache."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    _, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    if not trace:
        assert result["attempted"] == 2 * WORKLOADS[workload].passes
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("trace", (0, 1))
def test_same_seed_repeats_counts_and_digests(trace):
    first_lines, first = smoke("skew-dense", trace)
    again_lines, again = smoke("skew-dense", trace, repeat=1)

    def digest(lines):
        return next(ln for ln in lines if ln.startswith("output digest"))

    assert digest(first_lines) == digest(again_lines)
    names = COUNTS if trace else ("recovered_frac",)
    for name in names:
        assert first["metrics"][name] == again["metrics"][name], name
    other_lines, _ = smoke("skew-dense", trace, seed=4)
    assert digest(other_lines) != digest(first_lines)


def test_tracer_restores_every_name():
    import lpmc.experiments
    import lpmc.optimizer
    before = {(m, a): getattr(sys.modules[m], a)
              for m, a, _ in tracer.TRACE_POINTS}
    rec = tracer.Tracer()
    with rec.installed():
        assert len(tracer.leftover_wrappers()) == len(before)
        WORKLOADS["skew-dense"].run_round(7, desk=True)
    assert tracer.leftover_wrappers() == []
    for (m, a), original in before.items():
        assert getattr(sys.modules[m], a) is original
    assert sum(s[0] == "optimizer.solve" for s in rec.spans) == 2
    assert {s[0] for s in rec.spans} >= {
        "experiments.run", "optimizer.solve", "optimizer.line_search",
        "objective.value", "objective.grad", "sampling.mask",
        "instances.truth", "experiments.render_csv"}

    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            raise RuntimeError("inside the traced block")
    assert tracer.leftover_wrappers() == []
    assert lpmc.optimizer.objective_value is before[
        ("lpmc.optimizer", "objective_value")]


def test_self_time_subtracts_children():
    spans = [["a", 0, 100, -1, -1, None],
             ["b", 10, 40, 0, 0, None],
             ["c", 20, 30, 1, 0, None],
             ["d", 50, 90, 0, 1, None]]
    assert tracer.self_times(spans) == [30, 20, 10, 40]


def test_fails_without_the_program_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diagnostics-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
