"""The benchmark's tracer wraps lpmc names by (module, attribute), so each of
them must stay bound to a callable, and the callers must keep reaching them
through those module globals; a dropped name or a call routed past one
would pass every other test here and only show when the benchmark's
per-layer metrics go silent."""

import importlib
import importlib.util
import os
from collections import Counter

from lpmc import experiments

TRACER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_trace_point_is_a_callable_in_lpmc():
    tracer = load_tracer()
    missing = [f"{module_name}.{attr}"
               for module_name, attr, _ in tracer.TRACE_POINTS
               if not callable(getattr(importlib.import_module(module_name),
                                       attr, None))]
    assert tracer.TRACE_POINTS
    assert not missing


def test_diagnostics_spans_stay_fed():
    rec = load_tracer().Tracer()
    with rec.installed():
        experiments.run_diagnostics(experiments.default_config("diagnostics"))
    seen = {span[0] for span in rec.spans}
    want = {"landscape.param_gap", "landscape.factor_gap",
            "landscape.gap_decomposition", "landscape.concentration",
            "linalg.youla", "linalg.reduced_svd", "linalg.spectral_norm",
            "objective.value"}
    want |= {f"parameterization.witness.{kind}"
             for kind in ("rectangular", "psd", "subspace", "skew")}
    assert not want - seen, sorted(want - seen)


def test_sweep_spans_stay_fed():
    # each solve records one objective.value span per line-search candidate,
    # a candidate stopped at its fit term included, and one objective.grad
    # span per gradient: on the observed-entry kernel in block coordinates
    # (subspace at p = 0.02) and on the dense kernel
    configs = (
        experiments.default_config("subspace-phase", n1=60, n2=60,
                                   sweep=(6, 10), p_grid=(0.02,), trials=2),
        experiments.default_config("single-solve"))
    for config in configs:
        rec = load_tracer().Tracer()
        with rec.installed():
            records, _ = experiments.run_experiment(config)
        spans = rec.spans
        # (name, parent) -> spans of that name under that parent
        children = Counter((span[0], span[3]) for span in spans)
        solves = [i for i, span in enumerate(spans)
                  if span[0] == "optimizer.solve"]
        assert len(solves) == len(records) > 0
        for i, record in zip(solves, records):
            searches = [j for j, span in enumerate(spans)
                        if span[0] == "optimizer.line_search"
                        and span[3] == i]
            assert len(searches) == record.iterations
            assert sum(children["objective.value", j] for j in searches) == (
                record.value_evals - 1)
            assert children["objective.grad", i] == record.iterations + 1
