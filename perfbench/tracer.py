"""Span recorder for the traced run, and the per-layer metrics drawn from it.

The tracer replaces module-level names that lpmc callers bind (for example
``lpmc.optimizer.objective_value``, which ``solve`` looks up at call time)
with thin wrappers that record one span per call. Nothing under ``src/``
changes, and ``Tracer.installed`` puts every original name back on exit, so
untraced runs measure unwrapped code.

A span is ``[name, start_ns, end_ns, parent, op, error]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``op`` the index of the
operation (round) it belongs to, set by the caller through ``Tracer.op``, and
``error`` the exception class name when the call raised. Spans stay in memory
until ``write`` dumps them as one file.
"""

import contextlib
import functools
import importlib
import json
import time
import weakref
from collections import Counter

# (module, attribute, span name). The first part of a span name is the layer
# it is charged to; a callable name is computed from the call's arguments.
TRACE_POINTS = (
    ("lpmc.experiments", "run_experiment", "experiments.run"),
    ("lpmc.experiments", "run_diagnostics", "experiments.run_diagnostics"),
    ("lpmc.experiments", "render_csv", "experiments.render_csv"),
    ("lpmc.experiments", "bernoulli_mask", "sampling.mask"),
    ("lpmc.experiments", "symmetric_offdiag_mask", "sampling.mask"),
    ("lpmc.experiments", "gaussian_noise", "sampling.noise"),
    ("lpmc.experiments", "skew_gaussian_noise", "sampling.noise"),
    ("lpmc.experiments", "subspace_instance", "instances.truth"),
    ("lpmc.experiments", "skew_instance", "instances.truth"),
    ("lpmc.experiments", "rectangular_instance", "instances.truth"),
    ("lpmc.experiments", "psd_instance", "instances.truth"),
    ("lpmc.experiments", "assemble", "instances.assemble"),
    ("lpmc.experiments", "make_spec", "objective.make_spec"),
    ("lpmc.instances", "make_spec", "objective.make_spec"),
    ("lpmc.experiments", "solve", "optimizer.solve"),
    ("lpmc.optimizer", "halving_line_search", "optimizer.line_search"),
    ("lpmc.optimizer", "objective_value", "objective.value"),
    ("lpmc.optimizer", "objective_grad", "objective.grad"),
    ("lpmc.landscape", "objective_value", "objective.value"),
    ("lpmc.landscape", "factor_grad", "objective.factor_grad"),
    ("lpmc.landscape", "factor_curvature", "objective.factor_curvature"),
    ("lpmc.experiments", "balanced_witness",
     lambda args: f"parameterization.witness.{args[0].kind}"),
    ("lpmc.experiments", "rectangular_param", "parameterization.param"),
    ("lpmc.experiments", "x_of", "parameterization.factor_map"),
    ("lpmc.experiments", "y_of", "parameterization.factor_map"),
    ("lpmc.landscape", "x_of", "parameterization.factor_map"),
    ("lpmc.landscape", "y_of", "parameterization.factor_map"),
    ("lpmc.parameterization", "reduced_svd", "linalg.reduced_svd"),
    ("lpmc.parameterization", "youla_decompose", "linalg.youla"),
    ("lpmc.landscape", "reduced_svd", "linalg.reduced_svd"),
    ("lpmc.landscape", "spectral_norm", "linalg.spectral_norm"),
    ("lpmc.experiments", "param_curvature_gap", "landscape.param_gap"),
    ("lpmc.experiments", "factor_curvature_gap", "landscape.factor_gap"),
    ("lpmc.experiments", "curvature_gap_decomposition",
     "landscape.gap_decomposition"),
    ("lpmc.experiments", "concentration_report", "landscape.concentration"),
    ("lpmc.experiments", "ground_truth_profile", "landscape.profile"),
    ("lpmc.experiments", "tuning_conditions", "landscape.tuning"),
    ("lpmc.experiments", "noise_spectral_surrogate",
     "landscape.noise_surrogate"),
)

MARK = "__perfbench_span__"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._entries = {}      # id(spec) -> (weakref to spec, |Omega|)

    def _observed_entries(self, spec):
        hit = self._entries.get(id(spec))
        if hit is None or hit[0]() is not spec:
            hit = (weakref.ref(spec), spec.mask.count)
            self._entries[id(spec)] = hit
        return hit[1]

    def wrap(self, fn, name):
        tracer = self
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            span = [label, 0, 0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            if label == "objective.value":
                tracer.counts["objective.value.entries"] += (
                    tracer._observed_entries(args[0]))
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if label == "optimizer.solve":
                tracer.counts["optimizer.iterations"] += result.iterations
                tracer.counts["optimizer.clamped_steps"] += (
                    result.clamped_steps)
                tracer.counts["optimizer.grad_tol"] += (
                    result.termination == "grad-tol")
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every trace point for the duration of the block; the
        original names are restored on exit, also when the block raises."""
        saved = []
        try:
            for module_name, attr, name in TRACE_POINTS:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(saved[-1][2], name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path, **header):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        body = dict(header, fields=["name", "start_ns", "end_ns", "parent",
                                    "op", "error"],
                    names=names,
                    spans=[[index[s[0]]] + s[1:] for s in self.spans])
        with open(path, "w") as fh:
            json.dump(body, fh, separators=(",", ":"))


def leftover_wrappers():
    """Every (module, attribute) of lpmc that still holds a tracer wrapper."""
    found = []
    for module_name in sorted({m for m, _, _ in TRACE_POINTS}):
        module = importlib.import_module(module_name)
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append((module_name, attr))
    return found


def self_times(spans):
    """Per span, its duration minus the time its child spans cover (calls are
    nested on one thread, so children never overlap)."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(tracer, operations, wall_s, untraced_wall_s):
    """The per-layer metrics of BENCHMARK.json from one traced pass.

    Timings named ``.us``/``.ms``/``.s`` are mean durations per call
    (inclusive of child spans); ``.share`` is the layer's self time over the
    traced wall time; counts are totals over the traced pass.
    """
    spans, counts = tracer.spans, tracer.counts
    own = self_times(spans)
    calls, total_ns = Counter(), Counter()
    layer_ns = Counter()
    in_line_search = 0
    for s, self_ns in zip(spans, own):
        calls[s[0]] += 1
        total_ns[s[0]] += s[2] - s[1]
        layer_ns[s[0].split(".", 1)[0]] += self_ns
        if s[0] == "objective.value" and s[3] >= 0 \
                and spans[s[3]][0] == "optimizer.line_search":
            in_line_search += 1
    wall_ns = wall_s * 1e9

    def mean(name, scale):
        return total_ns[name] / calls[name] / scale if calls[name] else 0.0

    def share(layer):
        return layer_ns[layer] / wall_ns

    solves = calls["optimizer.solve"]
    iterations = counts["optimizer.iterations"]
    value_calls = calls["objective.value"]
    numeric_errors = sum(1 for s in spans if s[0] == "optimizer.solve"
                         and s[5] == "NumericError")
    m = {
        "objective.value.calls": (value_calls, "count"),
        "objective.value.us": (mean("objective.value", 1e3), "us"),
        "objective.grad.calls": (calls["objective.grad"], "count"),
        "objective.grad.us": (mean("objective.grad", 1e3), "us"),
        "objective.observed_entries": (
            counts["objective.value.entries"] / value_calls
            if value_calls else 0.0, "entries"),
        "objective.share": (share("objective"), "fraction"),
        "optimizer.solves": (solves, "count"),
        "optimizer.iterations": (iterations, "count"),
        "optimizer.evals_per_iter": (
            in_line_search / calls["optimizer.line_search"]
            if calls["optimizer.line_search"] else 0.0, "evals/iter"),
        "optimizer.clamped_steps": (counts["optimizer.clamped_steps"],
                                    "count"),
        "optimizer.grad_tol_frac": (
            counts["optimizer.grad_tol"] / solves if solves else 0.0,
            "fraction"),
        "optimizer.self_us_per_iter": (
            layer_ns["optimizer"] / 1e3 / iterations if iterations else 0.0,
            "us/iter"),
        "optimizer.numeric_errors": (numeric_errors, "count"),
        "optimizer.share": (share("optimizer"), "fraction"),
        "sampling.mask.calls": (calls["sampling.mask"], "count"),
        "sampling.mask.ms": (mean("sampling.mask", 1e6), "ms"),
        "instances.truth.s": (mean("instances.truth", 1e9), "s"),
        "instances.assemble.ms": (mean("instances.assemble", 1e6), "ms"),
        "instances.share": (share("instances"), "fraction"),
    }
    for kind in ("rectangular", "psd", "subspace", "skew"):
        m[f"parameterization.witness.{kind}.us"] = (
            mean(f"parameterization.witness.{kind}", 1e3), "us")
    m.update({
        "parameterization.share": (share("parameterization"), "fraction"),
        "linalg.spectral_norm.calls": (calls["linalg.spectral_norm"],
                                       "count"),
        "linalg.spectral_norm.ms": (mean("linalg.spectral_norm", 1e6), "ms"),
        "linalg.youla.us": (mean("linalg.youla", 1e3), "us"),
        "linalg.reduced_svd.us": (mean("linalg.reduced_svd", 1e3), "us"),
        "linalg.share": (share("linalg"), "fraction"),
        "landscape.param_gap.us": (mean("landscape.param_gap", 1e3), "us"),
        "landscape.factor_gap.us": (mean("landscape.factor_gap", 1e3), "us"),
        "landscape.gap_decomposition.ms": (
            mean("landscape.gap_decomposition", 1e6), "ms"),
        "landscape.concentration.ms": (
            mean("landscape.concentration", 1e6), "ms"),
        "landscape.share": (share("landscape"), "fraction"),
        "experiments.self_s": (layer_ns["experiments"] / 1e9 / operations,
                               "s"),
        "experiments.render_csv.ms": (mean("experiments.render_csv", 1e6),
                                      "ms"),
        "trace.overhead_frac": (wall_s / untraced_wall_s - 1.0, "fraction"),
    })
    return m
